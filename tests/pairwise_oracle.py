"""Reference oracle for the seed closure: the one-step relation tested on every pair.

This is the direct reading of the definition, quadratic in the number of
seeds.  The library enumerates neighbours instead; the tests require both to
give the same edges and the same partition.
"""

from isgact import PartialAction, Quotient, Seed
from isgact.globalization import _UnionFind


def seeds_related(action: PartialAction, p: Seed, q: Seed) -> bool:
    """One-step relation on seeds; reflexive and symmetric, not transitive in general.

    (s, x) relates to (t, y) when either inv(t) composes with s, x lies in
    dom_of[inv(s) t] and theta[inv(t) s] carries x to y, or both arrows are
    idempotent and x equals y.
    """
    s, x = p
    t, y = q
    isg = action.semigroupoid
    if isg.composable(isg.inv(t), s):
        carry = isg.mul(isg.inv(t), s)
        if x in action.dom_of[isg.mul(isg.inv(s), t)] and action.theta[carry].get(x) == y:
            return True
    idem = isg.idempotent_set()
    return s in idem and t in idem and x == y


def pairwise_edges(seeds, action: PartialAction) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, with seeds_related(seeds[i], seeds[j]), in order."""
    return [
        (i, j)
        for i in range(len(seeds))
        for j in range(i + 1, len(seeds))
        if seeds_related(action, seeds[i], seeds[j])
    ]


def pairwise_closure(seeds, action: PartialAction) -> Quotient:
    """Union-find closure of the one-step relation over all seed pairs."""
    uf = _UnionFind(len(seeds))
    for i, j in pairwise_edges(seeds, action):
        uf.union(i, j)
    return Quotient(seeds, [uf.find(i) for i in range(len(seeds))])

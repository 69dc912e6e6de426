"""Reference oracles for the globalization: the one-step relation tested on
every pair of seeds, and the seed domain of each class map by its window formula.

These are direct readings of the definitions, quadratic in the number of
seeds or arrows.  The library enumerates neighbours and reads the class maps
off the seed index instead; the tests require both routes to give the same
edges, the same partition and the same class maps.
"""

from isgact import PartialAction, Quotient, Seed, build_seed_set


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
    return Quotient(seeds, pairwise_edges(seeds, action))


def seed_domain(action: PartialAction, s: str, seeds=None) -> list[Seed]:
    """The seeds (p, x) on which the induced map of arrow s is defined.

    These are the seeds with (s, p) composable and x in
    dom_of[inv(p) inv(s) s p], in canonical order; ``seeds`` defaults to the
    whole seed set.
    """
    if seeds is None:
        seeds = build_seed_set(action)
    isg = action.semigroupoid
    w = isg.mul(isg.inv(s), s)
    window = {
        p: action.dom_of[isg.mul(isg.inv(p), isg.mul(w, p))] for p in isg.arrows if isg.composable(s, p)
    }
    return [seed for seed in seeds if seed.point in window.get(seed.arrow, ())]

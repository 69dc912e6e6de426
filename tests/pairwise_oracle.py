"""Reference oracles for the globalization: the one-step relation tested on
every pair of seeds, the seed domain of each class map by its window formula,
and the class maps read off every seed and every left multiplier.

These are direct readings of the definitions, quadratic in the number of
seeds or arrows.  The library enumerates neighbours and closes them by
union-find (``close_equivalence``), or closes a congruence along the
generators and composes the other arrows' class maps along the right Cayley
tree kept by the generator search (``build_globalization``); the tests
require every route to give the same edges, the same partition and the same
class maps.  The closure here is a
graph search of its own, so it shares no code with the ones it checks.
"""

from typing import NamedTuple

from isgact import PartialAction, Seed, build_seed_set


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


class PairwiseQuotient(NamedTuple):
    """The members of a library ``Quotient`` that the tests compare."""

    seeds: tuple
    edges: tuple
    n_classes: int
    classes: tuple
    representatives: tuple
    class_of: dict


def pairwise_closure(seeds, action: PartialAction) -> PairwiseQuotient:
    """The closure of the one-step relation over all seed pairs, by a depth-first search per class.

    Classes are numbered in order of their first seed, and list their seeds in order.
    """
    seeds = tuple(seeds)
    edges = tuple(pairwise_edges(seeds, action))
    neighbours = [[] for _ in seeds]
    for i, j in edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    label = [None] * len(seeds)
    classes = []
    for first in range(len(seeds)):
        if label[first] is not None:
            continue
        c, members, stack = len(classes), [], [first]
        label[first] = c
        while stack:
            i = stack.pop()
            members.append(i)
            for j in neighbours[i]:
                if label[j] is None:
                    label[j] = c
                    stack.append(j)
        classes.append(tuple(seeds[i] for i in sorted(members)))
    return PairwiseQuotient(
        seeds, edges, len(classes), tuple(classes), tuple(m[0] for m in classes), dict(zip(seeds, label))
    )


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


def class_maps_by_left_multipliers(action: PartialAction, quotient) -> list[list[int]]:
    """Per arrow s, a row over class ids: the class s sends it to, or -1.

    s sends the class of (p, x) to the class of (s p, x), and is defined
    there exactly when (s p, x) is a seed.  Every seed is evaluated against
    every left multiplier s, and a class sent to two classes raises
    RuntimeError naming the arrow.  The quotient is read as its seed index
    (``_blocks``) and class labels (``_label``).
    """
    isg, n = action.semigroupoid, len(action.carrier)
    blocks = quotient._blocks
    labels = [quotient._label[ids.start:ids.stop] for ids, _ in blocks]
    # per arrow, its class row: the class of its seed at each carrier position, or -1
    class_rows = []
    for (_, pts), label in zip(blocks, labels):
        row = [-1] * n
        for k, c in zip(pts, label):
            row[k] = c
        class_rows.append(row)
    moves_of = [[-1] * quotient.n_classes for _ in blocks]
    # for each arrow p, per arrow s with s p defined: s and the class row of s p
    lefts = [[] for _ in blocks]
    for s, p, sp in isg._products:
        lefts[p].append((s, class_rows[sp]))
    for (_, pts), left, label in zip(blocks, lefts, labels):
        for k, src in zip(pts, label):
            for s, row in left:
                dst, moves = row[k], moves_of[s]
                if dst >= 0 and moves[src] != dst:
                    if moves[src] >= 0:
                        raise RuntimeError(f"class map for arrow {isg.arrows[s]} is not well defined: class {src} sent to both {moves[src]} and {dst}")
                    moves[src] = dst
    return moves_of

"""Reference oracles for the globalization: the one-step relation tested on
every pair of seeds, and the seed domain of each class map by its window formula.

These are direct readings of the definitions, quadratic in the number of
seeds or arrows.  The library enumerates neighbours, closes them by
union-find and reads the class maps off the seed index instead; the tests
require both routes to give the same edges, the same partition and the same
class maps.  The closure here is a graph search of its own, so it shares no
code with the one it checks.
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

#!/usr/bin/env python3
"""Walk through the two worked constructions and print every table.

Builds the eight-arrow structure, globalizes its four-point action, then
restricts the three-point global action to {1, 2}, globalizes that, and
factors the inclusion back into the original action through the result.
"""

import argparse

from isgact import (
    GlobalizationTriple,
    build_globalization,
    check_fiber_injectivity,
    fiber_classes,
    inclusion_map,
    mediating,
    restrict,
    verify_universal,
)
from isgact.catalog import four_point_action, three_point_action, two_object_hybrid


def show_globalization(glob):
    q = glob.quotient
    print(f"  {len(q.seeds)} seeds fall into {q.n_classes} classes:")
    for c, members in enumerate(q.classes):
        print(f"    class {c}: " + " ".join(f"({s},{x})" for s, x in members))
    for s in glob.action.semigroupoid.arrows:
        fam = " ".join(str(c) for c in sorted(glob.global_action.dom_of[s]))
        moves = glob.global_action.theta[s]
        arrows = ", ".join(f"{c}->{moves[c]}" for c in sorted(moves))
        print(f"    {s}: family {{{fam}}}, map {arrows}")
    emb = glob.canonical_embedding.mapping
    print("    embedding: " + ", ".join(f"{x}->{emb[x]}" for x in glob.action.carrier))


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()

    isg = two_object_hybrid()
    print(f"structure: {len(isg.arrows)} arrows, idempotents {sorted(isg.idempotent_set())}")

    print("\nfour-point action, globalized:")
    glob_a = build_globalization(four_point_action(isg))
    show_globalization(glob_a)

    print("\nthree-point global action restricted to {1, 2}, globalized:")
    big = three_point_action(isg)
    small = restrict(big, {"1", "2"})
    glob_b = build_globalization(small)
    show_globalization(glob_b)

    print("\nfactoring the inclusion through the construction:")
    j = inclusion_map(small, big)
    sigma = mediating(glob_b, GlobalizationTriple(j))
    print("  sigma: " + ", ".join(f"{c}->{sigma.mapping[c]}" for c in sorted(sigma.mapping)))
    print(f"  injective overall: {len(set(sigma.mapping.values())) == len(sigma.mapping)}")
    for u in isg.objects:
        print(f"  fiber of {u}: classes {sorted(fiber_classes(glob_b, u))}")
    print(f"  injective on every fiber: {check_fiber_injectivity(sigma, glob_b).ok}")
    report = verify_universal(glob_b, j, sigma)
    print(f"  uniqueness audit: {'ok' if report.ok else 'FAILED'}"
          + ("".join(f" ({n})" for n in report.notes)))


if __name__ == "__main__":
    main()

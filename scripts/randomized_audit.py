#!/usr/bin/env python3
"""Sweep seeded restrictions of the catalog and audit the construction on each.

For every draw: restrict a cataloged global action to a random subset,
validate both axiom systems, globalize, factor the inclusion back into the
source action, and audit the universal property with ``verify_universal``,
which decides uniqueness unless its candidate budget is exceeded.  Counts
never lie: any failure raises immediately.
"""

import argparse
import time

from isgact import (
    GlobalizationTriple,
    build_globalization,
    check_fiber_injectivity,
    compose,
    inclusion_map,
    is_embedding,
    is_global,
    mediating,
    validate_e_axioms,
    validate_p_axioms,
    verify_universal,
)
from isgact.catalog import catalog, random_partial_action


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--draws", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0, help="offset added to every draw seed")
    args = parser.parse_args()

    entries = catalog()
    slots = [(e, i) for e in entries for i, ca in enumerate(e.actions) if ca.global_tag]
    started = time.perf_counter()
    class_counts = []
    skipped = 0
    for draw in range(args.draws):
        entry, index = slots[draw % len(slots)]
        base = entry.actions[index].action
        action = random_partial_action(entry, index, args.seed + draw)
        assert validate_p_axioms(action).ok and validate_e_axioms(action).ok
        glob = build_globalization(action)
        assert is_global(glob.global_action)
        assert is_embedding(glob.canonical_embedding).ok
        j = inclusion_map(action, base)
        triple = GlobalizationTriple(j)
        sigma = mediating(glob, triple)
        assert compose(sigma, glob.canonical_embedding) == j
        assert check_fiber_injectivity(sigma, glob).ok
        report = verify_universal(glob, triple, sigma)
        assert report.ok, report.render()
        skipped += bool(report.notes)
        class_counts.append(len(glob.global_action.carrier))
    elapsed = time.perf_counter() - started
    print(f"{args.draws} draws over {len(slots)} global actions: all audits passed "
          f"in {elapsed:.2f}s (class counts {min(class_counts)}..{max(class_counts)}; "
          f"uniqueness decided in {args.draws - skipped}, skipped over the bound in {skipped})")


if __name__ == "__main__":
    main()

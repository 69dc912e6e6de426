"""Acceptance suite: one test per criterion, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from isgact import (
    ActionMap,
    GlobalizationTriple,
    PartialAction,
    Seed,
    build_globalization,
    check_fiber_injectivity,
    compose,
    format_action,
    format_structure,
    inclusion_map,
    is_action_map,
    is_embedding,
    is_global,
    is_isomorphism,
    load_action,
    load_structure,
    mediating,
    parse_action,
    parse_structure,
    restrict,
    validate_e_axioms,
    validate_p_axioms,
    verify_universal,
)
from isgact.catalog import catalog, random_partial_action

from derived_oracle import check_derived_propositions
from pairwise_oracle import seeds_related
from worked_data import (
    CLASSES_A,
    CLASSES_B,
    EMBED_A,
    EMBED_B,
    ETA_A,
    ETA_B,
    FAMILIES_A,
    FAMILIES_B,
    SIGMA_B,
    assert_exact_composites,
    audit_equivalence_lemmas,
    check_globalization_against,
    transported_copy,
)


@contextmanager
def criterion(number: int, description: str, limit: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s, budget {limit}s"
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_structure_golden(fixtures_dir):
    with criterion(1, "eight-arrow structure validates with the four expected idempotents", 1.0):
        isg = load_structure(fixtures_dir / "eight_arrow.isgd")
        assert isg.idempotent_set() == {"a*a", "aa*", "b*b", "bb*"}


def test_criterion_2_negative_fixture(fixtures_dir):
    with criterion(2, "bad-range fixture fails with witness (a, 1); corrected one passes both systems", 1.0):
        bad, _ = load_action(fixtures_dir / "four_point_bad_range.pact")
        report = validate_p_axioms(bad)
        assert not report.ok
        assert any(v.witness[:2] == ("a", "1") for v in report.violations)
        good, _ = load_action(fixtures_dir / "four_point.pact")
        assert validate_p_axioms(good).ok
        assert validate_e_axioms(good).ok


def test_criterion_3_globalization_golden_a(fixtures_dir):
    with criterion(3, "four-point globalization: 5 classes, families, class maps, embedding", 1.0):
        action, _ = load_action(fixtures_dir / "four_point.pact")
        glob = build_globalization(action)
        assert glob.quotient.n_classes == 5
        check_globalization_against(glob, CLASSES_A, FAMILIES_A, ETA_A, EMBED_A)


def test_criterion_4_globalization_golden_b(fixtures_dir):
    with criterion(4, "two-point restriction: 4 classes, mediating map, fibers, exhaustive uniqueness", 5.0):
        target_action, isg = load_action(fixtures_dir / "three_point_global.pact")
        action = restrict(target_action, {"1", "2"})
        expected, _ = load_action(fixtures_dir / "three_point_restricted.pact")
        assert action == expected
        assert action.dom_of["a"] == {"2"} and action.dom_of["a*"] == {"1"}

        glob = build_globalization(action)
        assert glob.quotient.n_classes == 4
        label = check_globalization_against(glob, CLASSES_B, FAMILIES_B, ETA_B, EMBED_B)

        j = inclusion_map(action, target_action)
        sigma = mediating(glob, GlobalizationTriple(j))
        assert sigma.mapping == {label[c]: z for c, z in SIGMA_B.items()}
        assert len(set(sigma.mapping.values())) < glob.quotient.n_classes  # not injective
        assert check_fiber_injectivity(sigma, glob).ok

        # all 81 maps from the four classes into the three points
        report = verify_universal(glob, j, sigma, exhaustive_bound=81)
        assert report.ok and not report.notes

        # all 64 maps back: none closes the triangle while staying equivariant
        classes = glob.global_action.carrier
        embed = glob.canonical_embedding.mapping
        for values in itertools.product(classes, repeat=len(target_action.carrier)):
            back = dict(zip(target_action.carrier, values))
            if any(back[x] != embed[x] for x in action.carrier):
                continue
            candidate = ActionMap(target_action, glob.global_action, back)
            assert not is_action_map(candidate).ok


def test_criterion_5_non_transitivity_witness(fixtures_dir):
    with criterion(5, "seed relation: (a,1)~(aa*,4)~(bb*,4) but not (a,1)~(bb*,4)", 1.0):
        action, _ = load_action(fixtures_dir / "four_point.pact")
        assert seeds_related(action, Seed("a", "1"), Seed("aa*", "4"))
        assert seeds_related(action, Seed("aa*", "4"), Seed("bb*", "4"))
        assert not seeds_related(action, Seed("a", "1"), Seed("bb*", "4"))


def _full_audit(action: PartialAction, targets: list):
    """Checks (a)-(f) of the property criterion on one action."""
    p_rep, e_rep = validate_p_axioms(action), validate_e_axioms(action)
    assert p_rep.ok == e_rep.ok is True                      # (a)
    assert check_derived_propositions(action).ok             # (b)

    glob = build_globalization(action)
    assert is_global(glob.global_action)                     # (c)
    assert validate_e_axioms(glob.global_action).ok
    assert_exact_composites(glob.global_action)

    emb = glob.canonical_embedding
    assert is_embedding(emb).ok                              # (d)
    carried = restrict(glob.global_action, set(emb.mapping.values()))
    assert carried == transported_copy(action, emb.mapping)

    audit_equivalence_lemmas(action, glob.quotient)          # (e)

    targets = list(targets) + [GlobalizationTriple(emb)]
    for target in targets:                                   # (f)
        sigma = mediating(glob, target)
        j = target.embedding if isinstance(target, GlobalizationTriple) else target
        assert compose(sigma, emb) == j
        assert check_fiber_injectivity(sigma, glob).ok
    return glob


def test_criterion_6_property_suite():
    with criterion(6, "catalog plus 200 seeded restrictions pass the full audit", 60.0):
        entries = catalog()
        for entry in entries:
            for ca in entry.actions:
                _full_audit(ca.action, [])

        global_slots = [
            (entry, i) for entry in entries for i, ca in enumerate(entry.actions) if ca.global_tag
        ]
        for i in range(200):
            entry, index = global_slots[i % len(global_slots)]
            base = entry.actions[index].action
            action = random_partial_action(entry, index, i)
            j = inclusion_map(action, base)
            _full_audit(action, [GlobalizationTriple(j)])

        for entry, index in global_slots:                    # (g)
            base = entry.actions[index].action
            glob = build_globalization(base)
            assert len(glob.global_action.carrier) == len(base.carrier)
            assert is_isomorphism(glob.canonical_embedding)


def test_criterion_7_round_trip_and_deterministic_json(fixtures_dir):
    with criterion(7, "text round-trips on the catalog; byte-identical JSON across two runs", 5.0):
        for entry in catalog():
            structure_text = format_structure(entry.structure)
            doc = parse_structure(structure_text)
            assert doc.table == entry.structure
            assert format_structure(entry.structure) == structure_text
            for ca in entry.actions:
                action_text = format_action(ca.action, "ref.isgd")
                assert parse_action(action_text, entry.structure) == ca.action
                assert format_action(parse_action(action_text, entry.structure), "ref.isgd") == action_text

        cmd = [sys.executable, "-m", "isgact", "globalize",
               str(fixtures_dir / "three_point_restricted.pact"), "--format", "json"]
        env = dict(os.environ, PYTHONPATH=str(fixtures_dir.parent / "src"))  # the library in this checkout
        first = subprocess.run(cmd, capture_output=True, check=True, env=env)
        second = subprocess.run(cmd, capture_output=True, check=True, env=env)
        assert first.stdout == second.stdout
        json.loads(first.stdout)  # well-formed

"""The globalization against its oracles on the benchmark generator's families.

Inputs: seeded restrictions of orbit unions of the natural actions of I_2,
I_3, Z_n, P_3, P_4, L_n and the hybrid H_8 (perfbench/generate.py), written
as text and parsed back through ``parse_structure`` and ``parse_action``;
an empty carrier; and a structure with no arrows.  On each, the
construction's partition must be the pairwise oracle's and that of
``close_equivalence``, which closes the enumerated one-step relation, its
class maps those read off every seed and every left multiplier, and
``mediating`` into the orbit union the map that ``mediating_by_seeds`` reads
class by class.  On each drawn orbit union, which ``validate_p_axioms``
decides along the generator edges, and on one seeded single-entry
corruption of it, its report must be that of the set-based scan
``validate_p_axioms_by_scan``, on structures with more generators than the
catalog's.  On the restriction, the orbit union and a ``gen.bad_range`` of
each, the E report must be that of ``validate_e_axioms_by_scan``, which
checks E2 at every point of every composable pair, and the derived
propositions (``derived_oracle.py``) may fail only where P or E fails.
``build_globalization`` must refuse, with the scan's report, exactly those
of the restriction, the orbit union, one seeded single-entry corruption and
one seeded coherent swap of each that the scan rejects.
The seed count is capped so that the quadratic oracles stay quick.
"""

import dataclasses
import random
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from isgact import (
    build_globalization,
    build_seed_set,
    close_equivalence,
    infer_inverses,
    is_global,
    mediating,
    parse_action,
    parse_structure,
    validate_e_axioms,
    validate_p_axioms,
)
from isgact.morphisms import inclusion_map
from corruptions import changes, corrupted, swapped, swaps
from derived_oracle import fails_alone
from e_scan_oracle import validate_e_axioms_by_scan
from p_scan_oracle import refused_as_the_scan_rejects, validate_p_axioms_by_scan
from pairwise_oracle import class_maps_by_left_multipliers, pairwise_closure
from universal_oracle import mediating_by_seeds

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import generate as gen  # noqa: E402

FAMILIES = [("I", 2), ("I", 3), ("Z", 1), ("Z", 2), ("Z", 5), ("Z", 8), ("P", 3), ("P", 4), ("L", 1), ("L", 4), ("L", 8), ("H", 0)]
SEED_CAP = 90


def parsed(structure, *actions):
    """The structure parsed from its text, then each generated action parsed against it."""
    isg = infer_inverses(parse_structure(structure.text()).table)
    return [parse_action(action.text(f"{structure.name}.isgd"), isg) for action in actions]


@st.composite
def restricted_unions(draw):
    """A seeded restriction of an orbit union with at most SEED_CAP seeds and the orbit union, then a
    ``gen.bad_range`` of each that maps a point, all parsed."""
    kind, size = draw(st.sampled_from(FAMILIES))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    structure, action = gen.family(kind, size, rng)
    union = gen.orbit_union(action, draw(st.integers(1, 3)), rng)
    kept = rng.sample(union.carrier, draw(st.integers(0, len(union.carrier))))
    sub = gen.restrict(union, kept)
    while len(sub.seeds()) > SEED_CAP:
        kept.pop()
        sub = gen.restrict(union, kept)
    broken = [dataclasses.replace(a, dom_of=gen.bad_range(a, rng)) for a in (sub, union) if any(a.theta.values())]
    sub, union, *broken = parsed(structure, sub, union, *broken)
    return (sub, union), broken


def assert_the_oracles_agree(action, union):
    glob = build_globalization(action)
    built = glob.quotient
    seeds = build_seed_set(action)
    oracle = pairwise_closure(seeds, action)
    assert built.seeds == oracle.seeds
    assert built.n_classes == oracle.n_classes
    assert built.classes == oracle.classes
    assert built._label == close_equivalence(list(built.seeds), action)._label
    out = glob.global_action
    moves = class_maps_by_left_multipliers(action, built)
    assert out.rows == moves
    assert out.masks == [[d >= 0 for d in moves[si]] for si in action.semigroupoid._inv]
    j = inclusion_map(action, union)
    assert mediating(glob, j).mapping == mediating_by_seeds(glob, j).mapping


def assert_the_generator_edge_check_agrees(union, rng):
    assert validate_p_axioms(union).ok and is_global(union)
    _, bad = corrupted(union, rng.choice(list(changes(union))))
    for action in (union, bad):
        assert validate_p_axioms(action) == validate_p_axioms_by_scan(action)


def assert_the_e_scan_agrees(actions):
    for action in actions:
        assert validate_e_axioms(action) == validate_e_axioms_by_scan(action)


def assert_the_construction_refuses_what_the_scan_rejects(pair, rng):
    for action in pair:
        refused_as_the_scan_rejects(action)
        for listed, build in ((list(changes(action)), corrupted), (list(swaps(action)), swapped)):
            if listed:
                refused_as_the_scan_rejects(build(action, rng.choice(listed))[1])


@given(restricted_unions(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_the_construction_matches_its_oracles_on_restricted_orbit_unions(drawn, rng):
    pair, broken = drawn
    assert_the_oracles_agree(*pair)
    assert_the_generator_edge_check_agrees(pair[1], rng)
    assert_the_e_scan_agrees([*pair, *broken])
    assert not any(map(fails_alone, [*pair, *broken]))
    assert_the_construction_refuses_what_the_scan_rejects(pair, rng)


def test_the_construction_matches_its_oracles_on_full_orbit_unions():
    # nothing restricted: every seed of a global action, across copies that stay apart
    for kind, size in FAMILIES:
        rng = random.Random(size)
        structure, action = gen.family(kind, size, rng)
        union = gen.orbit_union(action, 2, rng)
        if len(union.seeds()) <= 2 * SEED_CAP:
            assert_the_oracles_agree(*parsed(structure, union, union))


def test_the_construction_matches_its_oracles_on_an_empty_carrier():
    for kind, size in FAMILIES:
        structure, action = gen.family(kind, size, random.Random(0))
        assert_the_oracles_agree(*parsed(structure, gen.restrict(action, []), action))


def test_the_construction_matches_its_oracles_on_a_structure_without_arrows():
    structure = gen.Structure("E", ["o"], [], {}, {}, {}, {})
    empty = gen.Action(structure, [], {}, {})
    assert_the_oracles_agree(*parsed(structure, empty, empty))

"""Checks on the benchmark's input generator, run against isgact itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import random

import pytest

import generate as gen
import workloads
from isgact.actions import validate_e_axioms, validate_p_axioms
from isgact.catalog import symmetric_inverse_2, symmetric_inverse_2_action, two_object_hybrid
from isgact.core import InverseSemigroupoid
from isgact.textio import ValidationFailure, load_action, load_structure, parse_action

FAMILIES = sorted(
    {(kind, size) for kind, size, _ in workloads.VALIDATE_SLOTS}
    | {(kind, size) for kind, size, *_ in workloads.GLOBALIZE_SLOTS + workloads.AUDIT_SLOTS}
)


def _same_up_to_renaming(st: gen.Structure, isg: InverseSemigroupoid, rename: dict):
    assert sorted(rename) == sorted(st.arrows) and sorted(rename.values()) == sorted(isg.arrows)
    for s in st.arrows:
        assert isg.inv(rename[s]) == rename[st.inv[s]]
        assert (isg.dom(rename[s]), isg.cod(rename[s])) == (st.dom[s], st.cod[s])
        for t in st.arrows:
            expected = rename[st.mul[(s, t)]] if st.composable(s, t) else None
            assert isg.mul(rename[s], rename[t]) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_i2_is_the_catalog_entry_up_to_renaming(seed):
    st, action = gen.symmetric_inverse(2, random.Random(seed))
    cat = symmetric_inverse_2()
    by_graph = {frozenset(m.items()): a for a, m in symmetric_inverse_2_action(cat).theta.items()}
    _same_up_to_renaming(st, cat, {s: by_graph[frozenset(action.theta[s].items())] for s in st.arrows})


def test_generated_hybrid_is_the_catalog_entry():
    st, _ = gen.hybrid(random.Random(0))
    _same_up_to_renaming(st, two_object_hybrid(), {a: a for a in st.arrows})


@pytest.mark.parametrize("kind,size", FAMILIES)
def test_every_generated_valid_structure_and_action_loads(kind, size, tmp_path):
    st, action = gen.family(kind, size, random.Random(7))
    (tmp_path / "s.isgd").write_text(st.text())
    isg = load_structure(tmp_path / "s.isgd")
    assert isg.inverse_map() == st.inv
    assert sorted(isg.idempotent_set()) == sorted(st.idempotents())
    union = gen.orbit_union(action, 2, random.Random(7))
    for candidate in (action, union, gen.restrict(union, union.carrier[: len(union.carrier) // 2 + 1])):
        loaded = parse_action(candidate.text("s.isgd"), isg)
        assert validate_p_axioms(loaded).ok and validate_e_axioms(loaded).ok
        assert [[s, x] for s, x in candidate.seeds()] == [
            [s, x] for s in st.arrows for x in candidate.carrier if x in loaded.dom_of[isg.mul(isg.inv(s), s)]
        ]


CORRUPTED = sorted({slot for slot in workloads.VALIDATE_SLOTS if slot[2] in ("product", "inverse", "range")})
TAGS = {"product": "associativity", "inverse": "declared-inverse", "range": "theta-range"}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind,size,variant", CORRUPTED)
def test_every_corruption_is_rejected(kind, size, variant, seed, tmp_path):
    rng = random.Random(seed)
    st, action = gen.family(kind, size, rng)
    path = tmp_path / "s.isgd"
    if variant == "range":
        path.write_text(st.text())
        (tmp_path / "a.pact").write_text(action.text("s.isgd", dom_of=gen.bad_range(action, rng)))
        loaded, _ = load_action(tmp_path / "a.pact")
        assert TAGS[variant] in validate_p_axioms(loaded).tags()
        return
    path.write_text(st.text(mul=gen.swap_product(st, rng)) if variant == "product" else st.text(inv=gen.wrong_inverse(st, rng)))
    with pytest.raises(ValidationFailure) as failure:
        load_structure(path)
    assert TAGS[variant] in failure.value.report.tags()

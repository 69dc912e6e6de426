import pytest

from isgact import (
    ActionMap,
    GlobalizationTriple,
    StructuralError,
    build_globalization,
    compose,
    identity_map,
    inclusion_map,
    is_action_map,
    is_embedding,
    is_globalization_triple,
    is_isomorphism,
    mediating,
    restrict,
    validate_p_axioms,
)
from isgact.catalog import catalog_entry
from isgact.core import Violation

from dual_route_oracles import embedding_by_points


@pytest.fixture()
def two_point(three_point):
    return restrict(three_point, {"1", "2"})


@pytest.mark.parametrize(
    "target, mapping, message",
    [
        ("semilattice-2", {"1": "1", "2": "2"}, "source and target actions live over different semigroupoids"),
        ("three-point", {"1": "1"}, "map undefined on source elements: ['2']"),
        ("three-point", {"1": "1", "2": "2", "3": "3"}, "map defined outside the source carrier: ['3']"),
        ("three-point", {"1": "1", "2": "9"}, "map values outside the target carrier: ['9']"),
    ],
    ids=["different-semigroupoids", "undefined-on-source", "defined-outside-source", "values-outside-target"],
)
def test_the_map_constructor_names_what_its_input_lacks_or_adds(two_point, three_point, target, mapping, message):
    targets = {"semilattice-2": catalog_entry("semilattice-2").actions[0].action, "three-point": three_point}
    with pytest.raises(StructuralError) as err:
        ActionMap(two_point, targets[target], mapping)
    assert str(err.value) == message


def test_identity_is_an_action_map(four_point, three_point):
    for action in (four_point, three_point):
        f = identity_map(action)
        assert is_action_map(f).ok
        assert is_embedding(f).ok
        assert is_isomorphism(f)


def test_inclusion_of_a_restriction_is_an_embedding(three_point, two_point):
    inc = inclusion_map(two_point, three_point)
    assert is_action_map(inc).ok
    assert is_embedding(inc).ok
    assert embedding_by_points(inc).ok
    assert is_globalization_triple(inc).ok
    GlobalizationTriple(inc)  # constructor accepts it


def test_an_embedding_corestricts_to_an_isomorphism(three_point, two_point):
    inc = inclusion_map(two_point, three_point)
    onto_image = restrict(three_point, inc.mapping.values())
    assert is_isomorphism(ActionMap(two_point, onto_image, inc.mapping))


def test_a_bijection_that_is_not_equivariant_is_not_an_isomorphism(three_point):
    # a cycles the three points, so swapping 1 and 2 commutes with neither a nor a*
    swap = ActionMap(three_point, three_point, {"1": "2", "2": "1", "3": "3"})
    assert sorted(swap.mapping.values()) == sorted(three_point.carrier)
    report = is_action_map(swap)
    assert report.tags() == {"equivariance"}
    assert [v.witness for v in report.violations] == [(s, x) for s in ("a", "a*") for x in ("1", "2", "3")]
    assert not is_isomorphism(swap)


@pytest.mark.parametrize("subject", ["table", "action", "map"])
def test_equality_with_another_type_is_left_to_the_other_operand(subject, three_point):
    x = {"table": catalog_entry("cyclic-2").structure, "action": three_point, "map": identity_map(three_point)}[subject]
    assert x.__eq__(object()) is NotImplemented
    assert x != object()


def test_constant_map_fails_injectivity(two_point):
    const = ActionMap(two_point, two_point, {"1": "1", "2": "1"})
    report = is_embedding(const)
    assert any(v.tag == "injective" for v in report.violations)
    assert not embedding_by_points(const).ok
    assert not is_isomorphism(const)


def test_embedding_routes_agree_on_assorted_maps(three_point, four_point, two_point):
    candidates = [
        identity_map(three_point),
        identity_map(four_point),
        inclusion_map(two_point, three_point),
        ActionMap(two_point, two_point, {"1": "1", "2": "1"}),
        ActionMap(two_point, three_point, {"1": "2", "2": "1"}),
    ]
    for f in candidates:
        assert is_embedding(f).ok == embedding_by_points(f).ok


def test_non_global_target_is_not_a_globalization_triple(four_point):
    report = is_globalization_triple(identity_map(four_point))
    assert any(v.tag == "target-not-global" for v in report.violations)
    with pytest.raises(StructuralError):
        GlobalizationTriple(identity_map(four_point))


def test_a_target_failing_the_axioms_is_reported_with_the_full_scan(four_point_bad_range):
    f = identity_map(four_point_bad_range)
    scan = validate_p_axioms(four_point_bad_range)
    assert not scan.ok
    # the embedding's violations, then the header and every violation of the full scan, in order
    header = Violation("target-invalid", "target fails the partial-action axioms", ())
    assert is_globalization_triple(f).violations == is_embedding(f).violations + (header, *scan.violations)


def test_compose_identity_and_mismatch(two_point, three_point):
    inc = inclusion_map(two_point, three_point)
    assert compose(identity_map(three_point), inc) == inc
    assert compose(inc, identity_map(two_point)) == inc
    assert is_action_map(compose(identity_map(three_point), inc)).ok
    with pytest.raises(StructuralError):
        compose(inc, inc)


def test_composition_of_inclusions_is_the_double_restriction(three_point):
    middle = restrict(three_point, {"1", "2"})
    inner = restrict(middle, {"1"})
    assert inner == restrict(three_point, {"1"})
    once = inclusion_map(inner, middle)
    twice = inclusion_map(middle, three_point)
    assert compose(twice, once) == inclusion_map(inner, three_point)


def test_mediating_composes_with_the_canonical_embedding(three_point, two_point):
    glob = build_globalization(two_point)
    j = inclusion_map(two_point, three_point)
    sigma = mediating(glob, GlobalizationTriple(j))
    assert is_action_map(sigma).ok
    assert compose(sigma, glob.canonical_embedding) == j
    # four classes land on three points, so sigma cannot be injective
    assert not is_isomorphism(sigma)


def test_canonical_embedding_of_a_global_action_is_an_isomorphism(three_point):
    glob = build_globalization(three_point)
    assert len(glob.global_action.carrier) == len(three_point.carrier)
    assert is_isomorphism(glob.canonical_embedding)

import pytest

from isgact import (
    CoverageError,
    PartialAction,
    SemigroupoidTable,
    StructuralError,
    actions,
    infer_inverses,
    is_global,
    restrict,
    validate_e_axioms,
    validate_p_axioms,
)
from isgact.catalog import catalog_entry, four_point_action, three_point_action

from derived_oracle import check_derived_propositions
from dual_route_oracles import is_global_diagnostic


def test_corrected_four_point_action_passes_both_systems(four_point):
    assert validate_p_axioms(four_point).ok
    assert validate_e_axioms(four_point).ok


# semilattice-2 on two points: top fixes both, bot fixes 1
_VALID = {"carrier": ("1", "2"), "dom_of": {"top": {"1", "2"}, "bot": {"1"}}, "theta": {"top": {"1": "1", "2": "2"}, "bot": {"1": "1"}}}


@pytest.mark.parametrize(
    "replaced, message",
    [
        ({"carrier": ("1", "2", "1")}, "duplicate carrier elements"),
        ({"dom_of": {"top": {"1", "2"}}}, "dom_of missing arrows: ['bot']"),
        ({"theta": {"top": {"1": "1", "2": "2"}}}, "theta missing arrows: ['bot']"),
        ({"dom_of": {**_VALID["dom_of"], "ghost": set()}}, "dom_of given for undeclared arrows: ['ghost']"),
        ({"theta": {**_VALID["theta"], "ghost": {}}}, "theta given for undeclared arrows: ['ghost']"),
        ({"dom_of": {**_VALID["dom_of"], "bot": {"1", "9"}}}, "dom_of[bot] leaves the carrier: ['9']"),
        ({"theta": {**_VALID["theta"], "bot": {"1": "9"}}}, "theta[bot] maps '1' to '9' outside the carrier"),
    ],
    ids=["duplicate-carrier", "dom_of-missing", "theta-missing", "dom_of-undeclared", "theta-undeclared", "dom_of-leaves-carrier", "theta-leaves-carrier"],
)
def test_the_action_constructor_names_what_its_input_lacks_or_adds(replaced, message):
    PartialAction(catalog_entry("semilattice-2").structure, **_VALID)  # the valid action the cases change
    with pytest.raises(StructuralError) as err:
        PartialAction(catalog_entry("semilattice-2").structure, **{**_VALID, **replaced})
    assert str(err.value) == message


@pytest.mark.parametrize("subset, message", [({"9"}, "['9']"), ({"1", "x", "9"}, "['9', 'x']")], ids=["one", "two"])
def test_restrict_names_the_subset_points_outside_the_carrier(three_point, subset, message):
    with pytest.raises(StructuralError) as err:
        restrict(three_point, subset)
    assert str(err.value) == f"subset leaves the carrier: {message}"


def test_bad_range_variant_fails_with_a_witness_on_a(four_point_bad_range):
    printed = four_point_bad_range
    report = validate_p_axioms(printed)
    assert not report.ok
    ranges = [v for v in report.violations if v.tag == "theta-range"]
    assert ranges and ranges[0].witness[:2] == ("a", "1")
    assert not validate_e_axioms(printed).ok


def test_three_point_action_is_global(three_point):
    assert validate_p_axioms(three_point).ok
    assert validate_e_axioms(three_point).ok
    assert is_global_diagnostic(three_point)


def test_four_point_action_is_not_global(four_point):
    # dom_of[a] = {4} sits strictly inside dom_of[aa*] = {3, 4}
    assert not is_global_diagnostic(four_point)


def test_the_generator_edges_are_tried_only_on_a_global_action_that_passes_the_linear_checks(monkeypatch, hybrid):
    # edges that all hold already make the action global, so is_global only spares a pass that must fail;
    # fresh actions, since the session fixtures hold the decisions of earlier tests
    three_point, four_point = three_point_action(hybrid), four_point_action(hybrid)
    tried = []
    edges = actions._generator_edges_hold
    monkeypatch.setattr(actions, "_generator_edges_hold", lambda action: tried.append(action) or edges(action))
    swapped = {**three_point.theta, "aa*": {"1": "2", "2": "1", "3": "3"}}  # global, but P1 fails
    not_identity = PartialAction(three_point.semigroupoid, three_point.carrier, three_point.dom_of, swapped)
    assert is_global(not_identity) and not is_global(four_point)
    assert validate_p_axioms(three_point).ok and validate_p_axioms(four_point).ok
    assert "P1" in validate_p_axioms(not_identity).tags()
    # of the inputs, three_point alone; four_point is decided by its construction, whose global output is the one other try
    assert [a for a in tried if any(a is b for b in (three_point, four_point, not_identity))] == [three_point]
    assert len(tried) == 2 and is_global(tried[1])


def test_shrunken_domain_breaks_bijectivity(hybrid, four_point):
    dom_of = dict(four_point.dom_of)
    dom_of["b"] = frozenset({"1"})
    broken = PartialAction(hybrid, four_point.carrier, dom_of, four_point.theta)
    report = validate_e_axioms(broken)
    assert any(v.tag == "E1" and "onto" in v.message and v.witness[0] == "b" for v in report.violations)


def test_point_evaluation(four_point):
    assert four_point.theta["b"]["2"] == "4"
    assert four_point.theta["b*b"]["1"] == "1"
    assert "3" not in four_point.theta["a"]
    assert "9" not in four_point.theta["a"]  # a point outside the carrier


def test_restrict_reproduces_the_two_point_action(three_point):
    restricted = restrict(three_point, {"1", "2"})
    assert restricted.dom_of["a"] == {"2"}
    assert restricted.dom_of["a*"] == {"1"}
    for s in restricted.semigroupoid.arrows:
        if s not in ("a", "a*"):
            assert restricted.dom_of[s] == {"1", "2"}
    assert restricted.theta["a"] == {"1": "2"}
    assert validate_p_axioms(restricted).ok
    # restricting a global action need not stay global
    assert not is_global(restricted)


def test_restrict_to_the_full_carrier_is_the_identity(three_point, four_point):
    assert restrict(three_point, three_point.carrier) == three_point
    assert restrict(four_point, four_point.carrier) == four_point


def test_restrict_output_always_validates(three_point, four_point):
    import itertools

    for action in (three_point, four_point):
        elements = list(action.carrier)
        for r in range(1, len(elements) + 1):
            for subset in itertools.combinations(elements, r):
                out = restrict(action, subset)
                assert validate_p_axioms(out).ok, subset
                assert validate_e_axioms(out).ok, subset


def _uncovered_source():
    lattice = catalog_entry("semilattice-2").structure
    return PartialAction(
        lattice,
        ("1", "2"),
        {"top": {"1"}, "bot": {"1"}},
        {"top": {"1": "1"}, "bot": {"1": "1"}},
    )


def test_restrict_coverage_error_and_trim():
    source = _uncovered_source()   # 2 is covered by no idempotent domain
    with pytest.raises(CoverageError) as err:
        restrict(source, {"1", "2"})
    assert err.value.uncovered == {"2"}
    trimmed = restrict(source, {"1", "2"}, trim=True)
    assert trimmed.carrier == ("1",)
    assert validate_p_axioms(trimmed).ok


def test_derived_propositions_hold_on_the_fixtures(three_point, four_point):
    assert check_derived_propositions(four_point).ok
    assert check_derived_propositions(three_point).ok
    restricted = restrict(three_point, {"1", "2"})
    assert check_derived_propositions(restricted).ok


def test_derived_propositions_hold_vacuously_on_a_one_point_action():
    table = SemigroupoidTable(("o",), ("e",), {"e": "o"}, {"e": "o"}, {("e", "e"): "e"})
    isg = infer_inverses(table)
    tiny = PartialAction(isg, ("x",), {"e": {"x"}}, {"e": {"x": "x"}})
    assert validate_p_axioms(tiny).ok
    assert check_derived_propositions(tiny).ok
    assert is_global(tiny)

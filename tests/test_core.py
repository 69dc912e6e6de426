import pytest

from isgact import core
from isgact import (
    InverseSemigroupoid,
    SemigroupoidTable,
    StructuralError,
    ValidationReport,
    infer_inverses,
    load_structure,
    validate_semigroupoid,
)
from isgact.catalog import (
    _HYBRID_MUL,
    cyclic_group,
    pair_groupoid_2,
    semilattice_2,
    symmetric_inverse_2,
    two_object_hybrid_table,
)

from dual_route_oracles import natural_leq_diagnostic


def one_object_table(arrows, mul):
    return SemigroupoidTable(("o",), arrows, {a: "o" for a in arrows}, {a: "o" for a in arrows}, mul)


def test_hybrid_table_validates():
    assert validate_semigroupoid(two_object_hybrid_table()).ok


def test_trivial_monoid_validates():
    table = one_object_table(("e",), {("e", "e"): "e"})
    assert validate_semigroupoid(table).ok


def test_empty_and_object_only_structures_are_vacuously_fine():
    empty = SemigroupoidTable((), (), {}, {}, {})
    assert validate_semigroupoid(empty).ok
    assert isinstance(infer_inverses(empty), InverseSemigroupoid)
    objects_only = SemigroupoidTable(("u", "v"), (), {}, {}, {})
    assert validate_semigroupoid(objects_only).ok
    assert isinstance(infer_inverses(objects_only), InverseSemigroupoid)


def test_broken_product_is_an_associativity_violation():
    # replacing the square of b spoils (b b) b* against b (b b*)
    mul = dict(_HYBRID_MUL)
    mul[("b", "b")] = "b*b"
    table = two_object_hybrid_table()
    broken = SemigroupoidTable(table.objects, table.arrows,
                               {a: table.dom(a) for a in table.arrows},
                               {a: table.cod(a) for a in table.arrows}, mul)
    report = validate_semigroupoid(broken)
    assert not report.ok
    witnesses = [v.witness for v in report.violations if v.tag == "associativity"]
    assert ("b", "b", "b*") in witnesses
    # the inverse search never runs on a table that fails the axioms
    assert infer_inverses(broken) == report


def test_totality_definedness_and_endpoint_violations():
    table = one_object_table(("e", "f"), {("e", "e"): "e", ("f", "f"): "f", ("e", "f"): "f"})
    report = validate_semigroupoid(table)
    assert report.tags() == {"totality"}
    assert any(v.witness == ("f", "e") for v in report.violations)

    two = SemigroupoidTable(
        ("u", "v"), ("f", "g"),
        {"f": "u", "g": "v"}, {"f": "v", "g": "u"},
        {("f", "g"): "f", ("g", "f"): "g", ("f", "f"): "f"},
    )
    report = validate_semigroupoid(two)
    assert "definedness" in report.tags()   # (f, f) is not composable
    assert "endpoints" in report.tags()     # f g should run v -> v, but f runs u -> v


def test_structural_errors_are_not_axiom_violations():
    with pytest.raises(StructuralError):
        SemigroupoidTable(("o",), ("e",), {"e": "nowhere"}, {"e": "o"}, {})
    with pytest.raises(StructuralError):
        SemigroupoidTable(("o",), ("e",), {"e": "o"}, {"e": "o"}, {("e", "ghost"): "e"})
    with pytest.raises(StructuralError):
        SemigroupoidTable(("o",), ("e", "e"), {"e": "o"}, {"e": "o"}, {})


@pytest.mark.parametrize(
    "objects, dom, cod, message",
    [
        (("o", "o"), {"e": "o"}, {"e": "o"}, "duplicate object names"),
        (("o",), {}, {"e": "o"}, "dom undefined for arrow 'e'"),
        (("o",), {"e": "o"}, {}, "cod undefined for arrow 'e'"),
        (("o",), {"e": "o", "f": "o"}, {"e": "o"}, "dom given for undeclared arrow 'f'"),
        (("o",), {"e": "o"}, {"e": "o", "f": "o"}, "cod given for undeclared arrow 'f'"),
    ],
    ids=["duplicate-objects", "dom-undefined", "cod-undefined", "dom-undeclared", "cod-undeclared"],
)
def test_the_table_constructor_names_what_its_input_lacks_or_adds(objects, dom, cod, message):
    with pytest.raises(StructuralError) as err:
        SemigroupoidTable(objects, ("e",), dom, cod, {("e", "e"): "e"})
    assert str(err.value) == message


def test_infer_inverses_on_the_hybrid_structure(hybrid):
    assert hybrid.inverse_map() == {
        "a": "a*", "a*": "a", "b": "b*", "b*": "b",
        "a*a": "a*a", "aa*": "aa*", "b*b": "b*b", "bb*": "bb*",
    }


def test_infer_inverses_on_a_group_is_the_group_inverse():
    z3 = cyclic_group(3)
    assert z3.inv("g") == "gg" and z3.inv("gg") == "g" and z3.inv("e") == "e"


def test_semilattice_elements_are_self_inverse():
    lattice = semilattice_2()
    assert all(lattice.inv(s) == s for s in lattice.arrows)
    # uniqueness really was exhaustive: no other candidates exist
    bot = lattice.arrows.index("bot")
    assert core._pseudo_inverses(lattice, bot) == [bot]


def test_no_inverse_is_reported():
    # all products collapse to z, so x can never be recovered
    table = one_object_table(("z", "x"), {(s, t): "z" for s in ("z", "x") for t in ("z", "x")})
    result = infer_inverses(table)
    assert isinstance(result, ValidationReport)
    assert any(v.tag == "no-inverse" and v.witness == ("x",) for v in result.violations)
    with pytest.raises(StructuralError) as err:
        InverseSemigroupoid(table)
    assert err.value.report == result


def test_non_unique_inverse_is_reported():
    # right-zero multiplication makes every element a pseudo-inverse of every other
    table = one_object_table(("x", "y"), {(s, t): t for s in ("x", "y") for t in ("x", "y")})
    result = infer_inverses(table)
    assert isinstance(result, ValidationReport)
    assert any(v.tag == "non-unique-inverse" for v in result.violations)


def test_loading_runs_each_check_once(monkeypatch, unshared_fixtures):
    # the inverse search runs on positions, once per arrow
    calls = {"validate_semigroupoid": 0, "_pseudo_inverses": 0}

    def counted(name):
        original = getattr(core, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(core, name, counted(name))
    isg = load_structure(unshared_fixtures / "eight_arrow.isgd")
    assert calls == {"validate_semigroupoid": 1, "_pseudo_inverses": len(isg.arrows)}


def test_a_loaded_structure_is_the_checked_table(fixtures_dir):
    isg = load_structure(fixtures_dir / "eight_arrow.isgd")
    assert isinstance(isg, SemigroupoidTable)


def test_the_checks_read_the_given_table_not_the_structure(monkeypatch):
    # the structure carries cached properties, so the scan must never read it: it reads the table it is given
    table = two_object_hybrid_table()
    scanned = []
    original = core.validate_semigroupoid

    def recorded(raw):
        scanned.append(raw)
        return original(raw)

    monkeypatch.setattr(core, "validate_semigroupoid", recorded)
    isg = InverseSemigroupoid(table)
    assert len(scanned) == 1 and scanned[0] is table
    # the structure takes the checked table's lists as its own
    assert isg._mul is table._mul


def test_a_structure_equals_the_raw_table_with_the_same_products(hybrid):
    table = two_object_hybrid_table()
    assert hybrid == table and table == hybrid
    mul = dict(_HYBRID_MUL)
    mul[("b", "b")] = "b*b"
    changed = SemigroupoidTable(table.objects, table.arrows, {a: table.dom(a) for a in table.arrows},
                                {a: table.cod(a) for a in table.arrows}, mul)
    assert hybrid != changed and changed != hybrid
    assert hybrid != semilattice_2()


def test_idempotents(hybrid):
    assert hybrid.idempotent_set() == {"a*a", "aa*", "b*b", "bb*"}
    assert cyclic_group(3).idempotent_set() == {"e"}
    for s in hybrid.arrows:
        assert hybrid.mul(s, hybrid.inv(s)) in hybrid.idempotent_set()


def test_natural_order_examples(hybrid):
    order = hybrid.strict_order
    assert all(s != t for s, t in order)
    # a*a = (b*b)(bb*) realizes the order against b*b
    assert hybrid.mul("b*b", "bb*") == "a*a"
    assert ("a*a", "b*b") in order
    # a crosses objects while b is a loop, so they are incomparable
    assert ("a", "b") not in order and ("b", "a") not in order


def test_natural_leq_diagnostic_agrees_everywhere(hybrid):
    for s in hybrid.arrows:
        for t in hybrid.arrows:
            diag = natural_leq_diagnostic(hybrid, s, t)
            assert diag.agree, (s, t)
            assert diag.holds == (s == t or (s, t) in hybrid.strict_order)


def is_identity(table: SemigroupoidTable, e: str) -> bool:
    """True when e s = s and t e = t for every composable partner."""
    for s in table.arrows:
        if table.composable(e, s) and table.mul(e, s) != s:
            return False
        if table.composable(s, e) and table.mul(s, e) != s:
            return False
    return True


def test_is_identity():
    hybrid_table = two_object_hybrid_table()
    # aa* is the only loop on the right object and fixes everything it meets
    found = {s for s in hybrid_table.arrows if is_identity(hybrid_table, s)}
    assert found == {"aa*"}
    pairs = pair_groupoid_2()
    assert is_identity(pairs, "pp") and is_identity(pairs, "qq")
    assert not is_identity(pairs, "pq")
    sym2 = symmetric_inverse_2()
    assert is_identity(sym2, "id")
    assert not is_identity(sym2, "z")
    lattice = semilattice_2()
    assert is_identity(lattice, "top")
    assert not is_identity(lattice, "bot")

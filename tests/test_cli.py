import argparse
import json
from pathlib import Path

import pytest

from isgact import actions, cli, core, format_action, globalization, morphisms, parse_action, parse_structure, restrict
from isgact.catalog import _rotations, catalog, partial_bijections, random_partial_action, three_point_action
from isgact.core import ValidationReport, Violation
from isgact.cli import run_cli
from isgact.morphisms import inclusion_map
from isgact.textio import load_action, load_structure

from worked_data import CLASSES_B

GOLDENS = Path(__file__).resolve().parent / "goldens"


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, name, *owners):
    """Route every given module's or class's binding of ``name`` through one shared call log.

    An owner that does not bind ``name`` is skipped, but one of them must:
    a log that nothing can write to would pin nothing.
    """
    calls = []
    bound = [owner for owner in owners if getattr(owner, name, None) is not None]
    assert bound, f"no owner binds {name}"
    for owner in bound:
        original = getattr(owner, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def p_axiom_routes(monkeypatch):
    """A function listing each decision of the composition law, in order, however many validators read it.

    Each decision is its action's carrier with "edges" when the generator
    edges certified the law, "certificate" when the action's construction
    passed its output check, or "scan" when neither did, so that P3 and E2
    scan every pair.
    A decision is listed when it starts, so one made inside another, on the
    output of its construction, comes after it.
    """
    decisions, deciding = [], []  # deciding: the indices of the decisions under way, innermost last
    certified = actions._law_certified

    def decided(action):
        deciding.append(len(decisions))
        decisions.append((action.carrier, "scan"))
        try:
            return certified(action)
        finally:
            deciding.pop()

    def logged(route, decide, settled):
        def run(action):
            outcome = decide(action)
            if deciding and settled(outcome):
                decisions[deciding[-1]] = (action.carrier, route)
            return outcome

        return run

    monkeypatch.setattr(actions, "_law_certified", decided)
    monkeypatch.setattr(actions, "_generator_edges_hold", logged("edges", actions._generator_edges_hold, bool))
    monkeypatch.setattr(globalization, "_construct", logged("certificate", globalization._construct, lambda outcome: not isinstance(outcome, str)))
    return lambda: decisions


def test_validate_structure_and_actions(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "validate",
        str(fixtures_dir / "eight_arrow.isgd"),
        str(fixtures_dir / "four_point.pact"),
        str(fixtures_dir / "three_point_global.pact"),
    )
    assert code == 0
    assert "4 idempotents" in out
    assert out.count("ok") >= 5


def test_validate_flags_the_bad_range_fixture(capsys, fixtures_dir):
    code, out, _ = run(capsys, "validate", str(fixtures_dir / "four_point_bad_range.pact"))
    assert code == 1
    assert "theta-range" in out and "'a', '1'" in out


def test_validate_missing_file_is_an_io_error(capsys, fixtures_dir):
    code, _, err = run(capsys, "validate", str(fixtures_dir / "nope.isgd"))
    assert code == 2
    assert "error" in err


def test_validate_unparseable_file(capsys, tmp_path):
    bad = tmp_path / "bad.isgd"
    bad.write_text("what even\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2


def test_validate_dot_output(capsys, fixtures_dir):
    code, out, _ = run(capsys, "validate", "--dot", str(fixtures_dir / "eight_arrow.isgd"))
    assert code == 0
    assert "digraph structure" in out
    assert '"u" -> "v" [label="a"]' in out


def test_restrict_matches_the_library(capsys, fixtures_dir, three_point):
    code, out, _ = run(
        capsys, "restrict", str(fixtures_dir / "three_point_global.pact"), "--subset", "1,2"
    )
    assert code == 0
    assert out == format_action(restrict(three_point, {"1", "2"}), "eight_arrow.isgd")


@pytest.mark.parametrize("subset, unknown", [("9", "9"), ("1,9,x,9", "9, x")])
def test_restrict_to_unknown_points_is_a_usage_error(capsys, fixtures_dir, subset, unknown):
    code, out, err = run(capsys, "restrict", str(fixtures_dir / "three_point_global.pact"), "--subset", subset)
    assert code == 2
    assert out == ""
    assert err == f"error: --subset names points outside the carrier: {unknown}\n"


def test_globalize_table(capsys, fixtures_dir):
    code, out, _ = run(capsys, "globalize", str(fixtures_dir / "three_point_restricted.pact"))
    assert code == 0
    assert "classes: 4" in out
    assert "embedding:" in out


def test_globalize_json_is_deterministic_and_faithful(capsys, fixtures_dir, hybrid, three_point):
    path = str(fixtures_dir / "three_point_restricted.pact")
    code, out1, _ = run(capsys, "globalize", path, "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "globalize", path, "--format", "json")
    assert out1 == out2
    payload = json.loads(out1)
    assert {c["id"] for c in payload["classes"]} == {0, 1, 2, 3}
    members = {frozenset(map(tuple, c["members"])) for c in payload["classes"]}
    expected = {frozenset(v) for v in CLASSES_B.values()}
    assert members == expected
    assert {f["arrow"] for f in payload["families"]} == set(hybrid.arrows)
    assert all(isinstance(m["pairs"], list) for m in payload["maps"])


def test_globalize_dot(capsys, fixtures_dir):
    code, out, _ = run(capsys, "globalize", str(fixtures_dir / "three_point_restricted.pact"), "--format", "dot")
    assert code == 0
    assert out.startswith("graph quotient {")
    assert "subgraph cluster_3" in out
    assert " -- " in out


def test_mediate_default_and_strict(capsys, fixtures_dir):
    args = (
        "mediate",
        str(fixtures_dir / "three_point_restricted.pact"),
        "--target", str(fixtures_dir / "three_point_global.pact"),
    )
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "sigma:" in out and "fiber injectivity: ok" in out
    code, out_strict, _ = run(capsys, *args, "--strict")
    assert code == 0
    assert out_strict == out


def test_mediate_reports_a_sigma_that_is_not_injective_on_a_fiber_and_strict_refuses_its_map(capsys, tmp_path):
    # pair-groupoid-2 on one point x, with pq and qp on empty domains, into the one-point global action
    code, structure, _ = run(capsys, "catalog", "--entry", "pair-groupoid-2", "--emit-structure")
    assert code == 0
    (tmp_path / "pair.isgd").write_text(structure)
    header, fixed, empty = "structure = pair.isgd\n[carrier] = x\n", "[domain {0}] = x\n[map {0}] = x->x\n", "[domain {0}] =\n[map {0}] =\n"
    arrows = ("pp", "pq", "qp", "qq")
    (tmp_path / "point.pact").write_text(header + "".join((empty if a in ("pq", "qp") else fixed).format(a) for a in arrows))
    (tmp_path / "global.pact").write_text(header + "".join(fixed.format(a) for a in arrows))
    args = ("mediate", str(tmp_path / "point.pact"), "--target", str(tmp_path / "global.pact"))
    code, out, err = run(capsys, *args)
    assert (code, err) == (1, "")
    assert out == (
        "sigma: 0 -> x, 1 -> x, 2 -> x\n"
        "fiber injectivity: FAIL (2 violation(s))\n"
        "  [fiber-injectivity] classes 0 and 1 in the fiber of p share the value x  witness=('p', 0, 1, 'x')\n"
        "  [fiber-injectivity] classes 0 and 2 in the fiber of q share the value x  witness=('q', 0, 2, 'x')\n"
    )
    code, out, err = run(capsys, *args, "--strict")
    assert (code, out) == (1, "")
    assert err == (
        "error: not a globalization triple:\n"
        "FAIL (2 violation(s))\n"
        "  [embedding-domain] preimage equation for arrow pq fails at x  witness=('pq', 'x')\n"
        "  [embedding-domain] preimage equation for arrow qp fails at x  witness=('qp', 'x')\n"
    )


def test_mediate_with_an_explicit_embedding(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "mediate",
        str(fixtures_dir / "three_point_restricted.pact"),
        "--target", str(fixtures_dir / "three_point_global.pact"),
        "--embedding", "1->1,2->2",
    )
    assert code == 0
    assert "fiber injectivity: ok" in out


def test_mediate_refuses_a_target_that_is_not_global_with_its_report(capsys, fixtures_dir):
    source, target = fixtures_dir / "three_point_restricted.pact", fixtures_dir / "four_point.pact"
    code, out, err = run(capsys, "mediate", str(source), "--target", str(target))
    assert (code, out) == (1, "")
    action, target_action = load_action(source)[0], load_action(target)[0]
    j = morphisms.ActionMap(action, target_action, {x: x for x in action.carrier})
    not_global = Violation("target-not-global", "target action is not global", ())
    report = ValidationReport(morphisms.is_action_map(j).violations + (not_global,))
    assert err == "error: mediating requires an action map into a valid global action:\n" + report.render() + "\n"


def test_mediate_refuses_an_input_failing_the_axioms_by_its_report_with_or_without_strict(capsys, fixtures_dir):
    # the input is judged before the target triple, so --strict does not report the map instead
    source, target = fixtures_dir / "four_point_bad_range.pact", fixtures_dir / "four_point.pact"
    report = actions.validate_p_axioms(load_action(source)[0])
    assert len(report.violations) == 24
    for strict in ((), ("--strict",)):
        code, out, err = run(capsys, "mediate", str(source), "--target", str(target), *strict)
        assert (code, out) == (1, "")
        assert err == "error: input fails the partial-action axioms:\n" + report.render() + "\n"


@pytest.mark.parametrize(
    "command",
    [("globalize",), ("mediate", "--target", "three_point_global.pact"), ("mediate", "--target", "three_point_global.pact", "--strict")],
    ids=["globalize", "mediate", "mediate-strict"],
)
def test_an_input_failing_p3_alone_is_refused_by_its_own_report(capsys, fixtures_dir, command):
    # it passes the linear checks, so only the output check stands between it and an output
    source = fixtures_dir / "three_point_swapped.pact"
    action = load_action(source)[0]
    assert actions._linear_violations(action) == []
    report = actions.validate_p_axioms(action)
    assert len(report.violations) == 24 and report.tags() == {"P3-domain", "P3-value"}
    name, *rest = command
    argv = [str(fixtures_dir / a) if a.endswith(".pact") else a for a in rest]
    code, out, err = run(capsys, name, str(source), *argv)
    assert (code, out) == (1, "")
    assert err == "error: input fails the partial-action axioms:\n" + report.render() + "\n"
    assert err == (GOLDENS / "three_point_swapped.err").read_text()


def test_mediate_refuses_a_plain_map_that_is_not_an_action_map_with_its_witnesses(capsys, fixtures_dir):
    args = (
        "mediate",
        str(fixtures_dir / "three_point_restricted.pact"),
        "--target", str(fixtures_dir / "three_point_global.pact"),
        "--embedding", "1->1,2->1",
    )
    code, out, err = run(capsys, *args)
    assert (code, out) == (1, "")
    code_strict, out_strict, err_strict = run(capsys, *args, "--strict")
    assert (code_strict, out_strict) == (1, "")
    equivariance = [line for line in err.splitlines() if line.startswith("  [equivariance]")]
    assert len(equivariance) == 2
    assert equivariance == [line for line in err_strict.splitlines() if line.startswith("  [equivariance]")]
    assert err.startswith("error: mediating requires an action map into a valid global action:\nFAIL (2 violation(s))\n")


def test_check_passes_on_the_four_point_fixture(capsys, fixtures_dir):
    code, out, _ = run(capsys, "check", str(fixtures_dir / "four_point.pact"))
    assert code == 0
    assert out == "definitional axioms: ok\nbijection axioms: ok\nequivalence audit: agree\n"


def test_check_has_no_props_option(capsys, fixtures_dir):
    # the derived propositions are a test oracle (tests/derived_oracle.py), not a check option
    with pytest.raises(SystemExit) as exit_:
        run_cli(["check", str(fixtures_dir / "four_point.pact"), "--props"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --props" in captured.err


def test_check_fails_on_the_bad_fixture(capsys, fixtures_dir):
    code, out, _ = run(capsys, "check", str(fixtures_dir / "four_point_bad_range.pact"))
    assert code == 1


def test_check_reports_an_order_domain_violation_under_e3_only(capsys, tmp_path, fixtures_dir):
    # a*a lies below b, b*, b*b and bb*, so a*a's extra point 3 breaks E3 against all four
    (tmp_path / "eight_arrow.isgd").write_text((fixtures_dir / "eight_arrow.isgd").read_text())
    text = (fixtures_dir / "four_point.pact").read_text()
    text = text.replace("[domain a*a] = 1\n", "[domain a*a] = 1 3\n").replace("[map a*a] = 1->1\n", "[map a*a] = 1->1 3->3\n")
    path = tmp_path / "bad_e3.pact"
    path.write_text(text)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    e3 = [line for line in out.splitlines() if line.startswith("  [E3]")]
    assert [line.split("witness=")[1] for line in e3] == [
        "('a*a', 'b', '3')", "('a*a', 'b*', '3')", "('a*a', 'b*b', '3')", "('a*a', 'bb*', '3')",
    ]
    assert "[order-domain]" not in out


def test_catalog_listing_and_emission(capsys, hybrid):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "two-object-hybrid" in out and "three-point(global)" in out

    code, out, _ = run(capsys, "catalog", "--entry", "two-object-hybrid", "--emit-structure")
    assert code == 0
    assert parse_structure(out).table == hybrid

    code, out, _ = run(capsys, "catalog", "--entry", "two-object-hybrid", "--action", "1", "--seed", "0")
    assert code == 0
    assert parse_action(out, hybrid) == restrict(three_point_action(hybrid), {"1", "2"})


def test_catalog_unknown_entry(capsys):
    code, _, err = run(capsys, "catalog", "--entry", "nope")
    assert code == 2
    assert err == "error: unknown catalog entry nope\n"


def test_catalog_without_an_action_index(capsys):
    code, _, err = run(capsys, "catalog", "--entry", "two-object-hybrid")
    assert code == 2
    assert err == "error: --action is required unless --emit-structure is given\n"


@pytest.mark.parametrize("index", ["5", "0", "-1"])
def test_catalog_rejects_an_index_that_is_not_a_global_action(capsys, index):
    code, out, err = run(capsys, "catalog", "--entry", "two-object-hybrid", "--action", index)
    assert code == 2
    assert out == ""
    assert err == f"error: --action {index} is not a global action of two-object-hybrid; valid indices: 1\n"


def test_validate_unknown_extension(capsys, fixtures_dir):
    code, _, err = run(capsys, "validate", str(fixtures_dir.parent / "README.md"))
    assert code == 2
    assert err == f"error: unknown file extension: {fixtures_dir.parent / 'README.md'}\n"


def test_mediate_embedding_syntax_error(capsys, fixtures_dir):
    code, _, err = run(
        capsys,
        "mediate",
        str(fixtures_dir / "three_point_restricted.pact"),
        "--target", str(fixtures_dir / "three_point_global.pact"),
        "--embedding", "1-2",
    )
    assert code == 2
    assert err == "error: --embedding entry 1-2 must read x->y\n"


def test_mediate_with_a_partial_embedding_names_the_unmapped_points(capsys, fixtures_dir):
    code, _, err = run(
        capsys,
        "mediate",
        str(fixtures_dir / "three_point_restricted.pact"),
        "--target", str(fixtures_dir / "three_point_global.pact"),
        "--embedding", "1->2",
    )
    assert code == 2
    assert err == "error: --embedding gives no image for: 2\n"


def test_mediate_with_an_embedding_of_unknown_points(capsys, fixtures_dir):
    code, out, err = run(
        capsys,
        "mediate",
        str(fixtures_dir / "three_point_restricted.pact"),
        "--target", str(fixtures_dir / "three_point_global.pact"),
        "--embedding", "1->1,2->2,9->3",
    )
    assert code == 2
    assert out == ""
    assert err == "error: --embedding maps points outside the carrier: 9\n"


@pytest.mark.parametrize(
    "embedding, message",
    [
        ("1->9,2->2", "--embedding maps to points outside the target carrier: 9"),
        ("1->,2->2", "--embedding entry 1-> must read x->y"),
        ("1->1->2,2->2", "--embedding entry 1->1->2 must read x->y"),
        ("", "--embedding gives no image for: 1, 2"),
    ],
    ids=["image-outside-the-target", "empty-image", "two-arrows", "empty"],
)
def test_mediate_with_a_malformed_embedding_or_images_outside_the_target(capsys, fixtures_dir, embedding, message):
    code, out, err = run(
        capsys,
        "mediate",
        str(fixtures_dir / "three_point_restricted.pact"),
        "--target", str(fixtures_dir / "three_point_global.pact"),
        "--embedding", embedding,
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_mediate_with_a_default_embedding_that_leaves_the_target(capsys, fixtures_dir):
    # without --embedding the map is x->x, checked like a given one: a usage error naming the points
    code, out, err = run(
        capsys,
        "mediate",
        str(fixtures_dir / "four_point.pact"),
        "--target", str(fixtures_dir / "three_point_global.pact"),
    )
    assert code == 2
    assert out == ""
    assert err == "error: the default embedding x->x maps to points outside the target carrier: 4\n"


def test_mediate_with_an_embedding_that_maps_a_point_twice(capsys, fixtures_dir):
    code, out, err = run(
        capsys,
        "mediate",
        str(fixtures_dir / "three_point_restricted.pact"),
        "--target", str(fixtures_dir / "three_point_global.pact"),
        "--embedding", "1->3,1->1,2->2",
    )
    assert code == 2
    assert out == ""
    assert err == "error: --embedding maps 1 more than once\n"


@pytest.mark.parametrize(
    "name, command",
    [
        ("bad.isgd", ["validate"]),
        ("bad.pact", ["validate"]),
        ("bad.pact", ["restrict", "--subset", "1"]),
        ("bad.pact", ["globalize"]),
        ("bad.pact", ["mediate", "--target", "three_point_global.pact"]),
        ("bad.pact", ["check"]),
    ],
    ids=["validate-isgd", "validate-pact", "restrict", "globalize", "mediate", "check"],
)
def test_a_file_that_is_not_utf8_is_one_error_line(capsys, tmp_path, fixtures_dir, name, command):
    bad = tmp_path / name
    bad.write_bytes(b"[objects]\n\xff\xfe\n")
    argv = [command[0], str(bad)] + [str(fixtures_dir / a) if a.endswith(".pact") else a for a in command[1:]]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: line 2, col 1: not UTF-8 text (byte 0xff)\n"


def test_a_leading_byte_order_mark_is_dropped(capsys, tmp_path, fixtures_dir):
    bom = b"\xef\xbb\xbf"
    for name in ("eight_arrow.isgd", "four_point.pact"):
        (tmp_path / name).write_bytes(bom + (fixtures_dir / name).read_bytes())
    code, out, err = run(capsys, "validate", str(tmp_path / "eight_arrow.isgd"))
    assert (code, err) == (0, "")
    assert out == f"{tmp_path / 'eight_arrow.isgd'}: ok (inverse semigroupoid, 8 arrows, 4 idempotents)\n"
    code, out, err = run(capsys, "validate", str(tmp_path / "four_point.pact"))
    assert (code, err) == (0, "")
    assert out.splitlines()[-2:] == [f"{tmp_path / 'four_point.pact'} [{axioms} axioms]: ok" for axioms in ("definitional", "bijection")]


@pytest.mark.parametrize(
    "data, line, col",
    [(b"[objects]\n\xff\n", 2, 1), (b"[obj\xff", 1, 8)],
    ids=["second-line", "first-line"],
)
def test_a_byte_that_is_not_utf8_after_a_byte_order_mark_is_placed_by_file_bytes(capsys, tmp_path, data, line, col):
    bad = tmp_path / "bad.isgd"
    bad.write_bytes(b"\xef\xbb\xbf" + data)
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: line {line}, col {col}: not UTF-8 text (byte 0xff)\n"


@pytest.mark.parametrize(
    "name, line, text, error",
    [
        ("eight_arrow.isgd", 4, "v  u", "line 4, col 4: duplicate object u"),
        ("eight_arrow.isgd", 59, "a = a* a", "line 59, col 1: inverse line must read: s = t"),
        ("eight_arrow.isgd", 59, "a = zz", "line 59, col 5: unknown arrow zz"),
        ("eight_arrow.isgd", 60, "a = a", "line 60, col 1: duplicate inverse for a"),
        ("three_point_restricted.pact", 4, "[carrier] = 1 2 1", "line 4, col 1: duplicate carrier element 1"),
        # no [map s] entry could name it: x->y splits at the first ->
        ("three_point_restricted.pact", 4, "[carrier] = 1 2 3->1", "line 4, col 17: carrier element 3->1 contains '->', so no map entry can name it"),
        ("three_point_restricted.pact", 5, "[range a] = 2", "line 5, col 1: unknown section [range a]"),
        ("three_point_restricted.pact", 4, "", "line 5, col 1: [carrier] must come before domain and map sections"),
    ],
    ids=["duplicate-object", "inverse-shape", "inverse-unknown-arrow", "duplicate-inverse",
         "duplicate-carrier-element", "carrier-element-with-arrow", "unknown-action-section", "carrier-after-domain"],
)
def test_a_parse_error_is_one_positioned_error_line(capsys, tmp_path, fixtures_dir, name, line, text, error):
    for fixture in ("eight_arrow.isgd", "three_point_restricted.pact"):
        lines = (fixtures_dir / fixture).read_text().splitlines()
        if fixture == name:
            lines[line - 1] = text
        (tmp_path / fixture).write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "validate", str(tmp_path / name))
    assert code == 2
    assert out == ""
    assert err == f"error: {tmp_path / name}: {error}\n"


def test_an_action_file_holding_only_its_header_misses_its_carrier_section(capsys, tmp_path, fixtures_dir):
    (tmp_path / "eight_arrow.isgd").write_text((fixtures_dir / "eight_arrow.isgd").read_text())
    path = tmp_path / "header.pact"
    path.write_text("structure = eight_arrow.isgd\n")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: line 1, col 1: missing [carrier] section\n"


def test_an_action_file_with_a_second_carrier_section_is_refused_at_it(capsys, tmp_path, fixtures_dir):
    (tmp_path / "eight_arrow.isgd").write_text((fixtures_dir / "eight_arrow.isgd").read_text())
    path = tmp_path / "twice.pact"
    path.write_text("structure = eight_arrow.isgd\n[carrier] = 1 2\n[carrier] = 1 2\n")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: line 3, col 1: duplicate [carrier] section\n"


def test_a_parse_error_in_a_referenced_structure_names_the_structure_file(capsys, tmp_path, fixtures_dir):
    lines = (fixtures_dir / "eight_arrow.isgd").read_text().splitlines()
    lines[6] = "a : u -> w"
    (tmp_path / "eight_arrow.isgd").write_text("\n".join(lines) + "\n")
    (tmp_path / "four_point.pact").write_text((fixtures_dir / "four_point.pact").read_text())
    for argv in (["validate"], ["globalize"], ["mediate", "--target", str(tmp_path / "four_point.pact")]):
        code, out, err = run(capsys, argv[0], str(tmp_path / "four_point.pact"), *argv[1:])
        assert (code, out) == (2, "")
        assert err == f"error: {tmp_path / 'eight_arrow.isgd'}: line 7, col 10: unknown object w\n"


def test_an_action_file_referencing_an_action_file_names_the_referenced_file(capsys, tmp_path, fixtures_dir):
    (tmp_path / "inner.pact").write_text((fixtures_dir / "four_point.pact").read_text())
    (tmp_path / "outer.pact").write_text("structure = inner.pact\n")
    code, out, err = run(capsys, "validate", str(tmp_path / "outer.pact"))
    assert (code, out) == (2, "")
    assert err == f"error: {tmp_path / 'inner.pact'}: line 2, col 1: content before any section header\n"


def test_a_partial_inverse_section_names_each_arrow_without_a_declared_inverse(capsys, tmp_path, fixtures_dir):
    text = (fixtures_dir / "eight_arrow.isgd").read_text()
    path = tmp_path / "partial.isgd"
    path.write_text(text[: text.index("[inverse]")] + "[inverse]\na = a*\n")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    inverse = {"a*": "a", "a*a": "a*a", "aa*": "aa*", "b": "b*", "b*": "b", "b*b": "b*b", "bb*": "bb*"}
    assert out.splitlines() == [f"{path}: FAIL (7 violation(s))"] + [
        f"  [declared-inverse] no inverse is declared for {s} but the unique pseudo-inverse is {t}  witness=('{s}',)"
        for s, t in inverse.items()
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "eight_arrow.isgd", "four_point.pact", "three_point_global.pact"],
        ["mediate", "three_point_restricted.pact", "--target", "three_point_global.pact"],
    ],
    ids=["validate", "mediate"],
)
def test_each_structure_file_is_validated_once_per_command(capsys, monkeypatch, unshared_fixtures, argv):
    calls = []
    original = core.validate_semigroupoid

    def counted(table):
        calls.append(table)
        return original(table)

    monkeypatch.setattr(core, "validate_semigroupoid", counted)
    argv = [str(unshared_fixtures / a) if a.endswith((".isgd", ".pact")) else a for a in argv]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


def test_a_rewritten_structure_file_is_read_again(capsys, tmp_path, fixtures_dir):
    # structures are shared by their bytes while something holds them, so a file rewritten since is read
    # again even while the structure of its old text is alive
    path = tmp_path / "s.isgd"
    path.write_text((fixtures_dir / "eight_arrow.isgd").read_text())
    _, first, _ = run(capsys, "validate", str(path))
    held = load_structure(path)
    path.write_text("[objects]\no\n[arrows]\ne : o -> o\n[mul]\ne e = e\n")
    _, second, _ = run(capsys, "validate", str(path))
    assert "8 arrows" in first and "1 arrows" in second
    assert len(held.arrows) == 8 and len(load_structure(path).arrows) == 1


def test_restrict_reads_each_input_file_once(capsys, monkeypatch, fixtures_dir):
    reads = []
    for name in ("read_bytes", "read_text"):
        original = getattr(Path, name)

        def counted(self, *args, _original=original, **kwargs):
            reads.append(self.resolve())
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Path, name, counted)
    code, _, _ = run(capsys, "restrict", str(fixtures_dir / "three_point_global.pact"), "--subset", "1,2")
    assert code == 0
    assert sorted(p.name for p in reads) == ["eight_arrow.isgd", "three_point_global.pact"]


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "eight_arrow.isgd", "four_point.pact"],
        ["globalize", "three_point_restricted.pact"],
        ["check", "four_point.pact"],
    ],
    ids=["validate", "globalize", "check"],
)
def test_no_command_lists_the_composable_pairs(capsys, monkeypatch, unshared_fixtures, argv):
    # validate and check walk each arrow's right partners from the per-object index, and globalize's
    # output check walks the generators' columns of the product table, so none builds the pair list;
    # the structure is one that no other load holds, so the command parses and scans it
    calls = count_calls(monkeypatch, "_composable", core.SemigroupoidTable)
    argv = [str(unshared_fixtures / a) if a.endswith((".isgd", ".pact")) else a for a in argv]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert calls == []


def pair_groupoid_table(k):
    """P_k: one arrow c_j -> c_i for every pair (i, j), composing as (i, j)(j, l) = (i, l)."""
    objects = tuple(f"c{i}" for i in range(k))
    ends = {f"p{i}{j}": (i, j) for i in range(k) for j in range(k)}
    dom = {a: objects[j] for a, (i, j) in ends.items()}
    cod = {a: objects[i] for a, (i, j) in ends.items()}
    mul = {(s, t): f"p{i}{ends[t][1]}" for s, (i, j) in ends.items() for t in ends if ends[t][0] == j}
    return core.SemigroupoidTable(objects, ends, dom, cod, mul)


@pytest.mark.parametrize("structure", ["P_3", "eight_arrow.isgd"])
def test_the_axiom_scan_asks_no_composability_question(monkeypatch, fixtures_dir, structure):
    # the associativity scan walks each arrow's right partners from the per-object index; it reads
    # p s and s t once per composable pair, takes (p s) t from the row of p s, and reads p (s t) per
    # composable triple
    if structure == "P_3":
        table = pair_groupoid_table(3)
    else:
        table = parse_structure((fixtures_dir / structure).read_text()).table
    pairs = len(table._composable())
    triples = sum(len(table._into[table._dom[s]]) for _, s in table._composable())
    reads = count_calls(monkeypatch, "mul", core.SemigroupoidTable)
    assert core.validate_semigroupoid(table).ok
    assert len(reads) == 2 * pairs + triples


def test_check_decides_each_natural_order_pair_once(capsys, monkeypatch, unshared_fixtures):
    # E3 reads the strict order, decided on the integer table over the pairs of parallel arrows, listed once
    calls = count_calls(monkeypatch, "_parallel", core.SemigroupoidTable)
    code, _, _ = run(capsys, "check", str(unshared_fixtures / "four_point.pact"))
    assert code == 0
    assert len(calls) == 1


def test_globalize_dot_enumerates_the_relation_only_for_the_edge_list(capsys, monkeypatch, fixtures_dir):
    calls = count_calls(monkeypatch, "_related_pairs", globalization)
    code, out, _ = run(capsys, "globalize", str(fixtures_dir / "three_point_restricted.pact"), "--format", "dot")
    assert code == 0
    assert " -- " in out
    assert len(calls) == 1


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_globalize_table_and_json_never_enumerate_the_relation(capsys, monkeypatch, fixtures_dir, fmt):
    # the construction closes by congruence along the generators; only the DOT edge list asks for the relation
    calls = count_calls(monkeypatch, "_related_pairs", globalization)
    assert run(capsys, "globalize", str(fixtures_dir / "three_point_restricted.pact"), "--format", fmt)[0] == 0
    assert calls == []


def test_the_construction_never_enumerates_the_relation(monkeypatch, fixtures_dir):
    calls = count_calls(monkeypatch, "_related_pairs", globalization)
    for name in ("three_point_restricted.pact", "four_point.pact"):
        action, _ = load_action(fixtures_dir / name)
        globalization.build_globalization(action)
    assert calls == []


def _no_name_view(*args):
    raise AssertionError("an arrow name view was read below the I/O boundary")


def _audited(action, j):
    """Every scan, audit and globalize writer on an action and a map j into a global action, as text."""
    glob = globalization.build_globalization(action)
    sigma = globalization.mediating(glob, morphisms.GlobalizationTriple(j))
    reports = (
        actions.validate_p_axioms(action),
        actions.validate_e_axioms(action),
        globalization.verify_universal(glob, j, sigma),
        globalization.check_fiber_injectivity(sigma, glob),
    )
    writers = (cli._globalization_table, cli._globalization_json, cli._quotient_dot)
    return [r.render() for r in reports] + [repr(sorted(sigma.mapping.items()))] + [w(glob) for w in writers]


def test_the_scans_audits_and_writers_read_arrows_by_position(monkeypatch, fixtures_dir):
    # names stay at the I/O boundary: with every arrow name view of the structure broken, nothing changes
    restricted, _ = load_action(fixtures_dir / "three_point_restricted.pact")
    three, _ = load_action(fixtures_dir / "three_point_global.pact")
    four, _ = load_action(fixtures_dir / "four_point.pact")
    cases = [(restricted, inclusion_map(restricted, three)), (four, globalization.build_globalization(four).canonical_embedding)]
    for entry in catalog():
        for i, ca in enumerate(entry.actions):
            if ca.global_tag:
                for seed in range(3):
                    sub = random_partial_action(entry, i, seed)
                    cases.append((sub, inclusion_map(sub, ca.action)))
    expected = [_audited(action, j) for action, j in cases]
    for view in ("inv", "inverse_map", "idempotent_set"):
        monkeypatch.setattr(core.InverseSemigroupoid, view, _no_name_view)
    monkeypatch.setattr(core.InverseSemigroupoid, "strict_order", property(_no_name_view))
    assert [_audited(action, j) for action, j in cases] == expected
    with pytest.raises(AssertionError, match="name view"):
        core.InverseSemigroupoid.inverse_map(cases[0][0].semigroupoid)


@pytest.mark.parametrize("fmt", ["table", "json", "dot"])
def test_globalize_and_mediate_read_no_name_view(capsys, monkeypatch, fixtures_dir, fmt):
    # the scans, the construction and the renderers read rows; theta and dom_of are for the API
    reads = []
    for view in ("theta", "dom_of"):
        original = getattr(actions.PartialAction, view)
        monkeypatch.setattr(actions.PartialAction, view, property(lambda a, _f=original.func: reads.append(a) or _f(a)))
    restricted, target = fixtures_dir / "three_point_restricted.pact", fixtures_dir / "three_point_global.pact"
    assert run(capsys, "globalize", str(restricted), "--format", fmt)[0] == 0
    assert run(capsys, "mediate", str(restricted), "--target", str(target), "--strict")[0] == 0
    assert reads == []


@pytest.mark.parametrize("command", ["validate", "check"])
def test_p_then_e_decide_the_linear_checks_and_the_composition_law_once(capsys, monkeypatch, fixtures_dir, command):
    # the swapped fixture passes the linear checks and leaves pairs for both P3 and E2
    linear = count_calls(monkeypatch, "_linear_violations", actions)
    certified = count_calls(monkeypatch, "_law_certified", actions)
    code, out, _ = run(capsys, command, str(fixtures_dir / "three_point_swapped.pact"))
    assert code == 1
    assert out.count("\n  [P3") == 24 and out.count("\n  [E2]") == 20
    # the input once each; the certificate's attempt judges its one-class output once each too, and fails
    assert [a.carrier for a, in linear] == [a.carrier for a, in certified] == [("1", "2"), (0,)]


@pytest.mark.parametrize("command", ["validate", "check"])
def test_validate_and_check_decide_a_valid_partial_action_by_its_certificate_and_scan_nothing(capsys, monkeypatch, fixtures_dir, command):
    # the restricted fixture is not global: its construction passes the output check, whose output is decided along its edges
    routes = p_axiom_routes(monkeypatch)
    code, out, _ = run(capsys, command, str(fixtures_dir / "three_point_restricted.pact"))
    assert code == 0 and "FAIL" not in out
    assert routes() == [(("1", "2"), "certificate"), ((0, 1, 2, 3), "edges")]


def test_globalize_runs_the_linear_checks_once_on_an_input_it_refuses_for_them(capsys, monkeypatch, fixtures_dir):
    # the refusal's report reads the linear checks the construction's first test found
    linear = count_calls(monkeypatch, "_linear_violations", actions, globalization)
    code, out, err = run(capsys, "globalize", str(fixtures_dir / "four_point_bad_range.pact"))
    assert (code, out) == (1, "")
    assert "[theta-range]" in err
    assert len(linear) == 1


def test_globalize_json_and_mediate_build_no_seed_view(capsys, monkeypatch, fixtures_dir):
    # the construction, the JSON writer and mediating read the seed index and the class labels
    reads = []
    for view in ("seeds", "classes", "edges"):
        original = getattr(globalization.Quotient, view)
        monkeypatch.setattr(globalization.Quotient, view, property(lambda q, _f=original.func: reads.append(q) or _f(q)))
    restricted, target = fixtures_dir / "three_point_restricted.pact", fixtures_dir / "three_point_global.pact"
    assert run(capsys, "globalize", str(restricted), "--format", "json")[0] == 0
    for strict in ((), ("--strict",)):
        assert run(capsys, "mediate", str(restricted), "--target", str(target), *strict)[0] == 0
    assert reads == []
    # the table lists each class's seeds, so it does build the views
    assert run(capsys, "globalize", str(restricted), "--format", "table")[0] == 0
    assert reads


def test_globalize_runs_no_full_p_scan_on_a_valid_input(capsys, monkeypatch, fixtures_dir):
    # the input passes the linear checks and the output check certifies P3; the output is decided along generator edges
    routes = p_axiom_routes(monkeypatch)
    code, _, _ = run(capsys, "globalize", str(fixtures_dir / "three_point_restricted.pact"))
    assert code == 0
    assert routes() == [((0, 1, 2, 3), "edges")]


def test_globalize_scans_an_input_failing_p3_alone_once_to_write_its_refusal(capsys, monkeypatch, fixtures_dir):
    # the construction runs and its one-class output is decided along generator edges; the embedding
    # fails the output check, and only then is the input decided, once: its certificate is the construction
    # again, whose output is decided along its edges again, and fails, so the rows are scanned
    routes = p_axiom_routes(monkeypatch)
    code, _, _ = run(capsys, "globalize", str(fixtures_dir / "three_point_swapped.pact"))
    assert code == 1
    assert routes() == [((0,), "edges"), (("1", "2"), "scan"), ((0,), "edges")]


@pytest.mark.parametrize("strict", [(), ("--strict",)], ids=["plain", "strict"])
def test_mediate_runs_no_full_p_scan_on_a_valid_input(capsys, monkeypatch, fixtures_dir, strict):
    # the output check certifies the input; the output and the global target are decided along generator edges
    routes = p_axiom_routes(monkeypatch)
    code, out, _ = run(
        capsys,
        "mediate",
        str(fixtures_dir / "three_point_restricted.pact"),
        "--target",
        str(fixtures_dir / "three_point_global.pact"),
        *strict,
    )
    assert code == 0 and out.startswith("sigma: ")
    assert routes() == [((0, 1, 2, 3), "edges"), (("1", "2", "3"), "edges")]


@pytest.mark.parametrize("wrap", [False, True], ids=["action-map", "triple"])
def test_the_universal_property_chain_runs_no_full_p_scan_on_a_valid_input(monkeypatch, hybrid, wrap):
    routes = p_axiom_routes(monkeypatch)
    base = three_point_action(hybrid)
    action = restrict(base, {"1", "2"})
    glob = globalization.build_globalization(action)
    j = morphisms.inclusion_map(action, base)
    target = morphisms.GlobalizationTriple(j) if wrap else j
    sigma = globalization.mediating(glob, target)
    assert globalization.verify_universal(glob, target, sigma).ok
    # the target once, when the triple is built, or when mediating first judges the plain map the audit takes again
    assert routes() == [(glob.global_action.carrier, "edges"), (base.carrier, "edges")]


@pytest.mark.parametrize("n", [6, 7])
def test_the_uniqueness_audit_checks_one_candidate_on_a_true_globalization(monkeypatch, n):
    # one-point restriction of Z_n's regular action: n classes, n^(n-1) maps agree with the embedding
    _, base = partial_bijections(*_rotations(n))
    action = restrict(base, {base.carrier[0]})
    glob = globalization.build_globalization(action)
    triple = morphisms.GlobalizationTriple(morphisms.inclusion_map(action, base))
    sigma = globalization.mediating(glob, triple)
    calls = count_calls(monkeypatch, "is_action_map", globalization)
    assert globalization.verify_universal(glob, triple, sigma).ok
    # sigma itself only: the one forced candidate is sigma, so sigma's report decides it
    assert [f.source for f, in calls] == [glob.global_action]
    # a perturbed sigma differs from the forced candidate, which is then checked on its own
    c = glob.canonical_embedding(base.carrier[0])
    mapping = {**sigma.mapping, c: base.carrier[1]}
    calls.clear()
    assert "commutes" in globalization.verify_universal(glob, triple, morphisms.ActionMap(glob.global_action, base, mapping)).tags()
    assert [f.source for f, in calls] == [glob.global_action] * 2


def test_run_cli_builds_the_argument_parser_once(capsys, monkeypatch, fixtures_dir):
    calls = count_calls(monkeypatch, "__init__", argparse.ArgumentParser)
    for _ in range(2):
        code, _, _ = run(capsys, "validate", str(fixtures_dir / "eight_arrow.isgd"))
        assert code == 0
    # the program parser and its six subcommand parsers, at most once
    assert len(calls) <= 7


@pytest.mark.parametrize("argv", [("--emit-structure",), ("--action", "0", "--seed", "3")], ids=["emit", "action"])
def test_catalog_entry_builds_that_entry_alone(capsys, monkeypatch, argv):
    calls = count_calls(monkeypatch, "__init__", core.InverseSemigroupoid)
    code, _, _ = run(capsys, "catalog", "--entry", "cyclic-2", *argv)
    assert code == 0
    assert len(calls) == 1

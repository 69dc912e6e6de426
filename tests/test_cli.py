import argparse
import json
from pathlib import Path

import pytest

from isgact import actions, cli, core, format_action, globalization, morphisms, parse_action, parse_structure, restrict
from isgact.catalog import _rotations, catalog, partial_bijections, random_partial_action, three_point_action
from isgact.cli import run_cli
from isgact.morphisms import inclusion_map
from isgact.textio import load_action

from worked_data import CLASSES_B


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, name, *owners):
    """Route every given module's or class's binding of ``name`` through one shared call log."""
    calls = []
    for owner in owners:
        original = getattr(owner, name, None)
        if original is None:
            continue

        def counted(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


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


def test_check_with_props(capsys, fixtures_dir):
    code, out, _ = run(capsys, "check", str(fixtures_dir / "four_point.pact"), "--props")
    assert code == 0
    assert "equivalence audit: agree" in out
    assert "derived propositions: ok" in out


def test_check_fails_on_the_bad_fixture(capsys, fixtures_dir):
    code, out, _ = run(capsys, "check", str(fixtures_dir / "four_point_bad_range.pact"))
    assert code == 1


def test_check_props_reports_an_order_domain_violation_under_e3_only(capsys, tmp_path, fixtures_dir):
    # a*a lies below b, b*, b*b and bb*, so a*a's extra point 3 breaks E3 against all four
    (tmp_path / "eight_arrow.isgd").write_text((fixtures_dir / "eight_arrow.isgd").read_text())
    text = (fixtures_dir / "four_point.pact").read_text()
    text = text.replace("[domain a*a] = 1\n", "[domain a*a] = 1 3\n").replace("[map a*a] = 1->1\n", "[map a*a] = 1->1 3->3\n")
    path = tmp_path / "bad_e3.pact"
    path.write_text(text)
    code, out, _ = run(capsys, "check", str(path), "--props")
    assert code == 1
    e3 = [line for line in out.splitlines() if line.startswith("  [E3]")]
    assert [line.split("witness=")[1] for line in e3] == [
        "('a*a', 'b', '3')", "('a*a', 'b*', '3')", "('a*a', 'b*b', '3')", "('a*a', 'bb*', '3')",
    ]
    assert "derived propositions: FAIL (14 violation(s))" in out
    assert "[order-domain]" not in out


def test_catalog_listing_and_emission(capsys, hybrid):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "two-object-hybrid" in out and "three-point(global)" in out

    code, out, _ = run(capsys, "catalog", "--entry", "two-object-hybrid", "--emit-structure")
    assert code == 0
    assert parse_structure(out).table == hybrid.table

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
    assert err == f"error: line 2, col 1: {bad} is not UTF-8 text (byte 0xff)\n"


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
    assert err == f"error: line {line}, col {col}: {bad} is not UTF-8 text (byte 0xff)\n"


@pytest.mark.parametrize(
    "name, line, text, error",
    [
        ("eight_arrow.isgd", 4, "v  u", "line 4, col 4: duplicate object u"),
        ("eight_arrow.isgd", 59, "a = a* a", "line 59, col 1: inverse line must read: s = t"),
        ("eight_arrow.isgd", 59, "a = zz", "line 59, col 5: unknown arrow zz"),
        ("eight_arrow.isgd", 60, "a = a", "line 60, col 1: duplicate inverse for a"),
        ("three_point_restricted.pact", 4, "[carrier] = 1 2 1", "line 4, col 1: duplicate carrier element 1"),
        ("three_point_restricted.pact", 5, "[range a] = 2", "line 5, col 1: unknown section [range a]"),
        ("three_point_restricted.pact", 4, "", "line 5, col 1: [carrier] must come before domain and map sections"),
    ],
    ids=["duplicate-object", "inverse-shape", "inverse-unknown-arrow", "duplicate-inverse",
         "duplicate-carrier-element", "unknown-action-section", "carrier-after-domain"],
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
    assert err == f"error: {error}\n"


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
def test_each_structure_file_is_validated_once_per_command(capsys, monkeypatch, fixtures_dir, argv):
    calls = []
    original = core.validate_semigroupoid

    def counted(table):
        calls.append(table)
        return original(table)

    monkeypatch.setattr(core, "validate_semigroupoid", counted)
    argv = [str(fixtures_dir / a) if a.endswith((".isgd", ".pact")) else a for a in argv]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


def test_a_rewritten_structure_file_is_read_again(capsys, tmp_path, fixtures_dir):
    # structures are shared within one command, never across commands
    path = tmp_path / "s.isgd"
    path.write_text((fixtures_dir / "eight_arrow.isgd").read_text())
    _, first, _ = run(capsys, "validate", str(path))
    path.write_text("[objects]\no\n[arrows]\ne : o -> o\n[mul]\ne e = e\n")
    _, second, _ = run(capsys, "validate", str(path))
    assert "8 arrows" in first and "1 arrows" in second


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
        ["check", "four_point.pact", "--props"],
    ],
    ids=["validate", "globalize", "check"],
)
def test_each_command_lists_the_composable_pairs_once(capsys, monkeypatch, fixtures_dir, argv):
    # the products view enumerates the composable pairs as integers, once
    calls = count_calls(monkeypatch, "_composable", core.SemigroupoidTable)
    argv = [str(fixtures_dir / a) if a.endswith((".isgd", ".pact")) else a for a in argv]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


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
    calls = count_calls(monkeypatch, "composable", core.SemigroupoidTable)
    reads = count_calls(monkeypatch, "mul", core.SemigroupoidTable)
    assert core.validate_semigroupoid(table).ok
    assert calls == []
    assert len(reads) == 2 * pairs + triples


def test_check_props_decides_each_natural_order_pair_once(capsys, monkeypatch, fixtures_dir):
    # the strict order is decided on the integer table over the pairs of parallel arrows, listed once
    calls = count_calls(monkeypatch, "_parallel", core.SemigroupoidTable)
    per_pair = count_calls(monkeypatch, "natural_leq", core, actions)
    code, _, _ = run(capsys, "check", str(fixtures_dir / "four_point.pact"), "--props")
    assert code == 0
    assert len(calls) == 1
    assert per_pair == []


def test_globalize_dot_enumerates_the_relation_for_the_closure_and_the_edge_list(capsys, monkeypatch, fixtures_dir):
    calls = count_calls(monkeypatch, "_related_pairs", globalization)
    code, out, _ = run(capsys, "globalize", str(fixtures_dir / "three_point_restricted.pact"), "--format", "dot")
    assert code == 0
    assert " -- " in out
    assert len(calls) == 2


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_globalize_table_and_json_enumerate_the_relation_once(capsys, monkeypatch, fixtures_dir, fmt):
    # the closure enumerates the relation; only the DOT edge list asks for it again
    calls = count_calls(monkeypatch, "_related_pairs", globalization)
    assert run(capsys, "globalize", str(fixtures_dir / "three_point_restricted.pact"), "--format", fmt)[0] == 0
    assert len(calls) == 1


def _no_name_view(*args):
    raise AssertionError("an arrow name view was read below the I/O boundary")


def _audited(action, j):
    """Every scan, audit and globalize writer on an action and a map j into a global action, as text."""
    glob = globalization.build_globalization(action)
    sigma = globalization.mediating(glob, morphisms.GlobalizationTriple(j))
    reports = (
        actions.validate_p_axioms(action),
        actions.validate_e_axioms(action),
        actions.check_derived_propositions(action),
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
    for view in ("products", "strict_order", "generators"):
        monkeypatch.setattr(core.InverseSemigroupoid, view, property(_no_name_view))
    assert [_audited(action, j) for action, j in cases] == expected
    with pytest.raises(AssertionError, match="name view"):
        core.InverseSemigroupoid.inverse_map(cases[0][0].semigroupoid)


@pytest.mark.parametrize("fmt", ["table", "json", "dot"])
def test_globalize_and_mediate_read_no_name_view(capsys, monkeypatch, fixtures_dir, fmt):
    # the scans, the construction and the renderers read rows; theta and dom_of are for the API
    reads = []
    for view in ("theta", "dom_of"):
        original = getattr(actions.PartialAction, view)
        monkeypatch.setattr(actions.PartialAction, view, property(lambda a, _f=original.fget: reads.append(a) or _f(a)))
    restricted, target = fixtures_dir / "three_point_restricted.pact", fixtures_dir / "three_point_global.pact"
    assert run(capsys, "globalize", str(restricted), "--format", fmt)[0] == 0
    assert run(capsys, "mediate", str(restricted), "--target", str(target), "--strict")[0] == 0
    assert reads == []


def test_globalize_json_and_mediate_build_no_seed_view(capsys, monkeypatch, fixtures_dir):
    # the construction, the JSON writer and mediating read the seed index and the class labels
    reads = []
    for view in ("seeds", "classes", "representatives", "class_of", "edges"):
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


def test_globalize_runs_the_full_p_scan_once_for_the_input(capsys, monkeypatch, fixtures_dir):
    # the output is checked along generator edges; the full scan only builds a failure report
    calls = count_calls(monkeypatch, "validate_p_axioms", globalization, actions)
    code, _, _ = run(capsys, "globalize", str(fixtures_dir / "three_point_restricted.pact"))
    assert code == 0
    assert [action.carrier for action, in calls] == [("1", "2")]


@pytest.mark.parametrize("strict", [(), ("--strict",)], ids=["plain", "strict"])
def test_mediate_runs_the_full_p_scan_once_for_the_input(capsys, monkeypatch, fixtures_dir, strict):
    # the global target is decided along generator edges; the full scan only builds a failure report
    calls = count_calls(monkeypatch, "validate_p_axioms", globalization, morphisms, actions)
    code, out, _ = run(
        capsys,
        "mediate",
        str(fixtures_dir / "three_point_restricted.pact"),
        "--target",
        str(fixtures_dir / "three_point_global.pact"),
        *strict,
    )
    assert code == 0 and out.startswith("sigma: ")
    assert [action.carrier for action, in calls] == [("1", "2")]


@pytest.mark.parametrize("wrap", [False, True], ids=["action-map", "triple"])
def test_the_universal_property_chain_runs_the_full_p_scan_once_for_the_input(monkeypatch, hybrid, wrap):
    calls = count_calls(monkeypatch, "validate_p_axioms", globalization, morphisms, actions)
    base = three_point_action(hybrid)
    action = restrict(base, {"1", "2"})
    glob = globalization.build_globalization(action)
    j = morphisms.inclusion_map(action, base)
    target = morphisms.GlobalizationTriple(j) if wrap else j
    sigma = globalization.mediating(glob, target)
    assert globalization.verify_universal(glob, target, sigma).ok
    assert [a.carrier for a, in calls] == [("1", "2")]


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

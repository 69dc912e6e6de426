import json

import pytest

from isgact import format_action, parse_action, parse_structure, restrict
from isgact.catalog import three_point_action
from isgact.cli import run_cli

from worked_data import CLASSES_B


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

import hashlib
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from isgact import (
    InverseSemigroupoid,
    ParseError,
    PartialAction,
    SemigroupoidTable,
    StructuralError,
    ValidationFailure,
    Violation,
    core,
    format_action,
    format_structure,
    infer_inverses,
    load_action,
    load_structure,
    parse_action,
    parse_structure,
    structure_ref,
    textio,
    validate_e_axioms,
    validate_p_axioms,
)
from isgact.catalog import catalog, four_point_action, grow_catalog, three_point_action, two_object_hybrid_table
from isgact.cli import run_cli


def test_fixture_structure_matches_the_builder(fixtures_dir, hybrid):
    loaded = load_structure(fixtures_dir / "eight_arrow.isgd")
    assert loaded == hybrid


def test_fixture_actions_match_the_builders(fixtures_dir, hybrid):
    action, isg = load_action(fixtures_dir / "four_point.pact")
    assert isg == hybrid
    assert action == four_point_action(hybrid)
    three, _ = load_action(fixtures_dir / "three_point_global.pact")
    assert three == three_point_action(hybrid)


def test_structure_round_trip_on_every_catalog_entry():
    for entry in catalog():
        text = format_structure(entry.structure)
        doc = parse_structure(text)
        assert doc.table == entry.structure
        assert doc.inverse == entry.structure.inverse_map()
        assert format_structure(entry.structure) == text  # printing is stable


def test_action_round_trip_on_every_catalog_action():
    for entry in catalog():
        for ca in entry.actions:
            text = format_action(ca.action, "ref.isgd")
            back = parse_action(text, entry.structure)
            assert back == ca.action
            assert format_action(back, "ref.isgd") == text


def renamed(ca, objects, arrows, points):
    """A catalog action and its structure with every object, arrow and carrier element renamed, in declaration order."""
    isg, action = ca.action.semigroupoid, ca.action
    o, a, p = dict(zip(isg.objects, objects)), dict(zip(isg.arrows, arrows)), dict(zip(action.carrier, points))
    table = SemigroupoidTable(
        objects, arrows,
        {a[s]: o[isg.dom(s)] for s in isg.arrows},
        {a[s]: o[isg.cod(s)] for s in isg.arrows},
        {(a[s], a[t]): a[u] for s, t, u in isg.products},
    )
    structure = InverseSemigroupoid(table)
    dom_of = {a[s]: [p[x] for x in xs] for s, xs in action.dom_of.items()}
    theta = {a[s]: {p[x]: p[y] for x, y in moves.items()} for s, moves in action.theta.items()}
    return structure, PartialAction(structure, points, dom_of, theta)


def assert_reads_back(isg, action):
    """Each formatter either refuses, naming one of the names, or writes text that parses to the same names, rows and masks."""
    names = {*isg.objects, *isg.arrows, *map(str, action.carrier)}
    try:
        doc = parse_structure(format_structure(isg))
    except StructuralError as err:
        assert any(repr(x) in str(err) for x in names), err
    else:
        assert doc.table == isg and doc.inverse == isg.inverse_map()
    try:
        back = parse_action(format_action(action, "ref.isgd"), isg)
    except StructuralError as err:
        assert any(repr(x) in str(err) for x in names), err
    else:
        assert (back.carrier, back.rows, back.masks) == (tuple(map(str, action.carrier)), action.rows, action.masks)


GROWN_ACTIONS = [ca for entry in map(grow_catalog, catalog()) for ca in entry.actions]


@st.composite
def renamed_actions(draw):
    """A grown catalog action renamed with names joined from `a`, `b` and up to two pieces the formats give a meaning to.

    Two pieces at a time, so that the names which break only one rule (`->`
    in a carrier element, `]=` in an arrow, an object `[u]`) are drawn often
    without a space or `#` in another name hiding them.
    """
    ca = draw(st.sampled_from(GROWN_ACTIONS))
    isg = ca.action.semigroupoid
    specials = draw(st.sets(st.sampled_from([" ", "#", "-", ">", "->", "[", "]", "=", "]=", ":", "\n"]), max_size=2))
    name = st.lists(st.sampled_from(["a", "b", *sorted(specials)]), min_size=1, max_size=4).map("".join)

    def names(n):
        return draw(st.lists(name, min_size=n, max_size=n, unique=True))

    return renamed(ca, names(len(isg.objects)), names(len(isg.arrows)), names(len(ca.action.carrier)))


@given(renamed_actions())
@settings(max_examples=300, deadline=None)
def test_a_formatter_refuses_a_name_or_writes_text_that_reads_back(drawn):
    assert_reads_back(*drawn)


@pytest.mark.parametrize(
    ("objects", "arrows", "points"),
    [
        (["[a", "b["], ["->", ":", "=", "[", "[[", "a[", "[b", "*"], ["=", "]", "[x]", "a-"]),
        (["->", "a]"], ["a]]", "]", "b->", "-", ">", "]]", "a*a", "e"], ["]=", "[", "-", ">"]),
    ],
    ids=["opening-brackets", "closing-brackets"],
)
def test_names_that_hold_format_characters_but_read_back_are_written(objects, arrows, points):
    # the two-object hybrid with its four-point action: no line that starts with `[` ends with `]`
    isg, action = renamed(catalog()[0].actions[0], objects, arrows, points)
    assert parse_structure(format_structure(isg)).table == isg
    assert parse_action(format_action(action, "ref.isgd"), isg) == action


@pytest.mark.parametrize(
    ("kind", "name", "writer", "message"),
    [
        ("point", "p->q", "action", "carrier element 'p->q' cannot be written: it would not read back as one name"),
        ("point", "x y", "action", "carrier element 'x y' cannot be written: it would not read back as one name"),
        ("point", "x#y", "action", "carrier element 'x#y' cannot be written: it would not read back as one name"),
        ("point", "", "action", "carrier element '' cannot be written: it would not read back as one name"),
        ("arrow", "a b", "structure", "arrow 'a b' cannot be written: it would not read back as one name"),
        ("arrow", "a]=b", "action", "arrow 'a]=b' cannot be written: it would not read back as one name"),
        ("object", "[u]", "structure", "name '[u]' cannot be written: its line [u] reads as a section header"),
    ],
    ids=["point p->q", "point x y", "point x#y", "empty point", "arrow a b", "arrow a]=b", "object [u]"],
)
def test_a_name_that_would_not_read_back_is_refused_before_anything_is_written(kind, name, writer, message):
    ca = catalog()[0].actions[0]
    isg, action = ca.action.semigroupoid, ca.action
    objects, arrows, points = list(isg.objects), list(isg.arrows), list(action.carrier)
    {"object": objects, "arrow": arrows, "point": points}[kind][0] = name
    isg, action = renamed(ca, objects, arrows, points)
    with pytest.raises(StructuralError) as err:
        format_structure(isg) if writer == "structure" else format_action(action, "ref.isgd")
    assert str(err.value) == message


@given(st.lists(st.sampled_from(["a", ".isgd", " ", "  ", "#", "\n", "\r", "\t", "\x00", "\u2028", "="]), max_size=5).map("".join))
@settings(max_examples=300, deadline=None)
def test_format_action_refuses_a_structure_reference_or_writes_one_that_reads_back(ref):
    action = catalog()[0].actions[0].action
    try:
        text = format_action(action, ref)
    except StructuralError as err:
        assert str(err) == f"structure reference {ref!r} cannot be written: it would not read back unchanged"
    else:
        assert structure_ref(text) == ref


@pytest.mark.parametrize("ref", ["a#b.isgd", "a\nb", "", " x.isgd", "x.isgd ", "a\x00b"])
def test_format_action_refuses_a_structure_reference_that_would_not_read_back(ref):
    with pytest.raises(StructuralError, match="cannot be written: it would not read back unchanged"):
        format_action(catalog()[0].actions[0].action, ref)


def test_format_action_keeps_inner_spaces_of_a_structure_reference():
    text = format_action(catalog()[0].actions[0].action, "my  structures/eight arrow.isgd")
    assert structure_ref(text) == "my  structures/eight arrow.isgd"


def test_format_action_refuses_two_carrier_elements_written_as_one_name():
    point = infer_inverses(SemigroupoidTable(("o",), ("e",), {"e": "o"}, {"e": "o"}, {("e", "e"): "e"}))
    clash = PartialAction(point, (1, "1"), {"e": {1, "1"}}, {"e": {1: 1, "1": "1"}})
    with pytest.raises(StructuralError) as err:
        format_action(clash, "ref.isgd")
    assert str(err.value) == "carrier elements 1 and '1' cannot both be written: each reads back as 1"
    apart = PartialAction(point, (1, "2"), {"e": {1, "2"}}, {"e": {1: 1, "2": "2"}})
    assert parse_action(format_action(apart, "ref.isgd"), point).carrier == ("1", "2")


def test_an_action_over_arrow_names_holding_a_bracket_round_trips():
    # a section header runs to the `]` before its `=`, so `[domain e]] = ...` names the arrow e]
    text = "[objects]\nu\n\n[arrows]\ne] : u -> u\ng]] : u -> u\n\n[mul]\ne] e] = e]\ne] g]] = g]]\ng]] e] = g]]\ng]] g]] = e]\n"
    isg = infer_inverses(parse_structure(text).table)
    action = PartialAction(isg, ["x", "y"], {"e]": ["x", "y"], "g]]": ["x", "y"]}, {"e]": {"x": "x", "y": "y"}, "g]]": {"x": "y", "y": "x"}})
    printed = format_action(action, "z2.isgd")
    assert "[domain g]]] = x y" in printed
    back = parse_action(printed, isg)
    assert back == action
    assert format_action(back, "z2.isgd") == printed
    assert validate_p_axioms(back).ok and validate_e_axioms(back).ok


def test_structure_with_empty_mul_parses():
    text = "[objects]\nu\nv\n\n[arrows]\nf : u -> v\n\n[mul]\n"
    doc = parse_structure(text)
    assert doc.table.arrows == ("f",)
    assert doc.table.composable_pairs() == []


def test_mul_line_on_a_non_composable_pair_is_a_parse_error():
    text = "[objects]\nu\nv\n\n[arrows]\nf : u -> v\n\n[mul]\nf f = f\n"
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert "not composable" in str(err.value)
    assert err.value.line == 9


def test_missing_composable_pair_is_a_parse_error():
    text = "[objects]\nu\n\n[arrows]\ne : u -> u\n\n[mul]\n"
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert "without a product" in str(err.value)


@pytest.mark.parametrize("header", ["[mul]", "[ mul ]", "[mul ]", "[mul]  # products"])
def test_missing_product_error_sits_on_the_mul_header_however_it_is_spaced(fixtures_dir, header):
    lines = (fixtures_dir / "eight_arrow.isgd").read_text().splitlines()
    assert lines[15] == "[mul]" and lines[16] == "a a* = aa*"
    text = "\n".join(lines[:15] + [header] + lines[17:]) + "\n"
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert "(a, a*)" in str(err.value)
    assert (err.value.line, err.value.col) == (16, 1)


def test_assorted_structure_parse_errors():
    with pytest.raises(ParseError, match="unknown object"):
        parse_structure("[objects]\nu\n\n[arrows]\ne : u -> w\n\n[mul]\n")
    with pytest.raises(ParseError, match="name : dom -> cod"):
        parse_structure("[objects]\nu\n\n[arrows]\ne u u\n\n[mul]\n")
    with pytest.raises(ParseError, match="unknown section"):
        parse_structure("[stuff]\n")
    with pytest.raises(ParseError, match="missing section"):
        parse_structure("[objects]\nu\n")
    with pytest.raises(ParseError, match="before any section"):
        parse_structure("u v\n")


def test_parse_error_positions_name_the_offending_token():
    text = "[objects]\nu\n\n[arrows]\ne : u -> u\n\n[mul]\ne e = ghost\n"
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert err.value.line == 8
    assert err.value.col == 7   # "ghost" starts at column 7


def test_action_parse_errors(hybrid):
    good = format_action(four_point_action(hybrid), "eight_arrow.isgd")
    with pytest.raises(ParseError, match="structure = "):
        parse_action("[carrier] = 1\n", hybrid)
    with pytest.raises(ParseError, match="unknown arrow"):
        parse_action(good.replace("[map a]", "[map zz]"), hybrid)
    with pytest.raises(ParseError, match="missing \\[map a\\]"):
        parse_action("\n".join(l for l in good.splitlines() if not l.startswith("[map a]")), hybrid)
    with pytest.raises(ParseError, match="x->y"):
        parse_action(good.replace("1->4", "1=4"), hybrid)
    with pytest.raises(ParseError, match="not in the carrier"):
        parse_action(good.replace("[domain a] = 4", "[domain a] = 9"), hybrid)
    with pytest.raises(ParseError, match="duplicate"):
        parse_action(good.replace("[map a] = 1->4", "[map a] = 1->4 1->4"), hybrid)
    # a repeated domain element is positioned like a repeated carrier element or map entry
    with pytest.raises(ParseError) as err:
        parse_action(good.replace("[domain a] = 4", "[domain a] = 4 4"), hybrid)
    assert str(err.value) == "line 4, col 1: duplicate domain element 4"


@pytest.mark.parametrize(
    "line, text, message",
    [
        (8, "[domain b] = 1 5 4", "domain element 5 is not in the carrier"),
        (8, "[domain b] = 1 4 12", "domain element 12 is not in the carrier"),
        (9, "[map b] = 1->1 2->5", "map entry 2->5 leaves the carrier"),
        (9, "[map b] = 1->1 0->4", "map entry 0->4 leaves the carrier"),
    ],
    ids=["domain", "domain-prefix-of-no-point", "map-value", "map-key"],
)
def test_points_outside_a_carrier_of_several_points_are_parse_errors_on_their_line(hybrid, line, text, message):
    lines = format_action(four_point_action(hybrid), "eight_arrow.isgd").splitlines()
    assert lines[2] == "[carrier] = 1 2 3 4"
    lines[line - 1] = text
    with pytest.raises(ParseError) as err:
        parse_action("\n".join(lines) + "\n", hybrid)
    assert str(err.value) == f"line {line}, col 1: {message}"
    assert (err.value.line, err.value.col) == (line, 1)


def test_load_action_loads_its_structure_through_load_structure(unshared_fixtures):
    # one loader: while the action holds its structure, a load of the structure file gives that same object
    action, isg = load_action(unshared_fixtures / "four_point.pact")
    assert action.semigroupoid is isg and len(isg.arrows) == 8
    assert load_structure(unshared_fixtures / "eight_arrow.isgd") is isg


def count_validations(monkeypatch):
    calls = []
    original = core.validate_semigroupoid
    monkeypatch.setattr(core, "validate_semigroupoid", lambda table: calls.append(table) or original(table))
    return calls


def test_live_loads_of_one_text_share_one_structure_whatever_its_path(monkeypatch, unshared_fixtures):
    calls = count_validations(monkeypatch)
    other = unshared_fixtures / "other"
    other.mkdir()
    for name in ("eight_arrow.isgd", "three_point_global.pact"):
        (other / name).write_text((unshared_fixtures / name).read_text())
    isg = load_structure(unshared_fixtures / "eight_arrow.isgd")
    assert load_structure(other / "eight_arrow.isgd") is isg
    assert load_action(other / "three_point_global.pact")[0].semigroupoid is isg
    assert len(calls) == 1


def test_two_action_files_naming_one_structure_file_share_its_structure(monkeypatch, unshared_fixtures):
    calls = count_validations(monkeypatch)
    four, isg = load_action(unshared_fixtures / "four_point.pact")
    three, shared = load_action(unshared_fixtures / "three_point_global.pact")
    assert shared is isg and three.semigroupoid is four.semigroupoid
    assert len(calls) == 1


def test_a_structure_that_nothing_holds_is_checked_again(monkeypatch, unshared_fixtures):
    calls = count_validations(monkeypatch)
    path = unshared_fixtures / "eight_arrow.isgd"
    isg = load_structure(path)
    action = load_action(unshared_fixtures / "four_point.pact")[0]
    assert action.semigroupoid is isg and len(calls) == 1
    del isg, action
    assert len(load_structure(path).arrows) == 8
    assert len(calls) == 2


def test_a_file_rewritten_while_its_structure_is_alive_loads_as_a_new_structure(unshared_fixtures):
    path = unshared_fixtures / "eight_arrow.isgd"
    old = load_structure(path)
    path.write_text("[objects]\no\n[arrows]\ne : o -> o\n[mul]\ne e = e\n")
    new = load_structure(path)
    assert new is not old
    assert (len(old.arrows), len(new.arrows)) == (8, 1)


def test_the_share_keeps_a_digest_of_each_file_and_no_copy_of_it(unshared_fixtures):
    path = unshared_fixtures / "eight_arrow.isgd"
    isg = load_structure(path)
    assert textio._shared[hashlib.blake2b(path.read_bytes(), digest_size=32).digest()] is isg
    assert {len(key) for key in textio._shared.keys()} == {32}


def test_a_failing_structure_file_raises_with_its_own_path_on_every_load(tmp_path, fixtures_dir):
    text = (fixtures_dir / "eight_arrow.isgd").read_text()
    assert text.count("a = a*\na* = a\n") == 1
    failing = {
        "parse": "[objects]\nu\n[arrows]\na : u -> w\n[mul]\n",
        "no-inverse": "[objects]\nu\nv\n\n[arrows]\nf : u -> v\n\n[mul]\n",
        "declared-inverse": text.replace("a = a*\na* = a\n", "a = a\na* = a*\n"),
    }
    for kind, body in failing.items():
        paths = [tmp_path / f"{kind}-{i}.isgd" for i in range(2)]
        for path in paths:
            path.write_text(body)
        for path in paths + paths:
            with pytest.raises((ParseError, ValidationFailure)) as err:
                load_structure(path)
            if kind == "parse":
                assert err.value.path == path
            else:
                assert err.value.subject == str(path) and kind in err.value.report.tags()


def test_threads_loading_one_text_at_once_each_get_its_valid_structure(unshared_fixtures, hybrid):
    # the share is read and then written without a lock: racing loads may each parse and check the text,
    # and every one of them returns a whole, valid structure of it
    path = unshared_fixtures / "eight_arrow.isgd"
    results = []

    def load():
        for _ in range(20):
            results.append(load_structure(path))

    threads = [threading.Thread(target=load) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 80
    assert all(isg == hybrid and isg.inverse_map() == hybrid.inverse_map() for isg in results)
    assert any(isg is load_structure(path) for isg in results)


def test_structure_ref_extraction(fixtures_dir):
    text = (fixtures_dir / "four_point.pact").read_text()
    assert structure_ref(text) == "eight_arrow.isgd"
    # a NUL byte cannot name a file; it is a parse error, not an OS-level ValueError
    with pytest.raises(ParseError, match="NUL byte"):
        structure_ref("structure = eight\x00arrow.isgd\n")


def test_a_second_structure_header_is_a_parse_error_on_its_line(tmp_path, fixtures_dir, hybrid, capsys):
    text = (fixtures_dir / "four_point.pact").read_text() + "structure = nowhere.isgd\n"
    line = len(text.splitlines())
    with pytest.raises(ParseError) as err:
        parse_action(text, hybrid)
    assert str(err.value) == f"line {line}, col 1: duplicate structure header"
    # the first header still names the structure, so the command loads it and then stops at the duplicate
    (tmp_path / "eight_arrow.isgd").write_text((fixtures_dir / "eight_arrow.isgd").read_text())
    (tmp_path / "twice.pact").write_text(text)
    assert run_cli(["validate", str(tmp_path / "twice.pact")]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'twice.pact'}: line {line}, col 1: duplicate structure header\n"


def test_load_action_splits_the_action_text_into_lines_once(monkeypatch, unshared_fixtures):
    # the header names the structure file, and the same content lines then give the sections
    calls, bodies = [], []
    content, cut = textio._content_lines, textio._bodies
    monkeypatch.setattr(textio, "_content_lines", lambda text: calls.append(text) or content(text))
    monkeypatch.setattr(textio, "_bodies", lambda text: bodies.append(text) or cut(text))
    load_action(unshared_fixtures / "four_point.pact")
    text = (unshared_fixtures / "four_point.pact").read_text()
    assert calls == [text]
    # one more split for the structure file, none for the action text beyond the first
    assert bodies == [text, (unshared_fixtures / "eight_arrow.isgd").read_text()]


def test_declared_inverse_mismatch_fails_loading(tmp_path, hybrid):
    inv = hybrid.inverse_map()
    inv["a"], inv["a*"] = "a", "a*"   # wrong on purpose
    text = format_structure(two_object_hybrid_table()) + "\n[inverse]\n"
    text += "".join(f"{s} = {t}\n" for s, t in inv.items())
    target = tmp_path / "bad_inverse.isgd"
    target.write_text(text)
    with pytest.raises(ValidationFailure) as err:
        load_structure(target)
    assert err.value.report.violations == (
        Violation("declared-inverse", "declared inverse of a is a but the unique pseudo-inverse is a*", ("a",)),
        Violation("declared-inverse", "declared inverse of a* is a* but the unique pseudo-inverse is a", ("a*",)),
    )


def test_loading_a_structure_without_inverses_reports_it(tmp_path):
    # a lone crossing arrow admits no pseudo-inverse at all
    target = tmp_path / "no_inverse.isgd"
    target.write_text("[objects]\nu\nv\n\n[arrows]\nf : u -> v\n\n[mul]\n")
    with pytest.raises(ValidationFailure) as err:
        load_structure(target)
    assert "no-inverse" in err.value.report.tags()


def test_parsing_a_generated_table_peaks_under_ten_times_its_text():
    # Z_60: 3,600 product lines.  The parse writes integers as it reads and keeps
    # no name-keyed product dict, so its heap peak stays a small multiple of the text.
    names = [f"g{k}" for k in range(60)]
    lines = ["[objects]", "o", "", "[arrows]", *(f"{a} : o -> o" for a in names), "", "[mul]"]
    lines.extend(f"{names[i]} {names[j]} = {names[(i + j) % 60]}" for i in range(60) for j in range(60))
    lines += ["", "[inverse]", *(f"{names[k]} = {names[-k % 60]}" for k in range(60))]
    text = "\n".join(lines) + "\n"
    tracemalloc.start()
    try:
        doc = parse_structure(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(doc.table.arrows) == 60
    assert peak < 10 * len(text), (peak, len(text))

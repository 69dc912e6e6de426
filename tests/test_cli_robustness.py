"""Mutated input files never make a CLI command escape with an exception.

Hypothesis edits the fixture texts (deletes, duplicates or truncates lines,
replaces tokens, inserts raw bytes) and runs one command in-process on the
result: every outcome must be an exit code 0, 1 or 2.
"""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from isgact.cli import run_cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
STRUCTURE = "eight_arrow.isgd"
ACTIONS = sorted(p.name for p in FIXTURES.glob("*.pact"))
TEXTS = {p.name: p.read_bytes() for p in FIXTURES.iterdir()}
TOKENS = sorted({tok for text in TEXTS.values() for tok in text.split()}) + [
    b"", b"->", b"=", b"[", b"]", b"#", b"[mul]", b"[carrier]", b"9", b"1->9", b"..", b"\x00",
]
COMMANDS = [
    ["validate", "{action}"],
    ["validate", STRUCTURE],
    ["restrict", "{action}", "--subset", "1,2"],
    ["restrict", "{action}", "--subset", "1,2", "--trim"],
    ["globalize", "{action}", "--format", "json"],
    ["globalize", "{action}", "--format", "table"],
    ["globalize", "{action}", "--format", "dot"],
    ["mediate", "{action}", "--target", "three_point_global.pact"],
    ["mediate", "{action}", "--target", "three_point_global.pact", "--strict"],
    ["check", "{action}"],
]

positions = st.integers(min_value=0, max_value=10_000)
mutations = st.one_of(
    st.tuples(st.just("delete"), positions),
    st.tuples(st.just("duplicate"), positions),
    st.tuples(st.just("truncate"), positions),
    st.tuples(st.just("replace"), positions, st.sampled_from(TOKENS)),
    st.tuples(st.just("insert"), positions, st.binary(min_size=1, max_size=4)),
)


def mutate(text: bytes, edits) -> bytes:
    for kind, at, *arg in edits:
        lines = text.split(b"\n")
        if kind == "delete":
            del lines[at % len(lines)]
            text = b"\n".join(lines)
        elif kind == "duplicate":
            i = at % len(lines)
            lines.insert(i, lines[i])
            text = b"\n".join(lines)
        elif kind == "truncate":
            text = text[: at % (len(text) + 1)]
        elif kind == "replace":
            tokens = text.split(b" ")
            tokens[at % len(tokens)] = arg[0]
            text = b" ".join(tokens)
        else:
            i = at % (len(text) + 1)
            text = text[:i] + arg[0] + text[i:]
    return text


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=150, deadline=None)
@given(
    action=st.sampled_from(ACTIONS),
    command=st.sampled_from(COMMANDS),
    mutate_structure=st.booleans(),
    edits=st.lists(mutations, min_size=1, max_size=3),
)
def test_mutated_inputs_exit_0_1_or_2(work, action, command, mutate_structure, edits):
    for name, text in TEXTS.items():
        (work / name).write_bytes(text)
    victim = STRUCTURE if mutate_structure else action
    (work / victim).write_bytes(mutate(TEXTS[victim], edits))

    argv = [arg.format(action=action) for arg in command]
    argv = [str(work / arg) if arg.endswith((".isgd", ".pact")) else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()

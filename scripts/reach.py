#!/usr/bin/env python3
"""Reach map of the library: which lines of src/isgact/ a user path runs, and which only the tests run.

The script line-traces ``src/isgact/`` with ``sys.settrace`` in two halves,
one process:

- the user paths: ``scripts/randomized_audit.py --draws 40`` and
  ``scripts/worked_examples.py``; the command line on every fixture
  (``validate`` with and without ``--dot``, ``check``, ``globalize`` in all
  three formats, ``mediate`` plain and ``--strict`` over every ordered pair
  of ``.pact`` files, ``restrict``, the ``catalog`` listing and its
  emissions); ``python -m isgact catalog``; and one deck pass of each
  benchmark workload;
- the tests: tier-1 and the benchmark generator tests, ``pytest tests
  perfbench``, with Hypothesis seeded so that one tree gives one map.

It prints, per module, the lines that only the tests reached and those that
nothing reached, each of the latter with the function it lies in, then the
public names that no user path reached.  A public name is a public function
or class at the top of a module of the package, or a public method or
property of such a class; a class is judged by its own ``__init__``, and one
without a line of its own (a plain dataclass or exception) is not judged.

    python scripts/reach.py

It needs the standard library, and pytest for the test half.  The exit status is 1 when a line that nothing reached is outside
``ALLOWED``, or a public name that no user path reached is missing from
``KEPT``, else 0.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
import io
import os
import runpy
import sys
import tempfile
from itertools import permutations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "isgact"
FIXTURES = ROOT / "fixtures"

# (module, block) -> why no path need reach it; a block is a function or class by its qualified name, or an except clause
ALLOWED = {
    ("actions.py", "PartialAction.__repr__"): "read only at a prompt or in a debugger",
    ("core.py", "SemigroupoidTable.__repr__"): "read only at a prompt or in a debugger",
    ("core.py", "InverseSemigroupoid.__repr__"): "read only at a prompt or in a debugger",
    ("globalization.py", "Globalization.__repr__"): "read only at a prompt or in a debugger",
    ("morphisms.py", "ActionMap.__repr__"): "read only at a prompt or in a debugger",
    ("textio.py", "except ImportError"): "taken only by a CPython built without its bundled BLAKE2",
}

# module.name -> why it stays public although no user path reaches it
KEPT = {
    "core.SemigroupoidTable.dom": "perfbench/spans.py reads it",
    "core.SemigroupoidTable.cod": "perfbench/spans.py reads it",
    "core.InverseSemigroupoid.inv": "perfbench/test_generate.py reads it",
    "catalog.symmetric_inverse_2": "perfbench/test_generate.py reads it",
    "catalog.symmetric_inverse_2_action": "perfbench/test_generate.py reads it",
    "textio.parse_action": "a benchmark probe binds it (ROADMAP item 1)",
    "globalization.build_seed_set": "a benchmark probe binds it (ROADMAP item 1)",
    "globalization.close_equivalence": "a benchmark probe binds it (ROADMAP item 1)",
    "core.InverseSemigroupoid.strict_order": "the natural order that E3 is stated over",
    "morphisms.identity_map": "the reflector laws read it",
    "morphisms.is_isomorphism": "the reflector laws read it",
    "textio.ParseError": "raised on a malformed file, which no user path reads",
    "actions.CoverageError": "raised by restrict on a subset outside every idempotent domain, which no user path asks for",
    "globalization.WellDefinednessError": "raised by mediating on a target it cannot factor, which no user path gives",
}


class Tracer:
    """Records the lines run in src/isgact/, and the code objects called there, into the current half."""

    def __init__(self):
        self.half = "user"
        self.lines = {"user": set(), "tests": set()}  # (file name, line)
        self.calls = {"user": set(), "tests": set()}  # (file name, first line of the code object)
        self.prefix = str(SRC) + "/"

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        file, add = code.co_filename, self.lines[self.half].add
        self.calls[self.half].add((file, code.co_firstlineno))

        def local(frame, event, arg):
            if event == "line":
                add((file, frame.f_lineno))
            return local

        return local


def _quiet(fn, *args):
    """fn(*args) with its output dropped, and an exit by SystemExit ending only the call."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), contextlib.suppress(SystemExit):
        fn(*args)


def _script(name, *argv):
    sys.argv = [name, *argv]
    runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")


def _module_main(*argv):
    sys.argv = ["isgact", *argv]
    runpy.run_module("isgact", run_name="__main__")


def user_paths():
    """Every user path, in this process: the scripts, the command line on the fixtures, and a deck pass per workload."""
    from isgact.cli import run_cli
    from isgact.catalog import ENTRY_NAMES, catalog_entry

    saved_argv = sys.argv
    try:
        _quiet(_script, "randomized_audit.py", "--draws", "40")
        _quiet(_script, "worked_examples.py")
        _quiet(_module_main, "catalog")
    finally:
        sys.argv = saved_argv

    files = sorted(str(p) for p in FIXTURES.iterdir())
    actions = [f for f in files if f.endswith(".pact")]
    commands = [["validate", f] for f in files] + [["validate", "--dot", f] for f in files]
    commands += [["check", f] for f in actions]
    commands += [["globalize", f, "--format", fmt] for f in actions for fmt in ("table", "json", "dot")]
    pairs = [(a, a) for a in actions] + list(permutations(actions, 2))
    commands += [["mediate", a, "--target", t, *strict] for a, t in pairs for strict in ([], ["--strict"])]
    commands += [["restrict", str(FIXTURES / "three_point_global.pact"), "--subset", "1,2"]]
    commands += [["restrict", str(FIXTURES / "four_point.pact"), "--subset", "1,2", "--trim"]]
    commands += [["catalog"]]
    for name in ENTRY_NAMES:
        commands += [["catalog", "--entry", name, "--emit-structure"]]
        entry = catalog_entry(name)
        commands += [["catalog", "--entry", name, "--action", str(i)] for i, ca in enumerate(entry.actions) if ca.global_tag]
    for argv in commands:
        _quiet(run_cli, argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import spans
    import workloads

    wrong = []
    with tempfile.TemporaryDirectory(prefix="isgact-reach-") as tmp:
        for workload in ("validate-mix", "globalize-orbits", "audit-universal"):
            workdir = Path(tmp) / workload
            workdir.mkdir()
            for job in workloads.build_deck(workload, 1, workdir):
                problem = job.check(job.run(spans.Untraced()))
                if problem is not None:
                    wrong.append(f"{workload} {job.label}: {problem}")
    return wrong


def executable_lines(path: Path) -> set[int]:
    """The lines of a source file that hold bytecode, over every code object it compiles to."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module's first instruction has line 0
        todo += [c for c in code.co_consts if inspect.iscode(c)]
    return lines


def blocks(path: Path):
    """(name, first line, last line) of every function, class and except clause, functions and classes by qualified name."""
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = scope + child.name
                out.append((name, child.lineno, child.end_lineno))
                walk(child, name + ".")
            elif isinstance(child, ast.ExceptHandler):
                label = "except" + (" " + ast.unparse(child.type) if child.type else "")
                out.append((scope + label, child.lineno, child.end_lineno))
                walk(child, scope)
            else:
                walk(child, scope)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def public_names():
    """module.name -> (file name, first line) of the code that a call of it runs."""
    out = {}
    for path in sorted(SRC.glob("[!_]*.py")):  # __init__ re-exports, and __main__ runs the command line
        module = importlib.import_module(f"isgact.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out[f"{path.stem}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                init = obj.__dict__.get("__init__")
                if inspect.isfunction(init) and init.__code__.co_filename == str(path):
                    out[f"{path.stem}.{name}"] = init.__code__
                for attr, member in obj.__dict__.items():
                    fn = getattr(member, "fget", None) or getattr(member, "func", None) or getattr(member, "__func__", None) or member
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        out[f"{path.stem}.{name}.{attr}"] = fn.__code__
    return {name: (code.co_filename, code.co_firstlineno) for name, code in out.items()}


def _ranges(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs: 3-5, 9."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    sys.settrace(tracer)
    try:
        wrong = user_paths()
        tracer.half = "tests"
        suite = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests"), str(ROOT / "perfbench")])
    finally:
        sys.settrace(None)

    status = 0
    print(f"\nreach map of src/isgact/: the user paths, then pytest tests perfbench (exit status {int(suite)})")
    for problem in wrong:
        print(f"  a deck job answered wrong: {problem}")
    user, tests = tracer.lines["user"], tracer.lines["tests"]
    for path in sorted(SRC.glob("*.py")):
        file, source = str(path), path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        only_tests = sorted(n for n in lines if (file, n) in tests and (file, n) not in user)
        nothing = sorted(n for n in lines if (file, n) not in user and (file, n) not in tests)
        print(f"{path.name}: {len(lines)} lines; only the tests reach {len(only_tests)}: {_ranges(only_tests) or '-'}")
        spans = blocks(path)
        for n in nothing:
            names = [name for name, first, last in spans if first <= n <= last]  # outermost first
            where = names[-1] if names else "the module body"
            allowed = [name for name in names if (path.name, name) in ALLOWED]
            if allowed:
                print(f"  nothing reaches line {n} in {where}: allowed, {ALLOWED[path.name, allowed[-1]]}")
            else:
                print(f"  nothing reaches line {n} in {where}: NOT ALLOWED: {source[n - 1].strip()}")
                status = 1

    print("public names that no user path reaches:")
    for name, start in sorted(public_names().items()):
        if start not in tracer.calls["user"]:
            by = "only the tests reach it" if start in tracer.calls["tests"] else "nothing reaches it"
            if name in KEPT:
                print(f"  {name}: kept ({by}): {KEPT[name]}")
            else:
                print(f"  {name}: NOT KEPT ({by})")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

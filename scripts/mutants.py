#!/usr/bin/env python3
"""Mutation checks: break one fast path at a time and require the tier-1 suite to notice.

Each mutant is a small exact-text patch of one file under ``src/``: the
fast path it breaks has an oracle in ``tests/``, or a pin that the tier-1
suite holds.  The script first copies the repository without ``.git`` to a
temporary snapshot, so an edit made to the working tree during the run
reaches no mutant.  For each mutant, one at a time, it copies the snapshot
to a temporary directory, applies the patch there, and runs the tier-1
suite in one ``pytest -x -q`` process.  The mutant is killed when that run
fails, and survives when it passes.  A patch whose old text does not occur
exactly once in its file in the snapshot is stale, and is reported without
being run.

The suite in the copy leaves out the test that checks the patches against
the source, since in the copy one of them is already applied.  Before the
mutants, a control patch that edits only a comment is run the same way and
must survive: if it is killed, the suite fails in the copy whatever the
patch, and no kill would mean anything.

    python scripts/mutants.py

One line per run names its outcome, the first failing test and the suite's
summary line.  The exit status is 1 when the control is killed, a mutant
survives or a patch is stale, else 0.  A fast path added later brings its
mutants to ``MUTANTS``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", ".perfbench_work")
TIMEOUT_S = 900  # a mutant that makes the suite hang counts as killed after this long
# reads the unpatched source, so it fails in every copy a patch was applied to
PATCH_CHECK = "tests/test_scripts.py::test_every_mutant_patch_applies_exactly_once"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str


# changes no code: the suite must pass on it
CONTROL = Mutant(
    "control-comment-only",
    "src/isgact/core.py",
    "# built on first use: loading a structure that no action scan reads pays nothing\n",
    "# built on first use: loading a structure that no action scan reads pays nothing (control)\n",
)

MUTANTS = [
    # the one-step relation, read off the axioms: theta[u] may be defined outside dom_of[inv u]
    Mutant(
        "related-pairs-without-domain-test",
        "src/isgact/globalization.py",
        "if window[k] and y >= 0 and partners[y] > own[k]:",
        "if y >= 0 and partners[y] > own[k]:",
    ),
    # _number labels the forest in one pass only when no seed's parent comes after it
    Mutant(
        "merge-links-the-larger-root",
        "src/isgact/globalization.py",
        "        if j < i:\n            i, j = j, i\n        parent[j] = i\n",
        "        if j > i:\n            i, j = j, i\n        parent[j] = i\n",
    ),
    # the decision of P3 along the right Cayley edges of a global action
    Mutant(
        "generator-edges-skip-the-last-generator",
        "src/isgact/actions.py",
        "for g in isg._generators for s in leaving[cod[g]])",
        "for g in isg._generators[:-1] for s in leaving[cod[g]])",
    ),
    # the linear checks are made once per action and held on it
    Mutant(
        "linear-checks-not-held",
        "src/isgact/actions.py",
        "    @cached_property\n    def _linear(",
        "    @property\n    def _linear(",
    ),
    # so is the decision of the composition law
    Mutant(
        "law-decision-not-held",
        "src/isgact/actions.py",
        "    @cached_property\n    def _certified(",
        "    @property\n    def _certified(",
    ),
    # the edge route assumes the linear checks passed: edges that hold give P3 only on a valid global action
    Mutant(
        "edges-taken-off-the-linear-checks",
        "src/isgact/actions.py",
        "return not action._linear and _generator_edges_hold(action)",
        "return _generator_edges_hold(action)",
    ),
    # E3 compares each order pair's masks at once, and loops over points only where they fail
    Mutant(
        "e3-compares-the-masks-reversed",
        "src/isgact/actions.py",
        "if not all(map(le, masks[s], masks[t])):",
        "if not all(map(le, masks[t], masks[s])):",
    ),
    # the one factoring map read off the rows: two forced values of one class must agree
    Mutant(
        "forced-values-without-the-disagreement-check",
        "src/isgact/globalization.py",
        "if z < 0 or values[d] not in (-1, z):",
        "if z < 0:",
    ),
    # the construction's output check certifies P3 of its input; without it an input failing P3 alone is built,
    # and validate takes the construction for its certificate and reports no P3 violation
    Mutant(
        "construction-without-the-output-check",
        "src/isgact/globalization.py",
        "    report = is_globalization_triple(canonical)\n    if not report.ok:\n",
        "    report = is_globalization_triple(canonical)\n    if False:\n",
    ),
    # the construction's self-audit of the generators' class maps: class 0 recorded first is an image too
    Mutant(
        "class-map-audit-misses-class-0",
        "src/isgact/globalization.py",
        "                if moves[src] >= 0:\n",
        "                if moves[src] > 0:\n",
    ),
    # the certificate route assumes the linear checks passed: the construction reads every point's idempotent seed
    Mutant(
        "certificate-taken-off-the-linear-checks",
        "src/isgact/actions.py",
        "return not action._linear and not isinstance(_construct(action), str)",
        "return not isinstance(_construct(action), str)",
    ),
    # an action is certified only by a construction that passed its self-audits, not by the message of one that failed
    Mutant(
        "construction-outcome-not-read",
        "src/isgact/actions.py",
        "return not action._linear and not isinstance(_construct(action), str)",
        "return not action._linear and bool(_construct(action))",
    ),
    # a loaded structure is shared by the bytes it was read from, so a rewritten file is a new structure
    Mutant(
        "structure-share-keyed-by-path",
        "src/isgact/textio.py",
        "    key = blake2b(data, digest_size=32).digest()\n",
        "    key = str(path).encode()\n",
    ),
    # and only while something else holds it: a structure nothing holds is parsed and checked anew
    Mutant(
        "structure-share-held-strongly",
        "src/isgact/textio.py",
        "_shared: weakref.WeakValueDictionary[bytes, InverseSemigroupoid] = weakref.WeakValueDictionary()",
        "_shared: dict[bytes, InverseSemigroupoid] = {}",
    ),
    # a plain mediating target is judged as an action map before its factoring map is read
    Mutant(
        "mediating-target-not-judged-as-an-action-map",
        "src/isgact/globalization.py",
        "report = ValidationReport(is_action_map(j).violations + _target_violations(j.target))",
        "report = ValidationReport(_target_violations(j.target))",
    ),
]


def occurrences(root: Path, mutant: Mutant) -> int:
    """How often the mutant's old text occurs in its file under root; 0 for a missing file."""
    path = root / mutant.path
    return path.read_text(encoding="utf-8").count(mutant.old) if path.is_file() else 0


def run(mutant: Mutant, snapshot: Path) -> tuple[str, str]:
    """The outcome, killed, survived or stale, and the first failing test with the suite's last output line."""
    found = occurrences(snapshot, mutant)
    if found != 1:
        return "stale", f"old text found {found} times in {mutant.path}"
    with tempfile.TemporaryDirectory(prefix="isgact-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(snapshot, copy)
        target = copy / mutant.path
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--deselect", PATCH_CHECK]
        try:
            done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed", f"timed out after {TIMEOUT_S} s"
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    failed = [line.split(" - ")[0] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    detail = "; ".join(failed[:1] + lines[-1:]) or f"exit status {done.returncode}"
    return ("survived" if done.returncode == 0 else "killed"), detail


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="isgact-snapshot-") as tmp:
        snapshot = Path(tmp) / "repo"
        shutil.copytree(ROOT, snapshot, ignore=IGNORED)
        outcome, detail = run(CONTROL, snapshot)
        print(f"{outcome:8} {CONTROL.name}: {detail}", flush=True)
        if outcome != "survived":
            print("the control must survive: the suite does not pass on a comment-only patch, so no kill counts")
            return 1
        outcomes = []
        for mutant in MUTANTS:
            outcome, detail = run(mutant, snapshot)
            print(f"{outcome:8} {mutant.name}: {detail}", flush=True)
            outcomes.append(outcome)
    print(f"{outcomes.count('killed')} killed, {outcomes.count('survived')} survived, {outcomes.count('stale')} stale")
    return 0 if outcomes.count("killed") == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())

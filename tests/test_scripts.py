"""The shipped scripts run to completion against the library in src/."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["scripts/worked_examples.py"], ["uniqueness audit: ok"]),
        # every draw is audited; the catalog's restrictions stay far below the candidate budget
        (["scripts/randomized_audit.py", "--draws", "5"], ["uniqueness decided in 5, skipped over the bound in 0"]),
        (
            ["scripts/layer_times.py", "--n", "8"],
            [
                # Z_8 on 4 of its points: 8 arrows times 4 points of seeds, one class per group element
                "Z_8 half restriction: 8 arrows, 4 points, 32 seeds, 8 classes",
                # the structure load is split into its three parts
                "Z_8 structure inverse search",
                # and so is the load of the pair groupoid with about as many arrows
                "P_3 structure inverse search",
                # and so is the load of the largest symmetric inverse monoid with at most as many arrows
                "I_2 structure axiom scan",
                # the input's linear checks are timed where the action first reads them
                "linear checks ",
                # and what isgact validate runs on the half: P, then E on the same decision
                "validate (P then E) ",
            ],
        ),
    ],
    ids=["worked_examples", "randomized_audit", "layer_times"],
)
def test_script_exits_cleanly(argv, expected):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    for line in expected:
        assert line in done.stdout


def test_every_mutant_patch_applies_exactly_once():
    # the mutants themselves run in CI (scripts/mutants.py); here only their patches are checked against the source
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    names = [mutant.name for mutant in [mutants.CONTROL, *mutants.MUTANTS]]
    assert mutants.MUTANTS and len(set(names)) == len(names)
    for mutant in [mutants.CONTROL, *mutants.MUTANTS]:
        assert mutant.path.startswith("src/"), mutant.name
        assert mutant.old != mutant.new, mutant.name
        assert mutants.occurrences(ROOT, mutant) == 1, mutant.name

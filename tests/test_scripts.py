"""The shipped scripts run to completion against the library in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["scripts/worked_examples.py"], "uniqueness audit: ok"),
        # every draw is audited; the catalog's restrictions stay far below the candidate budget
        (["scripts/randomized_audit.py", "--draws", "5"], "uniqueness decided in 5, skipped over the bound in 0"),
        # Z_8 on 4 of its points: 8 arrows times 4 points of seeds, one class per group element
        (["scripts/layer_times.py", "--n", "8"], "Z_8 half restriction: 8 arrows, 4 points, 32 seeds, 8 classes"),
        # the structure load is split into its three parts
        (["scripts/layer_times.py", "--n", "8"], "Z_8 structure inverse search"),
        # and so is the load of the pair groupoid with about as many arrows
        (["scripts/layer_times.py", "--n", "8"], "P_3 structure inverse search"),
        # and so is the load of the largest symmetric inverse monoid with at most as many arrows
        (["scripts/layer_times.py", "--n", "8"], "I_2 structure axiom scan"),
    ],
    ids=[
        "worked_examples",
        "randomized_audit",
        "layer_times",
        "layer_times_load",
        "layer_times_pair_groupoid_load",
        "layer_times_symmetric_inverse_load",
    ],
)
def test_script_exits_cleanly(argv, expected):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout

#!/usr/bin/env python3
"""Seconds per stage of ``isgact globalize`` on the half restriction of Z_n.

Z_n acts on its n points by rotation; the restriction keeps the points
0 .. n/2 - 1, so the seed set has n * (n/2) seeds and the globalization n
classes.  The inputs are written by ``perfbench/generate.py`` and parsed
from text.  Stages, each timed alone:

    parse          parse_action on the .pact text (after the structure is loaded)
    input P scan   validate_p_axioms on the input
    index          the integer seed index (_seed_index)
    closure        the one-step relation and its union-find (the Quotient constructor)
    class maps     the rest of build_globalization: the class maps and the embedding
    output checks  is_valid_global and is_embedding on the output
    JSON           the ``globalize --format json`` text

Loading the structure is printed first, in three parts that are not
stages: the parse into the integer table, the semigroupoid axiom scan (it
grows with the number of composable triples) and the pseudo-inverse
search.  The same three parts follow for the pair groupoid P_k with
k = round(sqrt(n)): about as many arrows as Z_n, spread over k objects, so
about n^2 composable triples where Z_n has n^3.  Then they follow for the
symmetric inverse monoid I_m, the largest with at most n arrows: I_3 (34
arrows) at the default n = 200, I_4 (209 arrows) from n = 210.
With ``--repeat`` each stage reports its fastest run.  Standard library
only:

    PYTHONPATH=src python3 scripts/layer_times.py --n 200
"""

import argparse
import math
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import generate as gen  # noqa: E402

from isgact import core, globalization, infer_inverses, parse_action, parse_structure  # noqa: E402
from isgact.cli import _globalization_json  # noqa: E402

# the names build_globalization looks up in its module, and the stage each one is
PROBED = (
    ("validate_p_axioms", "input P scan"),
    ("_seed_index", "index"),
    ("Quotient", "closure"),
    ("is_valid_global", "output checks"),
    ("is_embedding", "output checks"),
)
STAGES = ("parse", "input P scan", "index", "closure", "class maps", "output checks", "JSON")


def _timed(fn, stage, spent):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[stage] = spent.get(stage, 0.0) + time.perf_counter() - start

    return wrapper


def load_timed(structure, label):
    """Load a generated structure, print its three load parts under the label, and return it."""
    load: dict = {}
    start = time.perf_counter()
    table = parse_structure(structure.text()).table
    load["parse"] = time.perf_counter() - start
    scan = core.validate_semigroupoid
    core.validate_semigroupoid = _timed(scan, "axiom scan", load)
    try:
        start = time.perf_counter()
        isg = infer_inverses(table)
        load["inverse search"] = time.perf_counter() - start - load["axiom scan"]
    finally:
        core.validate_semigroupoid = scan
    for part, seconds in load.items():
        print(f"{label} {part:<15} {seconds:8.3f} s")
    return isg


def symmetric_inverse_size(k: int) -> int:
    """The number of arrows of I_k, the partial bijections of k points."""
    return sum(math.comb(k, j) ** 2 * math.factorial(j) for j in range(k + 1))


def run_once(action_text, isg) -> tuple[dict, object]:
    spent: dict = {}
    start = time.perf_counter()
    action = parse_action(action_text, isg)
    spent["parse"] = time.perf_counter() - start

    saved = [(name, getattr(globalization, name)) for name, _ in PROBED]
    for name, stage in PROBED:
        setattr(globalization, name, _timed(getattr(globalization, name), stage, spent))
    try:
        start = time.perf_counter()
        glob = globalization.build_globalization(action)
        total = time.perf_counter() - start
    finally:
        for name, original in saved:
            setattr(globalization, name, original)
    spent["class maps"] = total - sum(spent.get(stage, 0.0) for stage in {stage for _, stage in PROBED})
    spent["build_globalization"] = total

    start = time.perf_counter()
    _globalization_json(glob)
    spent["JSON"] = time.perf_counter() - start
    return spent, glob


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=200, help="order of the cyclic group (even, at least 2)")
    parser.add_argument("--repeat", type=int, default=1, help="runs per stage; the fastest is reported")
    args = parser.parse_args()
    if args.n < 2 or args.n % 2:
        parser.error("--n must be an even number of at least 2")

    structure, regular = gen.cyclic(args.n, random.Random(0))
    half = gen.restrict(regular, [str(i) for i in range(args.n // 2)])

    isg = load_timed(structure, f"Z_{args.n} structure")
    k = round(math.sqrt(args.n))
    load_timed(gen.pair_groupoid(k, random.Random(0))[0], f"P_{k} structure")
    m = 1
    while symmetric_inverse_size(m + 1) <= args.n:
        m += 1
    load_timed(gen.symmetric_inverse(m, random.Random(0))[0], f"I_{m} structure")

    best: dict = {}
    for _ in range(max(1, args.repeat)):
        spent, glob = run_once(half.text("Z.isgd"), isg)
        for stage, seconds in spent.items():
            best[stage] = min(best.get(stage, seconds), seconds)
    print(
        f"Z_{args.n} half restriction: {len(isg.arrows)} arrows, {len(half.carrier)} points, "
        f"{len(glob.quotient.seeds)} seeds, {glob.quotient.n_classes} classes"
    )
    for stage in STAGES:
        print(f"{stage:<14} {best[stage]:8.3f} s")
    print(f"build_globalization total {best['build_globalization']:8.3f} s")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end benchmark for isgact, a checker whose users want correct verdicts fast.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload validate-mix --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Each workload is a closed loop: one client in one process, no threads, jobs
back to back, whole decks at a time until ``--seconds`` of job time have been
measured.  The workload runs in a fresh child process so that ``setup_s`` and
``peak_rss_mb`` belong to it; set-up (interpreter, ``import isgact``, writing
the seeded inputs, warm-up) is timed from the child's launch to its first timed
job, in several launches, and reported as the median.

Times are reported at a reference machine speed (see ``speed.py``): the
processor may be shared, and its speed drifts by a fifth and more over
minutes, far beyond any bound a regression check could use.  The row line
also gives the figures as measured, before that scaling.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the decks
untraced for half the time and then traced, and prints the per-layer metrics:
span self-times and counts per job, plus the tracing overhead on the row line.
Every job's outcome is checked against the generator's known answer; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With ``--workload all`` each workload runs in its own
processes and one row per workload is printed.

Inputs are written under ``.perfbench_work/`` in the repository and removed
at exit.  Only the standard library is needed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("validate-mix", "globalize-orbits", "audit-universal")
SETUP_LAUNCHES = 5  # set-up is measured this many times per run; setup_s is their median
CHILD_TIMEOUT_S = 170

# per-layer metric: (kind, span name or counter).  Times are self-times per
# job, except cli.run_cli_s, the inclusive run_cli time per job.
PER_LAYER = {
    "textio.parse_structure_s": ("self", "textio.parse_structure"),
    "textio.parse_action_s": ("self", "textio.parse_action"),
    "textio.bytes": ("bytes", "textio.bytes"),
    "core.validate_semigroupoid_s": ("self", "core.validate_semigroupoid"),
    "core.infer_inverses_s": ("self", "core.infer_inverses"),
    "core.arrows": ("count", "core.arrows"),
    "core.composable_pairs": ("count", "core.composable_pairs"),
    "core.composable_triples": ("count", "core.composable_triples"),
    "core.violations": ("count", "core.violations"),
    "actions.validate_p_axioms_s": ("self", "actions.validate_p_axioms"),
    "actions.validate_e_axioms_s": ("self", "actions.validate_e_axioms"),
    "actions.points": ("count", "actions.points"),
    "globalization.build_seed_set_s": ("self", "globalization.build_seed_set"),
    "globalization.close_equivalence_s": ("self", "globalization.close_equivalence"),
    "globalization.build_globalization_s": ("self", "globalization.build_globalization"),
    "globalization.seeds": ("count", "globalization.seeds"),
    "globalization.classes": ("count", "globalization.classes"),
    "globalization.mediating_s": ("self", "globalization.mediating"),
    "globalization.verify_universal_s": ("self", "globalization.verify_universal"),
    "globalization.universal_candidates": ("count", "globalization.universal_candidates"),
    "globalization.universal_skipped": ("count", "globalization.universal_skipped"),
    "morphisms.globalization_triple_s": ("self", "morphisms.GlobalizationTriple"),
    "morphisms.is_embedding_s": ("self", "morphisms.is_embedding"),
    "cli.run_cli_s": ("inclusive", "cli.run_cli"),
    "cli.self_s": ("self", "cli.run_cli"),
}
UNITS = {"self": "s", "inclusive": "s", "count": "count", "bytes": "bytes"}


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten jobs beyond it: (percentile, value)."""
    ordered = sorted(times)
    n = len(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


# ---------------------------------------------------------------------------
# the workload process


class Runner:
    """Runs a deck in whole passes, timing each job and checking its outcome."""

    def __init__(self, deck, sampler):
        self.deck = deck
        self.sampler = sampler
        self.attempted = 0  # every job run, warm-up included
        self.failed = 0
        self.undecided = 0
        self.first_print: dict[int, int] = {}  # hash of each slot's first output

    def run_job(self, index, job, spans) -> tuple[float, float]:
        """Run, time and check one job: (seconds, seconds at the reference speed)."""
        self.attempted += 1
        spans.job = f"{self.attempted}:{job.label}"
        stolen = self.sampler.stolen
        start = time.perf_counter()
        try:
            outcome = job.run(spans)
        except Exception as exc:  # an unexpected exception is a failed job, not a crashed run
            outcome = None
            self.fail(job, f"raised {type(exc).__name__}: {exc}")
        end = time.perf_counter()
        elapsed = end - start - (self.sampler.stolen - stolen)
        normalized = elapsed / self.sampler.factor(start, end)
        if outcome is not None:
            self.check(index, job, outcome, spans)
        return elapsed, normalized

    def check(self, index, job, outcome, spans):
        try:
            problem = job.check(outcome)
            printed = hash(job.fingerprint(outcome))
        except Exception as exc:
            problem, printed = f"check raised {type(exc).__name__}: {exc}", None
        if problem is None and self.first_print.setdefault(index, printed) != printed:
            problem = "output differs from the first run of this job"
        if problem is not None:
            self.fail(job, problem)
        self.undecided += job.undecided(outcome)
        for name, value in job.counts(outcome).items():
            spans.count(name, value)

    def fail(self, job, problem):
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {job.label}: {problem}", file=sys.stderr)

    def warm_up(self, spans):
        """The cheapest job of each variant once, so that first calls pay nothing in the timed loop."""
        cheapest: dict = {}
        for i, job in enumerate(self.deck):
            cost = (job.sizes["seeds"], job.sizes["arrows"])
            if job.variant not in cheapest or cost < cheapest[job.variant][0]:
                cheapest[job.variant] = (cost, i)
        for _, i in cheapest.values():
            self.run_job(i, self.deck[i], spans)

    def measure(self, seconds: float, spans) -> tuple[list[float], list[float]]:
        """Whole decks until the jobs' reference-speed time reaches ``seconds``: (times, reference-speed times)."""
        times, normalized = [], []
        while sum(normalized) < seconds or not times:
            for i, job in enumerate(self.deck):
                elapsed, norm = self.run_job(i, job, spans)
                times.append(elapsed)
                normalized.append(norm)
        return times, normalized


def child(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import resource

    from speed import SpeedSampler

    with SpeedSampler() as sampler:
        started = time.perf_counter()
        import spans as tracing
        import workloads

        workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            runner = Runner(workloads.build_deck(args.workload, args.seed, workdir), sampler)
            runner.warm_up(tracing.Untraced())
            gc.collect()
            gc.freeze()  # set-up objects stay out of the collections the timed jobs trigger
            # set-up runs from the launch to here, less the sampler's own time
            setup = {
                "setup_s": time.monotonic() - args.launched - sampler.stolen,
                "setup_factor": sampler.factor(started, time.perf_counter()),
            }
            result = setup if args.child == "setup" else dict(measure(args, runner, tracing), **setup)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def measure(args, runner, tracing) -> dict:
    result = {"deck": len(runner.deck)}
    if args.trace:
        untraced = runner.measure(args.seconds / 2, tracing.Untraced())[1]
        spans = tracing.Spans(runner.sampler.clock)
        restore = tracing.install_probes(spans)
        try:
            raw, times = runner.measure(args.seconds / 2, spans)
        finally:
            restore()
        result["overhead_ms"] = 1e3 * (statistics.fmean(times) - statistics.fmean(untraced))
        result["layers"] = layer_metrics(spans, len(times))
        result["shares"] = layer_shares(spans, sum(raw))
        result["slots"] = slot_summary(spans, len(times) // len(runner.deck))
    else:
        raw, times = runner.measure(args.seconds, tracing.Untraced())
    percentile, tail_s = tail(times)
    result.update(
        attempted=runner.attempted,
        measured=len(times),
        failed=runner.failed,
        undecided=runner.undecided,
        elapsed_s=sum(times),
        raw_elapsed_s=sum(raw),
        p50_ms=1e3 * statistics.median(times),
        raw_p50_ms=1e3 * statistics.median(raw),
        tail_ms=1e3 * tail_s,
        raw_tail_ms=1e3 * tail(raw)[1],
        tail_percentile=percentile,
        sizes={k: sum(job.sizes[k] for job in runner.deck) / len(runner.deck) for k in ("arrows", "points", "seeds")},
    )
    return result


def layer_metrics(spans, jobs: int) -> dict[str, float]:
    totals = spans.totals()
    out = {}
    for name, (kind, key) in PER_LAYER.items():
        if kind in ("count", "bytes"):
            value = spans.counts.get(key, 0)
        else:
            inclusive, own = totals.get(key, (0.0, 0.0))
            value = inclusive if kind == "inclusive" else own
        out[name] = value / jobs
    return out


def slot_summary(spans, passes: int) -> list[str]:
    """Per slot: traced milliseconds per run, and its three spans with the most self-time."""
    per_slot: dict = {}
    for (label, name), (_, own) in spans.totals(per_slot=True).items():
        per_slot.setdefault(label, {})[name] = 1e3 * own / passes
    lines = []
    for label, names in per_slot.items():
        total = sum(names.values())
        parts = sorted(((ms, name) for name, ms in names.items()), reverse=True)[:3]
        lines.append(f"  {label}: {total:.2f} ms; " + ", ".join(f"{name} {ms:.2f}" for ms, name in parts))
    return lines


def layer_shares(spans, job_time: float) -> dict[str, float]:
    """Share of traced job time spent in each module, by span self-time."""
    shares: dict[str, float] = {}
    for name, (_, own) in spans.totals().items():
        module = name.split(".", 1)[0]
        shares[module] = shares.get(module, 0.0) + own / job_time
    return shares


# ---------------------------------------------------------------------------
# the launcher


def launch(args, mode: str, deadline: float) -> dict:
    """Run one workload process to its end and return what it reports."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", mode, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--launched", repr(time.monotonic())]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{args.workload}: workload process timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        shutil.rmtree(WORK / f"{args.workload}-{args.seed}-{proc.pid}", ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload}: workload process failed (exit code {proc.returncode})")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(args) -> dict:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    launches = [launch(args, "setup", deadline) for _ in range(0 if args.trace else SETUP_LAUNCHES - 1)]
    launches.append(launch(args, "run", deadline))
    result = launches[-1]
    n = result["attempted"]
    ratios = {"failed_ratio": result["failed"] / n, "undecided_ratio": result["undecided"] / n}
    if args.trace:
        metrics = {name: (v, UNITS[PER_LAYER[name][0]]) for name, v in result["layers"].items()}
        metrics.update({k: (v, "ratio") for k, v in ratios.items()})
    else:
        metrics = {
            "setup_s": (statistics.median(run["setup_s"] / run["setup_factor"] for run in launches), "s"),
            "jobs_per_s": (result["measured"] / result["elapsed_s"], "1/s"),
            "job_p50_ms": (result["p50_ms"], "ms"),
            "job_tail_ms": (result["tail_ms"], "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    sizes = result["sizes"]
    row = (
        f"{args.workload} seed={args.seed}: {result['measured']} jobs timed ({result['deck']} per deck) "
        f"in {result['elapsed_s']:.2f} s, {n} attempted; job_tail_ms is p{result['tail_percentile']:.2f} "
        f"of {result['measured']}; "
        f"per job: {sizes['arrows']:.1f} arrows, {sizes['points']:.1f} carrier points, {sizes['seeds']:.1f} seeds; "
        + "; ".join(f"{k} {v:.4g}" for k, v in ratios.items())
        + f"; as measured, before scaling to the reference speed: setup_s {statistics.median(run['setup_s'] for run in launches):.4g}, "
        f"jobs_per_s {result['measured'] / result['raw_elapsed_s']:.4g}, job_p50_ms {result['raw_p50_ms']:.4g}, "
        f"job_tail_ms {result['raw_tail_ms']:.4g}"
    )
    if args.trace:
        row += f"; tracing overhead {result['overhead_ms']:.3f} ms per job; self-time share: " + ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in sorted(result["shares"].items(), key=lambda kv: -kv[1])
        )
        row += "\nself-time per slot, ms per run:\n" + "\n".join(result["slots"])
    return {"row": row, "metrics": metrics, "attempted": n, "failed": result["failed"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    parser.add_argument("--launched", type=float, help=argparse.SUPPRESS)  # the launcher's time.monotonic()
    args = parser.parse_args()
    if args.child:
        return child(args)
    if not (ROOT / "src" / "isgact" / "__init__.py").is_file():
        print(f"isgact sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    try:
        for name in names:
            args.workload = name
            reports.append(run_workload(args))
            print(reports[-1]["row"], flush=True)
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when empty: a concurrent run may still be using it
    if len(reports) > 1:
        for report in reports:
            print(report["row"].split(":", 1)[0] + ": " + ", ".join(
                f"{k}={v:.6g} {unit}" for k, (v, unit) in report["metrics"].items()))
        return 0
    report = reports[0]
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

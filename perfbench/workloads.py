"""The benchmark's workloads: seeded decks of isgact jobs with known answers.

A deck is a fixed list of slots.  The workload seed changes the arrow and
point names and their order, which entry a corruption hits and which points a
restriction keeps, but never a slot's family, size or kind, so the work in a
deck, and with it every end-to-end metric, barely depends on the seed.

Every expected answer comes from ``generate``, never from isgact.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import generate as gen

from isgact.cli import run_cli
from isgact.globalization import (
    build_globalization,
    check_fiber_injectivity,
    mediating,
    verify_universal,
)
from isgact.morphisms import ActionMap, GlobalizationTriple, inclusion_map
from isgact.textio import load_action

# verify_universal's default exhaustive_bound: above it the uniqueness audit is skipped.
SKIP_BOUND = 1_000_000


class Job:
    """One unit of work; ``run`` is timed, ``check`` is not."""

    def __init__(self, label: str, variant: str, arrows: int, points: int = 0, seeds: int = 0):
        self.label = label
        self.variant = variant  # warm-up runs the cheapest job of each variant
        self.sizes = {"arrows": arrows, "points": points, "seeds": seeds}

    def run(self, spans):
        raise NotImplementedError

    def check(self, outcome) -> str | None:
        """None when the outcome matches the known answer, else what differs."""
        raise NotImplementedError

    def fingerprint(self, outcome) -> str:
        """Everything a repeat of this job must reproduce byte for byte."""
        return repr(outcome)

    def undecided(self, outcome) -> bool:
        return False

    def counts(self, outcome) -> dict:
        return {}


def _cli(spans, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = spans.call("cli.run_cli", run_cli, argv)
    return code, out.getvalue(), err.getvalue()


class ValidateJob(Job):
    """``isgact validate`` on a structure file and, for some jobs, an action file."""

    def __init__(self, label, variant, files, code, text=None, tag=None, **sizes):
        super().__init__(label, variant, **sizes)
        self.argv = ["validate", *files]
        self.code = code
        self.text = text  # exact stdout of an accepted input
        self.tag = tag  # violation tag a rejected input must report

    def run(self, spans):
        return _cli(spans, self.argv)

    def check(self, outcome):
        code, out, err = outcome
        if code != self.code:
            return f"exit code {code}, expected {self.code}: {(out + err)[:200]!r}"
        if err:
            return f"unexpected stderr {err[:200]!r}"
        if self.text is not None and out != self.text:
            return f"stdout {out[:200]!r}, expected {self.text[:200]!r}"
        if self.tag is not None and f"[{self.tag}]" not in out:
            return f"violation tag {self.tag} missing from {out[:200]!r}"
        return None


class GlobalizeJob(Job):
    """``isgact globalize A.pact --format json`` on a restricted orbit union."""

    def __init__(self, label, path, action: gen.Action, classes=None, **sizes):
        super().__init__(label, "globalize", **sizes)
        self.argv = ["globalize", path, "--format", "json"]
        self.seeds = [[s, x] for s, x in action.seeds()]
        self.carrier = list(action.carrier)
        self.classes = classes  # closed form where one exists

    def run(self, spans):
        return _cli(spans, self.argv)

    def check(self, outcome):
        code, out, err = outcome
        if code != 0 or err:
            return f"exit code {code}: {err[:200]!r}"
        payload = json.loads(out)
        if payload["seeds"] != self.seeds:
            return f"{len(payload['seeds'])} seeds, expected the {len(self.seeds)} of sum |dom(s*s)|"
        members = [m for c in payload["classes"] for m in c["members"]]
        if sorted(members) != sorted(self.seeds) or [c["id"] for c in payload["classes"]] != list(
            range(len(payload["classes"]))
        ):
            return "classes do not partition the seeds"
        if self.classes is not None and len(payload["classes"]) != self.classes:
            return f"{len(payload['classes'])} classes, expected {self.classes}"
        embedding = payload["embedding"]
        if [x for x, _ in embedding] != self.carrier or len({c for _, c in embedding}) != len(embedding):
            return "embedding is not an injective map on the carrier"
        return None


class AuditJob(Job):
    """The randomized-audit API chain plus the uniqueness audit, on an inclusion into a global action."""

    def __init__(self, label, base_path, sub_path, sub: gen.Action, target_points, perturb, skip, classes, rank, **sizes):
        super().__init__(label, "perturbed" if perturb else "skipped" if skip else "audited", **sizes)
        self.base_path = base_path
        self.sub_path = sub_path
        self.carrier = list(sub.carrier)
        self.target_points = target_points
        self.perturb = perturb  # the embedded point whose class sigma sends elsewhere, or None
        self.skip = skip  # candidates exceed SKIP_BOUND, so the audit must leave its skip note
        self.classes = classes  # closed form where one exists
        self.rank = rank  # picks the wrong value for the perturbed class

    def run(self, spans):
        base, _ = spans.call("textio.load_action", load_action, self.base_path)
        action, _ = spans.call("textio.load_action", load_action, self.sub_path)
        glob = spans.call("globalization.build_globalization", build_globalization, action)
        j = spans.call("morphisms.inclusion_map", inclusion_map, action, base)
        triple = spans.call("morphisms.GlobalizationTriple", GlobalizationTriple, j)
        sigma = spans.call("globalization.mediating", mediating, glob, triple)
        audited = sigma
        if self.perturb is not None:
            mapping = dict(sigma.mapping)
            c = glob.canonical_embedding.mapping[self.perturb]
            others = [z for z in base.carrier if z != mapping[c]]
            mapping[c] = others[self.rank % len(others)]
            audited = spans.call("morphisms.ActionMap", ActionMap, glob.global_action, base, mapping)
        report = spans.call("globalization.verify_universal", verify_universal, glob, triple, audited)
        fiber = spans.call("globalization.check_fiber_injectivity", check_fiber_injectivity, sigma, glob)
        return glob, sigma, report, fiber

    def check(self, outcome):
        glob, sigma, report, fiber = outcome
        n = len(glob.global_action.carrier)
        if self.classes is not None and n != self.classes:
            return f"{n} classes, expected {self.classes}"
        emb = glob.canonical_embedding.mapping
        if sorted(emb) != sorted(self.carrier) or len(set(emb.values())) != len(emb):
            return "canonical embedding is not injective on the carrier"
        if any(sigma.mapping[emb[x]] != x for x in self.carrier):
            return "sigma o i differs from j"
        if not fiber.ok:
            return "mediating map is not injective on a fiber"
        tags = report.tags()
        if self.perturb is None and tags:
            return f"audit rejected the true sigma: {sorted(tags)}"
        if self.perturb is not None and "commutes" not in tags:
            return f"audit missed the perturbed class: {sorted(tags)}"
        if self.undecided(outcome) != self.skip:
            return f"skip note {list(report.notes)}, expected a skip: {self.skip}"
        return None

    def fingerprint(self, outcome):
        glob, sigma, report, fiber = outcome
        return repr((len(glob.global_action.carrier), sorted(sigma.mapping.items()), report.render(), fiber.render()))

    def undecided(self, outcome):
        return any(note.startswith("uniqueness skipped") for note in outcome[2].notes)

    def counts(self, outcome):
        classes = len(outcome[0].global_action.carrier)
        return {
            "globalization.universal_candidates": self.target_points**classes,
            "globalization.universal_skipped": int(self.undecided(outcome)),
        }


# ---------------------------------------------------------------------------
# decks

# validate-mix: (family, size, variant).  Variants: "valid" (structure only),
# "action" (structure and its natural action), and the three corruptions
# "product", "inverse" and "range"; about a third of the slots are
# corrupted.  I_4 takes most of the deck's time.  So that the median and the
# tail job do not jump between slots of different cost from run to run, the
# middle of the deck is a band of twenty-four Z_14 tables of one cost (a wrong
# [inverse] line costs a full load), the tail falls among four L_32 tables,
# and the product swaps, whose cost depends on how many triples they break,
# are all on small tables.
VALIDATE_SLOTS = [
    ("I", 4, "valid"), ("I", 3, "valid"), ("I", 3, "action"), ("I", 2, "valid"), ("I", 2, "action"),
    ("Z", 8, "valid"), ("Z", 12, "action"), ("Z", 16, "valid"), ("Z", 20, "action"), ("Z", 24, "valid"),
    ("Z", 28, "valid"), ("Z", 6, "action"),
    ("P", 3, "valid"), ("P", 4, "action"), ("P", 5, "valid"), ("P", 6, "action"), ("P", 7, "valid"),
    ("L", 8, "action"), ("L", 12, "valid"), ("L", 16, "valid"), ("L", 24, "action"), *[("L", 32, "valid")] * 4,
    ("H", 8, "valid"), ("H", 8, "action"),
    *[("Z", 14, "valid")] * 18, *[("Z", 14, "inverse")] * 6,
    ("Z", 6, "product"), ("I", 3, "inverse"), ("I", 2, "range"), ("I", 2, "product"),
    ("Z", 10, "product"), ("Z", 18, "inverse"), ("Z", 14, "range"), ("Z", 8, "range"),
    ("P", 4, "inverse"), ("P", 5, "range"), ("P", 3, "inverse"),
    ("L", 12, "product"), ("L", 20, "range"), ("L", 8, "product"),
    ("H", 8, "product"), ("H", 8, "inverse"), ("H", 8, "range"),
]

# globalize-orbits: (family, size, orbits, fraction of the union's carrier kept).
# Every slot gives hundreds of seeds; the fraction and orbit count vary how
# many seeds share a class.
GLOBALIZE_SLOTS = [
    ("Z", 4, 60, 0.9), ("Z", 4, 100, 0.4), ("Z", 4, 150, 0.2), ("Z", 4, 40, 0.7),
    ("Z", 5, 40, 0.3), ("Z", 5, 25, 0.8), ("Z", 5, 60, 0.5), ("Z", 5, 100, 0.15),
    ("Z", 6, 40, 0.5), ("Z", 6, 60, 0.2), ("Z", 6, 25, 0.6), ("Z", 6, 100, 0.1),
    ("Z", 7, 20, 0.7), ("Z", 7, 40, 0.25), ("Z", 7, 60, 0.1),
    ("Z", 8, 15, 0.5), ("Z", 8, 50, 0.1), ("Z", 8, 25, 0.3), ("Z", 8, 12, 0.8),
    ("I", 2, 60, 0.6), ("I", 2, 100, 0.5), ("I", 2, 150, 0.3), ("I", 2, 80, 0.8),
    ("I", 3, 12, 0.5), ("I", 3, 8, 0.9), ("I", 3, 20, 0.3), ("I", 3, 30, 0.2),
    ("H", 8, 40, 0.5), ("H", 8, 60, 0.3), ("H", 8, 25, 0.8), ("H", 8, 100, 0.2),
    ("Z", 5, 30, 0.6), ("Z", 6, 30, 0.4), ("Z", 8, 20, 0.4), ("I", 2, 120, 0.4), ("I", 3, 15, 0.4),
    ("H", 8, 50, 0.4),
]


# audit-universal: (family, size, orbits, orbits touched, points kept per touched orbit).
# Candidate counts |Y|^|classes| run from 4 to 262,144; the last four exceed
# the bound (8^8, 8^8, 14^7 and 10^10), so their uniqueness audit is skipped today.
# The eleven two-point Z_5 slots (5^5 candidates) are the band the median job
# falls in, so that it does not jump between slots of different cost.
AUDIT_SLOTS = [
    ("Z", 3, 1, 1, 1), ("Z", 3, 1, 1, 2), ("Z", 4, 1, 1, 1), ("Z", 4, 1, 1, 2), ("Z", 4, 1, 1, 3),
    ("Z", 5, 1, 1, 1), ("Z", 5, 1, 1, 1), *[("Z", 5, 1, 1, 2)] * 11, ("Z", 5, 1, 1, 3),
    ("Z", 6, 1, 1, 1), ("Z", 6, 1, 1, 2), ("Z", 6, 1, 1, 2), ("Z", 6, 1, 1, 2),
    ("Z", 6, 1, 1, 3), ("Z", 6, 1, 1, 3), ("Z", 6, 1, 1, 4), ("Z", 6, 1, 1, 5),
    ("Z", 3, 2, 1, 1), ("Z", 3, 2, 2, 1), ("Z", 3, 2, 2, 2),
    ("Z", 2, 2, 1, 1), ("Z", 2, 2, 2, 1), ("Z", 2, 3, 2, 1), ("Z", 2, 3, 3, 1), ("Z", 2, 4, 3, 1),
    ("P", 3, 1, 1, 1), ("P", 4, 1, 1, 1), ("P", 5, 1, 1, 1), ("P", 3, 2, 1, 1), ("P", 3, 2, 2, 1), ("P", 4, 2, 1, 1),
    ("I", 2, 1, 1, 1), ("I", 2, 2, 2, 1), ("H", 8, 1, 1, 1),
    ("Z", 8, 1, 1, 1), ("Z", 4, 2, 2, 1), ("Z", 7, 2, 1, 1), ("Z", 5, 2, 2, 1),
]


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _validate_job(i, slot, rng, workdir: Path) -> Job:
    kind, size, variant = slot
    st, action = gen.family(kind, size, rng)
    stem = f"{i:02d}-{st.name}"
    sizes = {"arrows": len(st.arrows)}
    if variant == "product":
        spath = _write(workdir / f"{stem}.isgd", st.text(mul=gen.swap_product(st, rng)))
        return ValidateJob(stem, variant, [spath], 1, tag="associativity", **sizes)
    if variant == "inverse":
        spath = _write(workdir / f"{stem}.isgd", st.text(inv=gen.wrong_inverse(st, rng)))
        return ValidateJob(stem, variant, [spath], 1, tag="declared-inverse", **sizes)
    spath = _write(workdir / f"{stem}.isgd", st.text())
    ok = f"{spath}: ok (inverse semigroupoid, {len(st.arrows)} arrows, {len(st.idempotents())} idempotents)\n"
    if variant == "valid":
        return ValidateJob(stem, variant, [spath], 0, text=ok, **sizes)
    sizes["points"] = len(action.carrier)
    ref = Path(spath).name
    if variant == "range":
        apath = _write(workdir / f"{stem}.pact", action.text(ref, dom_of=gen.bad_range(action, rng)))
        return ValidateJob(stem, variant, [spath, apath], 1, tag="theta-range", **sizes)
    apath = _write(workdir / f"{stem}.pact", action.text(ref))
    text = ok + f"{apath} [definitional axioms]: ok\n{apath} [bijection axioms]: ok\n"
    return ValidateJob(stem, variant, [spath, apath], 0, text=text, **sizes)


def _globalize_job(i, slot, rng, workdir: Path) -> Job:
    kind, size, orbits, fraction = slot
    st, action = gen.family(kind, size, rng)
    union = gen.orbit_union(action, orbits, rng)
    sub = gen.restrict(union, rng.sample(union.carrier, round(fraction * len(union.carrier))))
    stem = f"{i:02d}-{st.name}"
    _write(workdir / f"{stem}.isgd", st.text())
    path = _write(workdir / f"{stem}.pact", sub.text(f"{stem}.isgd"))
    touched = len({gen.orbit_of(x) for x in sub.carrier})
    classes = size * touched if kind == "Z" else None
    return GlobalizeJob(
        stem, path, sub, classes, arrows=len(st.arrows), points=len(sub.carrier), seeds=len(sub.seeds())
    )


def _audit_job(i, slot, perturb, rng, workdir: Path) -> Job:
    kind, size, orbits, touched, per_orbit = slot
    st, action = gen.family(kind, size, rng)
    union = gen.orbit_union(action, orbits, rng)
    kept = []
    for orbit in rng.sample(sorted({gen.orbit_of(x) for x in union.carrier}), touched):
        kept += rng.sample([x for x in union.carrier if gen.orbit_of(x) == orbit], per_orbit)
    sub = gen.restrict(union, kept)
    stem = f"{i:02d}-{st.name}"
    ref = _write(workdir / f"{stem}.isgd", st.text())
    base_path = _write(workdir / f"{stem}-base.pact", union.text(Path(ref).name))
    sub_path = _write(workdir / f"{stem}-sub.pact", sub.text(Path(ref).name))
    y = len(union.carrier)
    seeds = len(sub.seeds())
    if kind == "Z":
        classes = size * touched
        skip = y**classes > SKIP_BOUND
    else:
        # no closed form: the embedding gives at least one class per point and
        # every class holds a seed, so keep only slots these bounds decide
        classes = None
        if y ** len(sub.carrier) > SKIP_BOUND:
            skip = True
        elif y**seeds <= SKIP_BOUND:
            skip = False
        else:
            raise ValueError(f"audit slot {slot} is neither surely skipped nor surely audited")
    return AuditJob(
        f"{stem}{'-perturbed' if perturb else ''}",
        base_path,
        sub_path,
        sub,
        y,
        rng.choice(sub.carrier) if perturb else None,
        skip,
        classes,
        rng.randrange(y),
        arrows=len(st.arrows),
        points=len(sub.carrier),
        seeds=seeds,
    )


def build_deck(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write the workload's inputs under ``workdir`` and return its deck of jobs."""

    def rng(i):
        return random.Random(f"{workload}/{seed}/{i}")

    if workload == "validate-mix":
        return [_validate_job(i, slot, rng(i), workdir) for i, slot in enumerate(VALIDATE_SLOTS)]
    if workload == "globalize-orbits":
        return [_globalize_job(i, slot, rng(i), workdir) for i, slot in enumerate(GLOBALIZE_SLOTS)]
    if workload == "audit-universal":
        # every slot twice: once with the true sigma and once with a perturbed one
        return [
            _audit_job(2 * i + p, slot, bool(p), rng(2 * i + p), workdir)
            for i, slot in enumerate(AUDIT_SLOTS)
            for p in (0, 1)
        ]
    raise ValueError(f"unknown workload {workload!r}")

"""Span recorder for the traced run, and the probes it installs in isgact.

A span is one call: name, start, end, parent span, job id and whether it is
a probe.  Top-level spans are the public calls a job makes itself; probes are
inner public functions, intercepted by rebinding the module-level name their
caller looks up, and are nested inside a top-level span, so they attribute
time without adding to a job's time.  Spans stay in memory until the run
ends; the untraced run uses ``Untraced`` and records nothing.
"""

from __future__ import annotations

import importlib
import time


class Untraced:
    """Calls straight through: the end-to-end run measures isgact alone."""

    job = None

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass


class Spans:
    """In-memory span and counter recorder."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.records: list[list] = []  # [name, start, end, parent index or -1, job id, probe]
        # job ids read "<attempt number>:<slot label>"
        self.counts: dict[str, float] = {}
        self.job = None
        self._stack: list[int] = []

    def call(self, name, fn, *args, probe=False, **kwargs):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job, probe]
        self._stack.append(len(self.records))
        self.records.append(record)
        record[1] = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = self.clock()
            self._stack.pop()

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def totals(self, per_slot: bool = False) -> dict:
        """(inclusive seconds, self seconds) summed per span name, or per (slot label, span name)."""
        child_time = [0.0] * len(self.records)
        for _, start, end, parent, _, _ in self.records:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, job, _) in enumerate(self.records):
            key = (job.split(":", 1)[1], name) if per_slot else name
            incl, own = out.get(key, (0.0, 0.0))
            out[key] = (incl + end - start, own + end - start - child_time[i])
        return out


def _text_bytes(spans, args, result):
    spans.count("textio.bytes", len(args[0].encode("utf-8")))


def _structure_sizes(spans, args, result):
    """Arrows, composable pairs and triples from the table handed to infer_inverses, in O(arrows)."""
    table = args[0]
    into: dict = {}
    out_of: dict = {}
    for a in table.arrows:
        into[table.cod(a)] = into.get(table.cod(a), 0) + 1
        out_of[table.dom(a)] = out_of.get(table.dom(a), 0) + 1
    spans.count("core.arrows", len(table.arrows))
    spans.count("core.composable_pairs", sum(into.get(table.dom(s), 0) for s in table.arrows))
    spans.count(
        "core.composable_triples",
        sum(out_of.get(table.cod(s), 0) * into.get(table.dom(s), 0) for s in table.arrows),
    )
    spans.count("core.violations", len(getattr(result, "violations", ())))


def _carrier_points(spans, args, result):
    spans.count("actions.points", len(args[0].carrier))


def _closure_sizes(spans, args, result):
    spans.count("globalization.seeds", len(args[0]))
    spans.count("globalization.classes", result.n_classes)


# (module, name its caller looks up, span name, counter run on the call's arguments and result)
PROBES = (
    ("textio", "parse_structure", "textio.parse_structure", _text_bytes),
    ("textio", "parse_action", "textio.parse_action", _text_bytes),
    ("textio", "infer_inverses", "core.infer_inverses", _structure_sizes),
    ("core", "validate_semigroupoid", "core.validate_semigroupoid", None),
    ("cli", "validate_p_axioms", "actions.validate_p_axioms", _carrier_points),
    ("cli", "validate_e_axioms", "actions.validate_e_axioms", None),
    ("cli", "build_globalization", "globalization.build_globalization", None),
    ("globalization", "validate_p_axioms", "actions.validate_p_axioms", _carrier_points),
    ("globalization", "build_seed_set", "globalization.build_seed_set", None),
    ("globalization", "close_equivalence", "globalization.close_equivalence", _closure_sizes),
    ("globalization", "is_embedding", "morphisms.is_embedding", None),
    ("morphisms", "validate_p_axioms", "actions.validate_p_axioms", _carrier_points),
    ("morphisms", "is_embedding", "morphisms.is_embedding", None),
)


def _probe(spans, name, fn, counter):
    def wrapper(*args, **kwargs):
        result = spans.call(name, fn, *args, probe=True, **kwargs)
        if counter is not None:
            counter(spans, args, result)
        return result

    return wrapper


def install_probes(spans: Spans):
    """Rebind every probed name; returns a function that restores the originals."""
    saved = []
    for module_name, attr, span_name, counter in PROBES:
        module = importlib.import_module(f"isgact.{module_name}")
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _probe(spans, span_name, original, counter))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore

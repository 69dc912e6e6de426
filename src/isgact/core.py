"""Finite semigroupoids: composition tables, axiom validation, inverses, natural order.

Objects and arrows are interned to dense integer indices at construction and
the multiplication table is stored as a dense |S| x |S| array with an explicit
"undefined" sentinel, so every axiom check is a plain exhaustive scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

UNDEF = -1


class StructuralError(ValueError):
    """Input data references undeclared names or is shaped wrongly.

    When the cause is a failed axiom scan, ``report`` holds its violations.
    """

    def __init__(self, message: str, report: ValidationReport | None = None):
        self.report = report
        super().__init__(message)


@dataclass(frozen=True)
class Violation:
    tag: str
    message: str
    witness: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an axiom scan: ok exactly when no violations were found."""

    violations: tuple[Violation, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def tags(self) -> set[str]:
        return {v.tag for v in self.violations}

    def render(self, subject: str = "") -> str:
        head = f"{subject}: " if subject else ""
        if self.ok:
            lines = [head + "ok"]
        else:
            lines = [head + f"FAIL ({len(self.violations)} violation(s))"]
            for v in self.violations:
                wit = f"  witness={v.witness}" if v.witness else ""
                lines.append(f"  [{v.tag}] {v.message}{wit}")
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


def merge_reports(*reports: ValidationReport) -> ValidationReport:
    violations: list[Violation] = []
    notes: list[str] = []
    for r in reports:
        violations.extend(r.violations)
        notes.extend(r.notes)
    return ValidationReport(tuple(violations), tuple(notes))


class SemigroupoidTable:
    """Objects, arrows, endpoint maps, and a partial multiplication table.

    ``mul`` may be an arbitrary partial map on arrow pairs; whether it is
    defined on exactly the composable pairs (and is associative, etc.) is the
    business of :func:`validate_semigroupoid`, not of the constructor.  Only
    references to undeclared names are rejected here.
    """

    def __init__(
        self,
        objects: Iterable[str],
        arrows: Iterable[str],
        dom: Mapping[str, str],
        cod: Mapping[str, str],
        mul: Mapping[tuple[str, str], str],
    ):
        self.objects = tuple(objects)
        self.arrows = tuple(arrows)
        if len(set(self.objects)) != len(self.objects):
            raise StructuralError("duplicate object names")
        if len(set(self.arrows)) != len(self.arrows):
            raise StructuralError("duplicate arrow names")
        self._oidx = {o: i for i, o in enumerate(self.objects)}
        self._aidx = {a: i for i, a in enumerate(self.arrows)}

        self._dom = [UNDEF] * len(self.arrows)
        self._cod = [UNDEF] * len(self.arrows)
        for mapping, store, which in ((dom, self._dom, "dom"), (cod, self._cod, "cod")):
            for a in self.arrows:
                if a not in mapping:
                    raise StructuralError(f"{which} undefined for arrow {a!r}")
                o = mapping[a]
                if o not in self._oidx:
                    raise StructuralError(f"{which}({a!r}) = {o!r} is not a declared object")
                store[self._aidx[a]] = self._oidx[o]
        for m, which in ((dom, "dom"), (cod, "cod")):
            for a in m:
                if a not in self._aidx:
                    raise StructuralError(f"{which} given for undeclared arrow {a!r}")

        n = len(self.arrows)
        self._mul = [[UNDEF] * n for _ in range(n)]
        for (s, t), u in mul.items():
            for name in (s, t, u):
                if name not in self._aidx:
                    raise StructuralError(f"mul entry {s!r}*{t!r}={u!r} uses undeclared arrow {name!r}")
            self._mul[self._aidx[s]][self._aidx[t]] = self._aidx[u]

    def dom(self, s: str) -> str:
        return self.objects[self._dom[self._aidx[s]]]

    def cod(self, s: str) -> str:
        return self.objects[self._cod[self._aidx[s]]]

    def composable(self, s: str, t: str) -> bool:
        return self._dom[self._aidx[s]] == self._cod[self._aidx[t]]

    def mul(self, s: str, t: str) -> str | None:
        u = self._mul[self._aidx[s]][self._aidx[t]]
        return None if u == UNDEF else self.arrows[u]

    def composable_pairs(self) -> list[tuple[str, str]]:
        return [(s, t) for s in self.arrows for t in self.arrows if self.composable(s, t)]

    def defined_pairs(self) -> list[tuple[str, str]]:
        return [
            (s, t)
            for s in self.arrows
            for t in self.arrows
            if self._mul[self._aidx[s]][self._aidx[t]] != UNDEF
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SemigroupoidTable):
            return NotImplemented
        return (
            self.objects == other.objects
            and self.arrows == other.arrows
            and self._dom == other._dom
            and self._cod == other._cod
            and self._mul == other._mul
        )

    def __repr__(self) -> str:
        return f"SemigroupoidTable({len(self.objects)} objects, {len(self.arrows)} arrows)"


def validate_semigroupoid(raw: SemigroupoidTable) -> ValidationReport:
    """Scan a raw table for semigroupoid axiom violations.

    Reports, with concrete witnesses: products missing on composable pairs,
    products present on non-composable pairs, endpoint incoherence of defined
    products, and associativity failures over all composable triples.
    """
    violations = []
    for s in raw.arrows:
        for t in raw.arrows:
            p = raw.mul(s, t)
            if raw.composable(s, t):
                if p is None:
                    violations.append(
                        Violation("totality", f"product {s} {t} undefined on a composable pair", (s, t))
                    )
                elif raw.dom(p) != raw.dom(t) or raw.cod(p) != raw.cod(s):
                    violations.append(
                        Violation("endpoints", f"product {s} {t} = {p} has wrong endpoints", (s, t, p))
                    )
            elif p is not None:
                violations.append(
                    Violation("definedness", f"product {s} {t} defined on a non-composable pair", (s, t))
                )

    for p in raw.arrows:
        for s in raw.arrows:
            if not raw.composable(p, s):
                continue
            ps = raw.mul(p, s)
            for t in raw.arrows:
                if not raw.composable(s, t):
                    continue
                st = raw.mul(s, t)
                if ps is None or st is None:
                    continue  # already reported as a totality violation
                left = raw.mul(ps, t)
                right = raw.mul(p, st)
                if left is None or right is None or left != right:
                    violations.append(
                        Violation(
                            "associativity",
                            f"({p} {s}) {t} = {left} but {p} ({s} {t}) = {right}",
                            (p, s, t),
                        )
                    )
    return ValidationReport(tuple(violations))


def pseudo_inverses(table: SemigroupoidTable, s: str) -> list[str]:
    """All arrows t with s t s = s and t s t = t, in declaration order."""
    out = []
    for t in table.arrows:
        if not (table.composable(s, t) and table.composable(t, s)):
            continue
        st, ts = table.mul(s, t), table.mul(t, s)
        if st is None or ts is None:
            continue
        if table.mul(st, s) == s and table.mul(ts, t) == t:
            out.append(t)
    return out


class InverseSemigroupoid:
    """A semigroupoid in which every arrow has a unique pseudo-inverse.

    The constructor is the one way in and it checks everything once: the
    semigroupoid axioms, then, only if they hold, the exhaustive
    pseudo-inverse search.  A failure raises a StructuralError whose
    ``report`` names the violations.
    """

    def __init__(self, table: SemigroupoidTable):
        report = validate_semigroupoid(table)
        inv: dict[str, str] = {}
        if report.ok:
            violations = []
            for s in table.arrows:
                cands = pseudo_inverses(table, s)
                if not cands:
                    violations.append(Violation("no-inverse", f"arrow {s} has no pseudo-inverse", (s,)))
                elif len(cands) > 1:
                    violations.append(
                        Violation(
                            "non-unique-inverse",
                            f"arrow {s} has several pseudo-inverses: {', '.join(cands)}",
                            (s, cands[0], cands[1]),
                        )
                    )
                else:
                    inv[s] = cands[0]
            report = ValidationReport(tuple(violations))
        if not report.ok:
            raise StructuralError("table is not an inverse semigroupoid:\n" + report.render(), report)
        self.table = table
        self._inv = inv
        self._idem = frozenset(e for e in table.arrows if table.mul(e, e) == e)

    @property
    def arrows(self) -> tuple[str, ...]:
        return self.table.arrows

    @property
    def objects(self) -> tuple[str, ...]:
        return self.table.objects

    def dom(self, s: str) -> str:
        return self.table.dom(s)

    def cod(self, s: str) -> str:
        return self.table.cod(s)

    def composable(self, s: str, t: str) -> bool:
        return self.table.composable(s, t)

    def mul(self, s: str, t: str) -> str | None:
        return self.table.mul(s, t)

    def inv(self, s: str) -> str:
        return self._inv[s]

    def inverse_map(self) -> dict[str, str]:
        return dict(self._inv)

    def idempotent_set(self) -> frozenset[str]:
        """The arrows e with (e, e) composable and e e = e."""
        return self._idem

    # built on first use: loading a structure that no action scan reads pays nothing

    @cached_property
    def products(self) -> tuple[tuple[str, str, str], ...]:
        """Every composable pair with its product, (s, t, s t), s-major in declaration order."""
        return tuple((s, t, self.table.mul(s, t)) for s, t in self.table.composable_pairs())

    @cached_property
    def strict_order(self) -> tuple[tuple[str, str], ...]:
        """Every pair (s, t) with s <= t in the natural order and s != t, s-major in declaration order."""
        return tuple((s, t) for s in self.arrows for t in self.arrows if s != t and natural_leq(self, s, t))

    def __eq__(self, other) -> bool:
        if not isinstance(other, InverseSemigroupoid):
            return NotImplemented
        return self.table == other.table

    def __repr__(self) -> str:
        return f"InverseSemigroupoid({len(self.objects)} objects, {len(self.arrows)} arrows)"


def infer_inverses(table: SemigroupoidTable) -> InverseSemigroupoid | ValidationReport:
    """Find the unique pseudo-inverse of every arrow by exhaustive search.

    Returns the inverse semigroupoid on success; otherwise the report of the
    failed axiom scan, or one whose violations name the arrows with no (or
    more than one) pseudo-inverse.
    """
    try:
        return InverseSemigroupoid(table)
    except StructuralError as exc:
        return exc.report


def natural_leq(isg: InverseSemigroupoid, s: str, t: str) -> bool:
    """The natural partial order: endpoints agree and s = t (s* s)."""
    if isg.dom(s) != isg.dom(t) or isg.cod(s) != isg.cod(t):
        return False
    return isg.mul(t, isg.mul(isg.inv(s), s)) == s


def is_identity(table: SemigroupoidTable, e: str) -> bool:
    """True when e s = s and t e = t for every composable partner."""
    for s in table.arrows:
        if table.composable(e, s) and table.mul(e, s) != s:
            return False
        if table.composable(s, e) and table.mul(s, e) != s:
            return False
    return True

"""Finite semigroupoids: composition tables, axiom validation, inverses, natural order.

Objects and arrows are stored by position: interned to dense integer indices
at construction, the multiplication table a dense |S| x |S| array with an
explicit "undefined" sentinel.  The quadratic passes read those integers:
the totality, definedness and endpoint scan visits every pair, while the
pseudo-inverse search, idempotents, products and the natural order visit
each arrow's composable or parallel partners only, and keep their results
by position too.  The greedy generator search keeps the right Cayley tree it
walks, so the globalization composes its class maps along it without a second
walk.  ``inv``, ``inverse_map``, ``idempotent_set``, ``products``,
``strict_order`` and ``generators`` are name views of those integers.
An ``InverseSemigroupoid`` is the ``SemigroupoidTable`` that passed the
axiom scan and the pseudo-inverse search: it adopts the checked table's
lists and keeps its inverses and idempotents by position beside them.
Associativity is checked by an exhaustive scan that visits the composable
triples only, walking each arrow's right partners from the per-object index.
It reads each product s t once per composable pair, before the walk, and
takes the left side (p s) t from those lists: it is the row of p s.  The one
read per triple, p (s t), still goes by name.  An integer body would let a
benchmark run fit so many deck passes that its tail metric becomes the one
I_4 load, so it waits until that tail stops depending on the pass count
(ROADMAP item 2 after item 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Mapping

UNDEF = -1


class StructuralError(ValueError):
    """Input data references undeclared names or is malformed.

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


class SemigroupoidTable:
    """Objects, arrows, endpoint maps, and a partial multiplication table, stored as integers.

    ``_dom[a]`` and ``_cod[a]`` are object indices and ``_mul[s][t]`` the
    index of the product s t, or ``UNDEF``; names index ``objects`` and
    ``arrows``.  ``mul`` may be an arbitrary partial map on arrow pairs;
    whether it is defined on exactly the composable pairs (and is
    associative, etc.) is the business of :func:`validate_semigroupoid`, not
    of the constructor.  Only references to undeclared names are rejected
    here.  ``_from_ints`` takes integer rows that are in range by
    construction and checks nothing.
    """

    def __init__(
        self,
        objects: Iterable[str],
        arrows: Iterable[str],
        dom: Mapping[str, str],
        cod: Mapping[str, str],
        mul: Mapping[tuple[str, str], str],
    ):
        objects, arrows = tuple(objects), tuple(arrows)
        oidx = {o: i for i, o in enumerate(objects)}
        aidx = {a: i for i, a in enumerate(arrows)}
        if len(oidx) != len(objects):
            raise StructuralError("duplicate object names")
        if len(aidx) != len(arrows):
            raise StructuralError("duplicate arrow names")

        ends = []
        for mapping, which in ((dom, "dom"), (cod, "cod")):
            for a in arrows:
                if a not in mapping:
                    raise StructuralError(f"{which} undefined for arrow {a!r}")
                if mapping[a] not in oidx:
                    raise StructuralError(f"{which}({a!r}) = {mapping[a]!r} is not a declared object")
            ends.append([oidx[mapping[a]] for a in arrows])
        for m, which in ((dom, "dom"), (cod, "cod")):
            for a in m:
                if a not in aidx:
                    raise StructuralError(f"{which} given for undeclared arrow {a!r}")

        rows = [[UNDEF] * len(arrows) for _ in arrows]
        for (s, t), u in mul.items():
            for name in (s, t, u):
                if name not in aidx:
                    raise StructuralError(f"mul entry {s!r}*{t!r}={u!r} uses undeclared arrow {name!r}")
            rows[aidx[s]][aidx[t]] = aidx[u]
        self._adopt(objects, arrows, *ends, rows)

    @classmethod
    def _from_ints(cls, objects: tuple, arrows: tuple, dom: list[int], cod: list[int], mul: list[list[int]]) -> SemigroupoidTable:
        table = cls.__new__(cls)
        table._adopt(objects, arrows, dom, cod, mul)
        return table

    def _adopt(self, objects: tuple, arrows: tuple, dom: list[int], cod: list[int], mul: list[list[int]]) -> None:
        """Take the integer lists as the table's own, and index them.

        The indexes are built here, not by ``cached_property``: its first
        read materializes the instance ``__dict__``, after which CPython
        3.11 reads every attribute more slowly, and the associativity scan
        reads them once per composable triple (I_3's scan took 1.7 times
        as long).  The subclass ``InverseSemigroupoid`` does carry cached
        properties, so its constructor scans the table it is given and
        adopts that table's lists only after the scan.
        """
        self.objects, self.arrows, self._dom, self._cod, self._mul = objects, arrows, dom, cod, mul
        self._oidx = {o: i for i, o in enumerate(objects)}
        self._aidx = {a: i for i, a in enumerate(arrows)}
        # per object, the arrows with that codomain in declaration order: the right partners of the arrows leaving it
        self._into = [[] for _ in objects]
        for a, c in enumerate(cod):
            self._into[c].append(a)
        # per object, the arrows with that domain in declaration order: the left partners of the arrows into it
        self._leaving = [[] for _ in objects]
        for a, d in enumerate(dom):
            self._leaving[d].append(a)

    def dom(self, s: str) -> str:
        return self.objects[self._dom[self._aidx[s]]]

    def cod(self, s: str) -> str:
        return self.objects[self._cod[self._aidx[s]]]

    def composable(self, s: str, t: str) -> bool:
        return self._dom[self._aidx[s]] == self._cod[self._aidx[t]]

    def mul(self, s: str, t: str) -> str | None:
        u = self._mul[self._aidx[s]][self._aidx[t]]
        return None if u == UNDEF else self.arrows[u]

    def _composable(self) -> list[tuple[int, int]]:
        """Every composable pair (s, t) of arrow indices, s-major in declaration order."""
        into = self._into
        return [(s, t) for s, d in enumerate(self._dom) for t in into[d]]

    def _parallel(self) -> list[tuple[int, int]]:
        """Every pair (s, t) of distinct arrow indices with the same endpoints, s-major in declaration order."""
        hom: dict[tuple[int, int], list[int]] = {}
        for a, ends in enumerate(zip(self._dom, self._cod)):
            hom.setdefault(ends, []).append(a)
        return [(s, t) for s, ends in enumerate(zip(self._dom, self._cod)) for t in hom[ends] if t != s]

    def composable_pairs(self) -> list[tuple[str, str]]:
        a = self.arrows
        return [(a[s], a[t]) for s, t in self._composable()]

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

    The associativity scan visits only the composable triples (p, s, t): s
    runs over the arrows into dom(p) and t over those into dom(s), both in
    declaration order, so witnesses come in the order of the exhaustive
    scan over all triples.  The products s t do not depend on p, so each is
    read once per pair, before the walk, and zipped with the names of the
    arrows t; p s is read once per pair too.  Those lists also hold the left
    sides: when p s = u has domain dom(s), the values (p s) t over the
    arrows t into dom(s) are the products of u, in the same order.  Only a
    product p s with another domain, already reported under ``endpoints``,
    has its (p s) t read by name.  The body still reads p (s t) by name; its
    integer form waits on the benchmark's tail fix (ROADMAP item 2 after
    item 1).
    """
    violations = []
    arrows, dom, cod = raw.arrows, raw._dom, raw._cod
    for s, row in enumerate(raw._mul):
        name = arrows[s]
        for t, p in enumerate(row):
            if dom[s] == cod[t]:
                if p == UNDEF:
                    violations.append(
                        Violation("totality", f"product {name} {arrows[t]} undefined on a composable pair", (name, arrows[t]))
                    )
                elif dom[p] != dom[t] or cod[p] != cod[s]:
                    violations.append(
                        Violation(
                            "endpoints",
                            f"product {name} {arrows[t]} = {arrows[p]} has wrong endpoints",
                            (name, arrows[t], arrows[p]),
                        )
                    )
            elif p != UNDEF:
                violations.append(
                    Violation("definedness", f"product {name} {arrows[t]} defined on a non-composable pair", (name, arrows[t]))
                )

    into = [[arrows[t] for t in ts] for ts in raw._into]  # per object, the names of the arrows into it
    # per arrow s, its products s t over the arrows t into dom(s), in that order: each read once, not once per p
    products = [[raw.mul(s, t) for t in into[d]] for s, d in zip(arrows, dom)]
    aidx = raw._aidx
    for i, p in enumerate(arrows):
        for j in raw._into[dom[i]]:
            s = arrows[j]
            ps = raw.mul(p, s)
            if ps is None:
                continue  # already reported as a totality violation
            ts = into[dom[j]]
            u = aidx[ps]
            # (p s) t over the arrows t into dom(s) is the row of p s, unless p s has another domain (an endpoints violation)
            lefts = products[u] if dom[u] == dom[j] else [raw.mul(ps, t) for t in ts]
            for t, st, left in zip(ts, products[j], lefts):
                if st is None:
                    continue  # already reported as a totality violation
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


def _pseudo_inverses(table: SemigroupoidTable, i: int) -> list[int]:
    """The positions of all arrows t with s t s = s and t s t = t, s the arrow at position i, in declaration order."""
    dom, cod, mul = table._dom, table._cod, table._mul
    row = mul[i]
    out = []
    for t in table._into[dom[i]]:  # s t is composable; t s must be too
        if dom[t] != cod[i]:
            continue
        st, ts = row[t], mul[t][i]
        if st != UNDEF and ts != UNDEF and mul[st][i] == i and mul[ts][t] == t:
            out.append(t)
    return out


class InverseSemigroupoid(SemigroupoidTable):
    """A semigroupoid in which every arrow has a unique pseudo-inverse: the table that passed the checks.

    The constructor is the one way in and it checks everything once, on the
    table it is given: the semigroupoid axioms, then, only if they hold, the
    exhaustive pseudo-inverse search, one ``_pseudo_inverses`` call per
    arrow position.  Names appear only in the ``no-inverse`` and
    ``non-unique-inverse`` violations.  A failure raises a StructuralError
    whose ``report`` names the violations.  On success the structure adopts
    that table's lists, so it is that table with its inverses known:
    ``_inv[s]`` is the position of the inverse of arrow s, and ``_idem[s]``
    says whether s is idempotent.
    """

    def __init__(self, table: SemigroupoidTable):
        report = validate_semigroupoid(table)
        inv: list[int] = []
        if report.ok:
            violations = []
            for i, s in enumerate(table.arrows):
                cands = _pseudo_inverses(table, i)
                if not cands:
                    violations.append(Violation("no-inverse", f"arrow {s} has no pseudo-inverse", (s,)))
                elif len(cands) > 1:
                    names = [table.arrows[t] for t in cands]
                    violations.append(
                        Violation(
                            "non-unique-inverse",
                            f"arrow {s} has several pseudo-inverses: {', '.join(names)}",
                            (s, names[0], names[1]),
                        )
                    )
                else:
                    inv.append(cands[0])
            report = ValidationReport(tuple(violations))
        if not report.ok:
            raise StructuralError("table is not an inverse semigroupoid:\n" + report.render(), report)
        self._adopt(table.objects, table.arrows, table._dom, table._cod, table._mul)
        self._inv = inv
        self._idem = [row[e] == e for e, row in enumerate(table._mul)]

    def _names(self, indices: Iterable[int]) -> tuple[str, ...]:
        return tuple(map(self.arrows.__getitem__, indices))

    def inv(self, s: str) -> str:
        return self.arrows[self._inv[self._aidx[s]]]

    def inverse_map(self) -> dict[str, str]:
        return dict(zip(self.arrows, self._names(self._inv)))

    def idempotent_set(self) -> frozenset[str]:
        """The arrows e with (e, e) composable and e e = e."""
        return frozenset(compress(self.arrows, self._idem))

    # built on first use: loading a structure that no action scan reads pays nothing

    @cached_property
    def _products(self) -> list[tuple[int, int, int]]:
        """Every composable pair with its product, (s, t, s t), s-major in declaration order."""
        mul = self._mul
        return [(s, t, mul[s][t]) for s, t in self._composable()]

    @property
    def products(self) -> tuple[tuple[str, str, str], ...]:
        return tuple(map(self._names, self._products))

    @cached_property
    def _order(self) -> list[tuple[int, int]]:
        """Every pair (s, t) with s <= t in the natural order and s != t, s-major in declaration order."""
        mul, inv = self._mul, self._inv
        # s <= t exactly when t (s* s) = s, so only arrows with the same endpoints are compared
        return [(s, t) for s, t in self._parallel() if mul[t][mul[inv[s]][s]] == s]

    @property
    def strict_order(self) -> tuple[tuple[str, str], ...]:
        return tuple(map(self._names, self._order))

    @cached_property
    def _generator_walk(self) -> tuple[list[int], list[tuple[int, int, int]]]:
        """A generating set, greedy in declaration order, and the right Cayley tree the search walks.

        An arrow joins when the composable products of the earlier generators
        do not reach it.  The reached set is grown Froidure-Pin style: every
        product of generators is a shorter product times one generator, so
        closing under right multiplication by the generators reaches them all.
        The tree keeps the edge (u, g, u g), g a generator, by which the walk
        first reaches each arrow that is not a generator, u reached before u g.
        """
        mul = self._mul
        gens: list[int] = []
        tree: list[tuple[int, int, int]] = []
        reached = [False] * len(mul)
        for a in range(len(mul)):
            if reached[a]:
                continue
            reached[a] = True
            gens.append(a)
            # every reached arrow times the new generator, and the new generator times every generator
            todo = [(u, a) for u in gens] + [(ug, a) for _, _, ug in tree] + [(a, g) for g in gens]
            while todo:
                u, g = todo.pop()
                ug = mul[u][g]
                if ug != UNDEF and not reached[ug]:
                    reached[ug] = True
                    tree.append((u, g, ug))
                    todo += [(ug, h) for h in gens]
        return gens, tree

    @property
    def _generators(self) -> list[int]:
        return self._generator_walk[0]

    @property
    def generators(self) -> tuple[str, ...]:
        return self._names(self._generators)

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

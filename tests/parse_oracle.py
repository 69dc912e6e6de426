"""Reference oracle for the structure parser: the name-keyed parse and table build.

This is the earlier, obviously-correct route from .isgd text to a table.
Every product line becomes a ``(s, t) -> u`` name dict entry and every
section a list of ``(lineno, body)`` tuples; only then is the table
translated to integers, name by name.  The library parses straight into
the integer table instead; the tests require both routes to give the same
objects, arrows, ``_dom``, ``_cod``, ``_mul`` and declared inverses, and
the same ``ParseError`` on every broken input.  The name-keyed structure
passes (the axiom scan, pseudo-inverses, idempotents, products, natural
order) are here too, for the same comparison.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

from isgact import ParseError, StructuralError, ValidationReport, Violation

UNDEF = -1


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            yield lineno, body


def _token_col(body: str, token_index: int) -> int:
    col = 0
    for i, tok in enumerate(body.split()):
        col = body.index(tok, col)
        if i == token_index:
            return col + 1
        col += len(tok)
    return 1


_SECTION = re.compile(r"^\[([^\]]*)\]\s*$")


class NameKeyedTable:
    """The integer table, built from name-keyed dom, cod and mul maps one name at a time."""

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


def parse_structure(text: str) -> tuple:
    """Parse an .isgd file into (name-keyed table, declared inverse dict or None).

    The multiplication section must define exactly the composable pairs:
    a line on a non-composable pair and a missing composable pair are both
    positioned parse errors.  Everything semantic beyond that shape is left
    to the validators.
    """
    sections: dict[str, list[tuple[int, str]]] = {}
    header_line: dict[str, int] = {}
    current: str | None = None
    for lineno, body in _content_lines(text):
        m = _SECTION.match(body.strip())
        if m:
            current = m.group(1).strip()
            if current not in ("objects", "arrows", "mul", "inverse"):
                raise ParseError(lineno, 1, f"unknown section [{current}]")
            if current in sections:
                raise ParseError(lineno, 1, f"duplicate section [{current}]")
            sections[current] = []
            header_line[current] = lineno
            continue
        if current is None:
            raise ParseError(lineno, 1, "content before any section header")
        sections[current].append((lineno, body))

    for required in ("objects", "arrows", "mul"):
        if required not in sections:
            raise ParseError(1, 1, f"missing section [{required}]")

    objects: list[str] = []
    for lineno, body in sections["objects"]:
        for ti, o in enumerate(body.split()):
            if o in objects:
                raise ParseError(lineno, _token_col(body, ti), f"duplicate object {o}")
            objects.append(o)

    arrows: list[str] = []
    dom: dict[str, str] = {}
    cod: dict[str, str] = {}
    for lineno, body in sections["arrows"]:
        toks = body.split()
        if len(toks) != 5 or toks[1] != ":" or toks[3] != "->":
            raise ParseError(lineno, 1, "arrow line must read: name : dom -> cod")
        name, d, c = toks[0], toks[2], toks[4]
        if name in dom:
            raise ParseError(lineno, 1, f"duplicate arrow {name}")
        for ti, o in ((2, d), (4, c)):
            if o not in objects:
                raise ParseError(lineno, _token_col(body, ti), f"unknown object {o}")
        arrows.append(name)
        dom[name] = d
        cod[name] = c

    arrow_set = set(arrows)
    mul: dict[tuple[str, str], str] = {}
    for lineno, body in sections["mul"]:
        toks = body.split()
        if len(toks) != 4 or toks[2] != "=":
            raise ParseError(lineno, 1, "mul line must read: s t = u")
        s, t, u = toks[0], toks[1], toks[3]
        for ti, name in ((0, s), (1, t), (3, u)):
            if name not in arrow_set:
                raise ParseError(lineno, _token_col(body, ti), f"unknown arrow {name}")
        if dom[s] != cod[t]:
            raise ParseError(lineno, 1, f"pair ({s}, {t}) is not composable")
        if (s, t) in mul:
            raise ParseError(lineno, 1, f"duplicate product for ({s}, {t})")
        mul[(s, t)] = u
    missing = [(s, t) for s in arrows for t in arrows if dom[s] == cod[t] and (s, t) not in mul]
    if missing:
        shown = ", ".join(f"({s}, {t})" for s, t in missing[:6])
        more = "" if len(missing) <= 6 else f" and {len(missing) - 6} more"
        raise ParseError(header_line["mul"], 1, f"composable pairs without a product: {shown}{more}")

    inverse: dict[str, str] | None = None
    if "inverse" in sections:
        inverse = {}
        for lineno, body in sections["inverse"]:
            toks = body.split()
            if len(toks) != 3 or toks[1] != "=":
                raise ParseError(lineno, 1, "inverse line must read: s = t")
            s, t = toks[0], toks[2]
            for ti, name in ((0, s), (2, t)):
                if name not in arrow_set:
                    raise ParseError(lineno, _token_col(body, ti), f"unknown arrow {name}")
            if s in inverse:
                raise ParseError(lineno, 1, f"duplicate inverse for {s}")
            inverse[s] = t

    return NameKeyedTable(objects, arrows, dom, cod, mul), inverse


def validate_semigroupoid(raw: NameKeyedTable) -> ValidationReport:
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


def pseudo_inverses(table: NameKeyedTable, s: str) -> list[str]:
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


def idempotent_set(table) -> frozenset[str]:
    return frozenset(e for e in table.arrows if table.mul(e, e) == e)


def products(table) -> tuple[tuple[str, str, str], ...]:
    return tuple((s, t, table.mul(s, t)) for s in table.arrows for t in table.arrows if table.composable(s, t))


def strict_order(table, inv: dict[str, str]) -> tuple[tuple[str, str], ...]:
    """Every pair (s, t), s != t, with equal endpoints and s = t (s* s), s-major in declaration order."""
    out = []
    for s in table.arrows:
        for t in table.arrows:
            if s == t or table.dom(s) != table.dom(t) or table.cod(s) != table.cod(t):
                continue
            if table.mul(t, table.mul(inv[s], s)) == s:
                out.append((s, t))
    return tuple(out)

"""Partial actions of an inverse semigroupoid on a finite carrier.

Both axiom systems are validated by direct scan: the definitional one
(identity on idempotent domains, containment in the idempotent hull,
composition compatibility) and the equivalent bijection-based one.  Scans
read rows over carrier positions in carrier order, so witnesses come out
sorted, and names appear only in the violations they report.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from operator import le
from typing import Iterable, Mapping

from .core import InverseSemigroupoid, StructuralError, ValidationReport, Violation


class CoverageError(ValueError):
    """Carrier elements found outside every idempotent domain."""

    def __init__(self, uncovered: Iterable):
        self.uncovered = frozenset(uncovered)
        names = ", ".join(str(x) for x in sorted(self.uncovered, key=str))
        super().__init__(f"carrier elements outside every idempotent domain: {names}")


class PartialAction:
    """Per-arrow carrier subsets plus per-arrow maps between them, stored once over carrier positions.

    ``rows[s]`` holds, at each carrier position, the position theta[s] sends
    it to, or -1 where theta[s] is undefined; ``masks[s]`` marks the
    positions of dom_of[s].  theta[s] is intended to be a bijection from
    dom_of[inv(s)] onto dom_of[s].  ``theta`` and ``dom_of`` are read-only
    name views of that store, built on first read, so the store is not to be
    changed after construction.

    The constructor takes names and only checks that they refer to declared
    arrows and carrier elements; everything else is left to the validators
    so that broken inputs are reported, not silently repaired.
    ``_from_rows`` takes rows and masks that are in range by construction.
    """

    _theta: dict | None = None  # the name views, until first read
    _dom_of: dict | None = None

    def __init__(self, semigroupoid: InverseSemigroupoid, carrier: Iterable, dom_of: Mapping[str, Iterable], theta: Mapping[str, Mapping]):
        carrier = tuple(carrier)
        pos = {x: i for i, x in enumerate(carrier)}
        if len(pos) != len(carrier):
            raise StructuralError("duplicate carrier elements")

        arrows = set(semigroupoid.arrows)
        for which, m in (("dom_of", dom_of), ("theta", theta)):
            missing = arrows - set(m)
            extra = set(m) - arrows
            if missing:
                raise StructuralError(f"{which} missing arrows: {sorted(missing)}")
            if extra:
                raise StructuralError(f"{which} given for undeclared arrows: {sorted(extra)}")

        masks = {}
        for s in semigroupoid.arrows:
            sub = frozenset(dom_of[s])
            if not sub <= pos.keys():
                raise StructuralError(f"dom_of[{s}] leaves the carrier: {sorted(sub - pos.keys(), key=str)}")
            masks[s] = [x in sub for x in carrier]

        rows = {}
        for s in semigroupoid.arrows:
            row = rows[s] = [-1] * len(carrier)
            for x, y in dict(theta[s]).items():
                if x not in pos or y not in pos:
                    raise StructuralError(f"theta[{s}] maps {x!r} to {y!r} outside the carrier")
                row[pos[x]] = pos[y]
        self.semigroupoid, self.carrier, self.rows, self.masks, self._pos = semigroupoid, carrier, rows, masks, pos

    @classmethod
    def _from_rows(cls, semigroupoid: InverseSemigroupoid, carrier: tuple, rows: dict, masks: dict) -> PartialAction:
        action = cls.__new__(cls)
        action.semigroupoid, action.carrier, action.rows, action.masks = semigroupoid, carrier, rows, masks
        return action

    @cached_property
    def _pos(self) -> dict:
        """Each carrier element's position."""
        return {x: i for i, x in enumerate(self.carrier)}

    @property
    def theta(self) -> dict[str, dict]:
        """theta[s] as a dict from each point where it is defined to its image."""
        if self._theta is None:
            c = self.carrier
            self._theta = {s: {c[i]: c[j] for i, j in enumerate(self.rows[s]) if j >= 0} for s in self.semigroupoid.arrows}
        return self._theta

    @property
    def dom_of(self) -> dict[str, frozenset]:
        """dom_of[s] as a frozenset of points."""
        if self._dom_of is None:
            self._dom_of = {s: frozenset(x for x, inside in zip(self.carrier, self.masks[s]) if inside) for s in self.semigroupoid.arrows}
        return self._dom_of

    def sorted_elements(self, xs: Iterable) -> list:
        return sorted(xs, key=self._pos.__getitem__)

    def apply(self, s: str, x):
        """theta[s](x) when x lies in dom_of[inv(s)], else None."""
        i = self._pos.get(x)
        if i is None or not self.masks[self.semigroupoid.inv(s)][i]:
            return None
        return _name(self, self.rows[s][i])

    def __contains__(self, x) -> bool:
        return x in self._pos

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartialAction):
            return NotImplemented
        return self is other or (
            self.semigroupoid == other.semigroupoid
            and self._pos.keys() == other._pos.keys()
            and self.dom_of == other.dom_of
            and self.theta == other.theta
        )

    def __repr__(self) -> str:
        return f"PartialAction({len(self.carrier)} points, {len(self.semigroupoid.arrows)} arrows)"


def _name(action: PartialAction, j: int):
    """The carrier element at position j, or None for -1."""
    return action.carrier[j] if j >= 0 else None


def _union(masks: Iterable[list[bool]], n: int) -> list[bool]:
    """The positions, out of n, that lie in at least one of the masks."""
    return [any(bits) for bits in zip([False] * n, *masks)]


def _linear_violations(action: PartialAction) -> list[Violation]:
    """theta-domain, theta-range, P1 and P2: the checks that read each arrow's row and mask once."""
    isg = action.semigroupoid
    idem = isg.idempotent_set()
    rows, masks, name = action.rows, action.masks, action.carrier
    v: list[Violation] = []

    # Each theta[s] must be a map dom_of[inv(s)] -> dom_of[s]; only an arrow that fails loops to report.
    for s in isg.arrows:
        si = isg.inv(s)
        row, window, image = rows[s], masks[si], masks[s]
        defined = [j >= 0 for j in row]
        if defined != window:
            v += [Violation("theta-domain", f"theta[{s}] defined at {x} outside dom_of[{si}]", (s, x)) for x, d, w in zip(name, defined, window) if d > w]
            v += [Violation("theta-domain", f"theta[{s}] undefined at {x} of dom_of[{si}]", (s, x)) for x, d, w in zip(name, defined, window) if w > d]
        if not all(map(image.__getitem__, compress(row, defined))):
            for x, j in zip(name, row):
                if j >= 0 and not image[j]:
                    v.append(Violation("theta-range", f"theta[{s}] maps {x} to {name[j]} outside dom_of[{s}]", (s, x, name[j])))

    # P1: identity maps on idempotent domains; idempotent domains cover the carrier.
    for e in isg.arrows:
        if e in idem:
            for i, j in enumerate(rows[e]):
                if j >= 0 and j != i:
                    v.append(Violation("P1", f"theta[{e}] moves {name[i]} to {name[j]}; identity required", (e, name[i], name[j])))
    covered = _union((masks[e] for e in isg.arrows if e in idem), len(name))
    for x, inside in zip(name, covered):
        if not inside:
            v.append(Violation("P1", f"carrier element {x} lies in no idempotent domain", (x,)))

    # P2: dom_of[s] contained in dom_of[s inv(s)].
    for s in isg.arrows:
        e = isg.mul(s, isg.inv(s))
        if not all(map(le, masks[s], masks[e])):
            v += [Violation("P2", f"dom_of[{s}] element {x} missing from dom_of[{e}]", (s, x)) for x, a, b in zip(name, masks[s], masks[e]) if a > b]
    return v


def _p3_violations(action: PartialAction, s: str, t: str, st: str) -> list[Violation]:
    """P3 for one composable pair: the composite-domain equation plus pointwise agreement on it.

    The composite domain holds the points that theta[t] sends into
    dom_of[t] n dom_of[inv(s)], where theta[s](theta[t](x)) makes sense.
    """
    rows, masks, inv, name = action.rows, action.masks, action.semigroupoid.inv, action.carrier
    row_s, row_t, row_st = rows[s], rows[t], rows[st]
    image_t, window_s = masks[t], masks[inv(s)]
    lhs = [j >= 0 and image_t[j] and window_s[j] for j in row_t]
    rhs = [a and b for a, b in zip(masks[inv(st)], masks[inv(t)])]
    pair, meet = f"composite domain of ({s},{t})", f"dom_of[{inv(st)}] n dom_of[{inv(t)}]"
    v = [Violation("P3-domain", f"{pair} has extra element {x} over {meet}", (s, t, x)) for x, a, b in zip(name, lhs, rhs) if a > b]
    v += [Violation("P3-domain", f"{pair} misses element {x} of {meet}", (s, t, x)) for x, a, b in zip(name, lhs, rhs) if b > a]
    for i, inside in enumerate(rhs):
        through = row_s[row_t[i]] if row_t[i] >= 0 else -1
        if inside and (through < 0 or through != row_st[i]):
            through, direct = _name(action, through), _name(action, row_st[i])
            v.append(Violation("P3-value", f"theta[{s}](theta[{t}]({name[i]})) = {through} but theta[{st}]({name[i]}) = {direct}", (s, t, name[i])))
    return v


def validate_p_axioms(action: PartialAction) -> ValidationReport:
    """Check the definitional axiom system, with a witness per violation.

    P3 is first decided per composable pair (s, t) by one comparison of two
    lists read at the points where the row of t is defined: the row of s at
    each value, the row of s t at each point.  For arrows whose row is
    defined exactly on dom_of[inv] and lands in their own domain
    ("shaped"), they are equal exactly when P3 holds for the pair: both
    sides are undefined off dom_of[inv(s t)] n dom_of[inv t] and agree on
    it.  Only a pair that fails, or involves an arrow that is not shaped,
    runs the full check to build its report.
    """
    isg = action.semigroupoid
    rows, masks = action.rows, action.masks
    v = _linear_violations(action)
    keys, values, shaped = {}, {}, set()  # per arrow, the positions where its row is defined and the row there
    for s in isg.arrows:
        row, image = rows[s], masks[s]
        keys[s] = [i for i, j in enumerate(row) if j >= 0]
        values[s] = [row[i] for i in keys[s]]
        if [j >= 0 for j in row] == masks[isg.inv(s)] and all(map(image.__getitem__, values[s])):
            shaped.add(s)
    for s, t, st in isg.products:
        if s in shaped and t in shaped and st in shaped:
            if list(map(rows[s].__getitem__, values[t])) == list(map(rows[st].__getitem__, keys[t])):
                continue
        v.extend(_p3_violations(action, s, t, st))
    return ValidationReport(tuple(v))


def is_valid_global(action: PartialAction) -> bool:
    """validate_p_axioms(action).ok and is_global(action), decided along the generators.

    Once the linear checks pass and the action is global, P3 for a pair
    (s, t) is the partial-map equation theta[s t] = theta[s] o theta[t]
    (its domain half because dom_of[inv(s t)] lies in dom_of[inv(t)] for a
    valid global action).  If the equation holds on every right Cayley edge
    (s, g), g a generator, it holds for every t = g1 ... gk by induction on
    k: theta[s t' g] = theta[s t'] o theta[g] = theta[s] o theta[t'] o theta[g]
    = theta[s] o theta[t' g].  So one comparison of rows per edge replaces
    the scan over all composable pairs; the full scan is left to build a
    report.
    """
    if _linear_violations(action) or not is_global(action):
        return False
    isg = action.semigroupoid
    rows = action.rows
    gens = set(isg.generators)
    for s, g, sg in isg.products:
        if g in gens:
            row_s = rows[s]
            if rows[sg] != [row_s[j] if j >= 0 else -1 for j in rows[g]]:
                return False
    return True


def validate_e_axioms(action: PartialAction) -> ValidationReport:
    """Check the equivalent bijection-based axiom system."""
    isg = action.semigroupoid
    rows, masks, name = action.rows, action.masks, action.carrier
    v: list[Violation] = []

    # E1: each theta[s] is a bijection dom_of[inv(s)] -> dom_of[s] inverted by
    # theta[inv(s)], and the per-arrow domains cover the carrier.
    for s in isg.arrows:
        si = isg.inv(s)
        row = rows[s]
        off = [x for x, j, inside in zip(name, row, masks[si]) if (j >= 0) != inside]
        if off:
            v.append(Violation("E1", f"theta[{s}] is not defined exactly on dom_of[{si}]", (s, off[0])))
        image = [j for j in row if j >= 0]
        reached = set(image)
        if len(reached) != len(image):
            v.append(Violation("E1", f"theta[{s}] is not injective", (s,)))
        off = [name[i] for i, inside in enumerate(masks[s]) if (i in reached) != inside]
        if off:
            v.append(Violation("E1", f"theta[{s}] is not onto dom_of[{s}]", (s, off[0])))
        flipped = [-1] * len(row)
        for i, j in enumerate(row):
            if j >= 0:
                flipped[j] = i
        if flipped != rows[si]:
            v.append(Violation("E1", f"theta[{si}] is not the inverse map of theta[{s}]", (s, si)))
    for x, inside in zip(name, _union(masks.values(), len(name))):
        if not inside:
            v.append(Violation("E1", f"carrier element {x} lies in no arrow domain", (x,)))

    # E2: theta[st] extends theta[s] o theta[t] on the composite domain.
    for s, t, st in isg.products:
        row_s, row_st = rows[s], rows[st]
        image_t, window_s = masks[t], masks[isg.inv(s)]
        for i, j in enumerate(rows[t]):
            if j >= 0 and image_t[j] and window_s[j]:
                if row_st[i] < 0:
                    v.append(Violation("E2", f"theta[{st}] undefined at {name[i]} of the composite domain of ({s},{t})", (s, t, name[i])))
                elif row_st[i] != row_s[j]:
                    v.append(Violation("E2", f"theta[{s}] o theta[{t}] and theta[{st}] disagree at {name[i]}", (s, t, name[i])))

    # E3: domains are monotone for the natural order.
    for s, t in isg.strict_order:
        for x, inside, within in zip(name, masks[s], masks[t]):
            if inside and not within:
                v.append(Violation("E3", f"{s} <= {t} but dom_of[{s}] element {x} misses dom_of[{t}]", (s, t, x)))
    return ValidationReport(tuple(v))


def is_global(action: PartialAction) -> bool:
    """True when every dom_of[s] equals dom_of[s inv(s)] (the action is valid beforehand)."""
    isg = action.semigroupoid
    return all(action.masks[s] == action.masks[isg.mul(s, isg.inv(s))] for s in isg.arrows)


def restrict(source: PartialAction, subset: Iterable, trim: bool = False) -> PartialAction:
    """Co-restrict every arrow map to a subset of the carrier.

    The new domain of an arrow s collects the images under theta[s] of subset
    points that land back in the subset.  If some subset element ends up in no
    idempotent domain, a CoverageError is raised unless ``trim`` is set, in
    which case the carrier is cut down to the covered part.  The rows and
    masks are renumbered over the kept positions.
    """
    sub = frozenset(subset)
    unknown = sub - source._pos.keys()
    if unknown:
        raise StructuralError(f"subset leaves the carrier: {sorted(unknown, key=str)}")
    isg = source.semigroupoid
    n = len(source.carrier)

    inside = [x in sub for x in source.carrier]
    masks = {s: [False] * n for s in isg.arrows}
    for s in isg.arrows:
        for i, j in enumerate(source.rows[s]):
            if j >= 0 and inside[i] and inside[j]:
                masks[s][j] = True
    covered = _union((masks[e] for e in isg.arrows if e in isg.idempotent_set()), n)
    kept = [i for i in range(n) if inside[i]]
    uncovered = [source.carrier[i] for i in kept if not covered[i]]
    if uncovered:
        if not trim:
            raise CoverageError(uncovered)
        kept = [i for i in kept if covered[i]]

    new = [-1] * n  # each kept position's new position
    for k, i in enumerate(kept):
        new[i] = k
    rows = {}
    for s in isg.arrows:
        row, window, image = source.rows[s], masks[isg.inv(s)], masks[s]
        rows[s] = [new[row[i]] if window[i] and row[i] >= 0 and image[row[i]] else -1 for i in kept]
    masks = {s: [mask[i] for i in kept] for s, mask in masks.items()}
    return PartialAction._from_rows(isg, tuple(source.carrier[i] for i in kept), rows, masks)


def check_derived_propositions(action: PartialAction) -> ValidationReport:
    """Re-verify consequences of the axioms; any failure marks an implementation bug.

    Covered: the image equation theta[s](X_{inv s} n X_t) = X_s n X_{st} for
    composable pairs, graph monotonicity along the natural order, and
    intersection domains for composable idempotent pairs.  Domain
    monotonicity along the order is axiom E3 of validate_e_axioms.
    """
    isg = action.semigroupoid
    idem = isg.idempotent_set()
    rows, masks, name = action.rows, action.masks, action.carrier
    v: list[Violation] = []

    for s, t, st in isg.products:
        reached = [False] * len(name)
        for j, inside, within in zip(rows[s], masks[isg.inv(s)], masks[t]):
            if inside and within and j >= 0:
                reached[j] = True
        for x, y_in, a, b in zip(name, reached, masks[s], masks[st]):
            if y_in != (a and b):
                v.append(Violation("range-composition", f"image equation fails for ({s},{t}) at {x}", (s, t, x)))

    for s, t in isg.strict_order:
        for x, inside, j, k in zip(name, masks[isg.inv(s)], rows[s], rows[t]):
            if inside and j != k:
                v.append(Violation("order-extension", f"{s} <= {t} but theta[{t}] does not extend theta[{s}] at {x}", (s, t, x)))

    for e, f, ef in isg.products:
        if e in idem and f in idem:
            for x, inside, a, b in zip(name, masks[ef], masks[e], masks[f]):
                if inside != (a and b):
                    v.append(Violation("idempotent-domains", f"dom_of[{ef}] differs from dom_of[{e}] n dom_of[{f}] at {x}", (e, f, x)))
    return ValidationReport(tuple(v))

"""Partial actions of an inverse semigroupoid on a finite carrier.

Two axiom systems are validated: the definitional one (identity on
idempotent domains, containment in the idempotent hull, composition
compatibility) and the equivalent bijection-based one.  Each judgement of an
action is made once and held on it: the linear checks
(``PartialAction._linear``) and whether the composition law holds
(``PartialAction._certified``), a yes or no.  The law is decided along the
generators: on the right Cayley edges of a global action, and by a passing
construction of its globalization (the certificate) otherwise.  Only an
action that fails the law, or the linear checks, is scanned pair by pair,
to write its report: P3 and E2 each run their pointwise check on every
composable pair, so P and E, in either order, and the construction's
refusal share one decision.  Actions store arrows and points by position,
and the scans read those rows in carrier order, with arrows through the
structure's integer tables, so witnesses come out sorted and names appear
only in the violations they report.
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

    ``rows[s]``, s an arrow's position, holds at each carrier position the
    position theta[s] sends it to, or -1 where theta[s] is undefined; ``masks[s]``
    marks the positions of dom_of[s].  theta[s] is intended to be a bijection from
    dom_of[inv(s)] onto dom_of[s].  ``theta`` and ``dom_of`` are read-only
    name views of that store, built on first read, so the store is not to be
    changed after construction.  The judgements read off the store,
    ``_linear`` and ``_certified``, are held the same way.

    The constructor takes names and only checks that they refer to declared
    arrows and carrier elements; everything else is left to the validators
    so that broken inputs are reported, not silently repaired.
    ``_from_rows`` takes rows and masks that are in range by construction.
    """

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

        masks = []
        for s in semigroupoid.arrows:
            sub = frozenset(dom_of[s])
            if not sub <= pos.keys():
                raise StructuralError(f"dom_of[{s}] leaves the carrier: {sorted(sub - pos.keys(), key=str)}")
            masks.append([x in sub for x in carrier])

        rows = [[-1] * len(carrier) for _ in semigroupoid.arrows]
        for s, row in zip(semigroupoid.arrows, rows):
            for x, y in dict(theta[s]).items():
                if x not in pos or y not in pos:
                    raise StructuralError(f"theta[{s}] maps {x!r} to {y!r} outside the carrier")
                row[pos[x]] = pos[y]
        self.semigroupoid, self.carrier, self.rows, self.masks, self._pos = semigroupoid, carrier, rows, masks, pos

    @classmethod
    def _from_rows(cls, semigroupoid: InverseSemigroupoid, carrier: tuple, rows: list, masks: list) -> PartialAction:
        action = cls.__new__(cls)
        action.semigroupoid, action.carrier, action.rows, action.masks = semigroupoid, carrier, rows, masks
        return action

    @cached_property
    def _pos(self) -> dict:
        """Each carrier element's position."""
        return {x: i for i, x in enumerate(self.carrier)}

    @cached_property
    def theta(self) -> dict[str, dict]:
        """theta[s] as a dict from each point where it is defined to its image."""
        c = self.carrier
        return {s: {c[i]: c[j] for i, j in enumerate(row) if j >= 0} for s, row in zip(self.semigroupoid.arrows, self.rows)}

    @cached_property
    def dom_of(self) -> dict[str, frozenset]:
        """dom_of[s] as a frozenset of points."""
        return {s: frozenset(compress(self.carrier, mask)) for s, mask in zip(self.semigroupoid.arrows, self.masks)}

    @cached_property
    def _linear(self) -> tuple[Violation, ...]:
        """The violations of the linear checks, ``_linear_violations``'s one call."""
        return tuple(_linear_violations(self))

    @cached_property
    def _certified(self) -> bool:
        """Whether the composition law is certified, ``_law_certified``'s one call."""
        return _law_certified(self)

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
    """theta-domain, theta-range, P1 and P2: the checks that read each arrow's row and mask once; ``PartialAction._linear`` holds them."""
    isg = action.semigroupoid
    arrows, inv, idem, mul = isg.arrows, isg._inv, isg._idem, isg._mul
    rows, masks, name = action.rows, action.masks, action.carrier
    v: list[Violation] = []

    # Each theta[s] must be a map dom_of[inv(s)] -> dom_of[s]; only an arrow that fails loops to report.
    for a, row, image, si in zip(arrows, rows, masks, inv):
        window = masks[si]
        defined = [j >= 0 for j in row]
        if defined != window:
            v += [Violation("theta-domain", f"theta[{a}] defined at {x} outside dom_of[{arrows[si]}]", (a, x)) for x, d, w in zip(name, defined, window) if d > w]
            v += [Violation("theta-domain", f"theta[{a}] undefined at {x} of dom_of[{arrows[si]}]", (a, x)) for x, d, w in zip(name, defined, window) if w > d]
        if not all(map(image.__getitem__, compress(row, defined))):
            for x, j in zip(name, row):
                if j >= 0 and not image[j]:
                    v.append(Violation("theta-range", f"theta[{a}] maps {x} to {name[j]} outside dom_of[{a}]", (a, x, name[j])))

    # P1: identity maps on idempotent domains; idempotent domains cover the carrier.
    for e, row in compress(zip(arrows, rows), idem):
        for i, j in enumerate(row):
            if j >= 0 and j != i:
                v.append(Violation("P1", f"theta[{e}] moves {name[i]} to {name[j]}; identity required", (e, name[i], name[j])))
    covered = _union(compress(masks, idem), len(name))
    for x, inside in zip(name, covered):
        if not inside:
            v.append(Violation("P1", f"carrier element {x} lies in no idempotent domain", (x,)))

    # P2: dom_of[s] contained in dom_of[s inv(s)].
    for a, mask, e in zip(arrows, masks, map(list.__getitem__, mul, inv)):  # e = s inv(s)
        if not all(map(le, mask, masks[e])):
            v += [Violation("P2", f"dom_of[{a}] element {x} missing from dom_of[{arrows[e]}]", (a, x)) for x, inside, within in zip(name, mask, masks[e]) if inside > within]
    return v


def _p3_violations(action: PartialAction, s: int, t: int, st: int) -> list[Violation]:
    """P3 for one composable pair of arrow positions: the composite-domain equation plus pointwise agreement on it.

    The composite domain holds the points that theta[t] sends into
    dom_of[t] n dom_of[inv(s)], where theta[s](theta[t](x)) makes sense.
    """
    isg, rows, masks, name = action.semigroupoid, action.rows, action.masks, action.carrier
    row_s, row_t, row_st, inv = rows[s], rows[t], rows[st], isg._inv
    image_t, window_s = masks[t], masks[inv[s]]
    lhs = [j >= 0 and image_t[j] and window_s[j] for j in row_t]
    rhs = [a and b for a, b in zip(masks[inv[st]], masks[inv[t]])]
    s, t, st, si_st, si_t = isg._names((s, t, st, inv[st], inv[t]))
    pair, meet = f"composite domain of ({s},{t})", f"dom_of[{si_st}] n dom_of[{si_t}]"
    v = [Violation("P3-domain", f"{pair} has extra element {x} over {meet}", (s, t, x)) for x, a, b in zip(name, lhs, rhs) if a > b]
    v += [Violation("P3-domain", f"{pair} misses element {x} of {meet}", (s, t, x)) for x, a, b in zip(name, lhs, rhs) if b > a]
    for i, inside in enumerate(rhs):
        through = row_s[row_t[i]] if row_t[i] >= 0 else -1
        if inside and (through < 0 or through != row_st[i]):
            through, direct = _name(action, through), _name(action, row_st[i])
            v.append(Violation("P3-value", f"theta[{s}](theta[{t}]({name[i]})) = {through} but theta[{st}]({name[i]}) = {direct}", (s, t, name[i])))
    return v


def _generator_edges_hold(action: PartialAction) -> bool:
    """theta[s g] = theta[s] o theta[g] as partial maps on every right Cayley edge (s, g), g a generator.

    Once the linear checks pass and the action is global, P3 for a pair
    (s, t) is the partial-map equation theta[s t] = theta[s] o theta[t]
    (its domain half because dom_of[inv(s t)] lies in dom_of[inv(t)] for a
    valid global action).  If the equation holds on every edge (s, g), it
    holds for every t = g1 ... gk by induction on k:
    theta[s t' g] = theta[s t'] o theta[g] = theta[s] o theta[t'] o theta[g]
    = theta[s] o theta[t' g].  So one comparison of rows per edge replaces
    the scan over all composable pairs; the edges (s, g) run over the arrows
    s leaving cod(g), whose products s g are all defined in an inverse
    semigroupoid.  With the linear checks, edges that all hold give P3 and,
    at t = inv(s), globality, so asking ``is_global`` first only spares a
    pass that must fail.
    """
    isg, rows = action.semigroupoid, action.rows
    mul, cod, leaving = isg._mul, isg._cod, isg._leaving
    return all(rows[mul[s][g]] == [rows[s][j] if j >= 0 else -1 for j in rows[g]] for g in isg._generators for s in leaving[cod[g]])


def _law_certified(action: PartialAction) -> bool:
    """Whether the composition law is certified along the generators, so that P3 and E2 need check no pair.

    Only an action that the linear checks found nothing on
    (``action._linear``) is certified: P3 then holds for every pair, and P3
    for a pair gives E2 for it.  A global action, as the construction's
    outputs and mediating targets are, is decided on its right Cayley edges
    (``_generator_edges_hold``).  Any other action is decided by its
    globalization: the construction (``globalization._construct``) closes
    its seeds along the generators, and its output check passes only when
    the input satisfies P3 (the proof is in ``build_globalization``), so a
    built globalization is the certificate.  On a valid input the check
    passes unless the construction is at fault.

    An action that is not certified fails the law, or the linear checks,
    and its report is that of the pointwise scan over every composable
    pair.  ``PartialAction._certified`` holds the answer.
    """
    from .globalization import _construct  # globalization imports this module

    if is_global(action):
        return not action._linear and _generator_edges_hold(action)
    return not action._linear and not isinstance(_construct(action), str)


def validate_p_axioms(action: PartialAction) -> ValidationReport:
    """Check the definitional axiom system, with a witness per violation.

    The linear checks (``action._linear``), then, unless the composition law
    is certified (``action._certified``), the full P3 check on every
    composable pair in (s, t) order.  Both judgements are held on the
    action, so a second call, or E after P, decides nothing again.
    ``build_globalization`` calls it only to refuse an input: it reads only
    the linear checks of its input, and its output check proves P3.
    """
    v = list(action._linear)
    if not action._certified:
        for s, t, st in action.semigroupoid._products:
            v += _p3_violations(action, s, t, st)
    return ValidationReport(tuple(v))


def validate_e_axioms(action: PartialAction) -> ValidationReport:
    """Check the equivalent bijection-based axiom system.

    E1 reads each arrow's row once, and E3 compares each order pair's
    masks, looping over points only for a pair that fails.  E2 checks
    theta[s t] against theta[s] o theta[t] pointwise on every composable
    pair unless the composition law is certified (``action._certified``),
    the decision P reads too, since P3 for a pair gives E2 for it.
    """
    isg = action.semigroupoid
    arrows, inv = isg.arrows, isg._inv
    rows, masks, name = action.rows, action.masks, action.carrier
    v: list[Violation] = []

    # E1: each theta[s] is a bijection dom_of[inv(s)] -> dom_of[s] inverted by
    # theta[inv(s)], and the per-arrow domains cover the carrier.
    for a, row, mask, si in zip(arrows, rows, masks, inv):
        off = [x for x, j, inside in zip(name, row, masks[si]) if (j >= 0) != inside]
        if off:
            v.append(Violation("E1", f"theta[{a}] is not defined exactly on dom_of[{arrows[si]}]", (a, off[0])))
        image = [j for j in row if j >= 0]
        reached = set(image)
        if len(reached) != len(image):
            v.append(Violation("E1", f"theta[{a}] is not injective", (a,)))
        off = [name[i] for i, inside in enumerate(mask) if (i in reached) != inside]
        if off:
            v.append(Violation("E1", f"theta[{a}] is not onto dom_of[{a}]", (a, off[0])))
        flipped = [-1] * len(row)
        for i, j in enumerate(row):
            if j >= 0:
                flipped[j] = i
        if flipped != rows[si]:
            v.append(Violation("E1", f"theta[{arrows[si]}] is not the inverse map of theta[{a}]", (a, arrows[si])))
    for x, inside in zip(name, _union(masks, len(name))):
        if not inside:
            v.append(Violation("E1", f"carrier element {x} lies in no arrow domain", (x,)))

    # E2: theta[st] extends theta[s] o theta[t] on the composite domain; a certified law gives it on every pair.
    if not action._certified:
        for s, t, st in isg._products:
            row_s, row_st = rows[s], rows[st]
            image_t, window_s = masks[t], masks[inv[s]]
            for i, j in enumerate(rows[t]):
                if j >= 0 and image_t[j] and window_s[j]:
                    if row_st[i] < 0:
                        v.append(Violation("E2", f"theta[{arrows[st]}] undefined at {name[i]} of the composite domain of ({arrows[s]},{arrows[t]})", (arrows[s], arrows[t], name[i])))
                    elif row_st[i] != row_s[j]:
                        v.append(Violation("E2", f"theta[{arrows[s]}] o theta[{arrows[t]}] and theta[{arrows[st]}] disagree at {name[i]}", (arrows[s], arrows[t], name[i])))

    # E3: domains are monotone for the natural order.
    for s, t in isg._order:
        if not all(map(le, masks[s], masks[t])):
            v += [Violation("E3", f"{arrows[s]} <= {arrows[t]} but dom_of[{arrows[s]}] element {x} misses dom_of[{arrows[t]}]", (arrows[s], arrows[t], x)) for x, inside, within in zip(name, masks[s], masks[t]) if inside > within]
    return ValidationReport(tuple(v))


def is_global(action: PartialAction) -> bool:
    """True when every dom_of[s] equals dom_of[s inv(s)]; it reads the masks alone, so any action may be asked."""
    isg, masks = action.semigroupoid, action.masks
    return all(mask == masks[e] for mask, e in zip(masks, map(list.__getitem__, isg._mul, isg._inv)))


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
    masks = [[False] * n for _ in source.rows]
    for row, mask in zip(source.rows, masks):
        for i, j in enumerate(row):
            if j >= 0 and inside[i] and inside[j]:
                mask[j] = True
    covered = _union(compress(masks, isg._idem), n)
    kept = [i for i in range(n) if inside[i]]
    uncovered = [source.carrier[i] for i in kept if not covered[i]]
    if uncovered:
        if not trim:
            raise CoverageError(uncovered)
        kept = [i for i in kept if covered[i]]

    new = [-1] * n  # each kept position's new position
    for k, i in enumerate(kept):
        new[i] = k
    rows = []
    for row, window, image in zip(source.rows, map(masks.__getitem__, isg._inv), masks):
        rows.append([new[row[i]] if window[i] and row[i] >= 0 and image[row[i]] else -1 for i in kept])
    masks = [[mask[i] for i in kept] for mask in masks]
    return PartialAction._from_rows(isg, tuple(source.carrier[i] for i in kept), rows, masks)

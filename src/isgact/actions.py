"""Partial actions of an inverse semigroupoid on a finite carrier.

Both axiom systems are validated by direct scan: the definitional one
(identity on idempotent domains, containment in the idempotent hull,
composition compatibility) and the equivalent bijection-based one.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .core import (
    InverseSemigroupoid,
    StructuralError,
    ValidationReport,
    Violation,
)


class CoverageError(ValueError):
    """Carrier elements found outside every idempotent domain."""

    def __init__(self, uncovered: Iterable):
        self.uncovered = frozenset(uncovered)
        names = ", ".join(str(x) for x in sorted(self.uncovered, key=str))
        super().__init__(f"carrier elements outside every idempotent domain: {names}")


class PartialAction:
    """Per-arrow carrier subsets plus per-arrow maps between them.

    ``theta[s]`` is intended to be a bijection from ``dom_of[inv(s)]`` onto
    ``dom_of[s]``.  Construction only checks that names refer to declared
    arrows and carrier elements; everything else is left to the validators so
    that broken inputs are reported, not silently repaired.
    """

    def __init__(
        self,
        semigroupoid: InverseSemigroupoid,
        carrier: Iterable,
        dom_of: Mapping[str, Iterable],
        theta: Mapping[str, Mapping],
    ):
        self.semigroupoid = semigroupoid
        self.carrier = tuple(carrier)
        if len(set(self.carrier)) != len(self.carrier):
            raise StructuralError("duplicate carrier elements")
        self._cset = frozenset(self.carrier)
        self._cidx = {x: i for i, x in enumerate(self.carrier)}

        arrows = set(semigroupoid.arrows)
        for which, m in (("dom_of", dom_of), ("theta", theta)):
            missing = arrows - set(m)
            extra = set(m) - arrows
            if missing:
                raise StructuralError(f"{which} missing arrows: {sorted(missing)}")
            if extra:
                raise StructuralError(f"{which} given for undeclared arrows: {sorted(extra)}")

        self.dom_of: dict[str, frozenset] = {}
        for s in semigroupoid.arrows:
            sub = frozenset(dom_of[s])
            if not sub <= self._cset:
                raise StructuralError(f"dom_of[{s}] leaves the carrier: {sorted(sub - self._cset, key=str)}")
            self.dom_of[s] = sub

        self.theta: dict[str, dict] = {}
        for s in semigroupoid.arrows:
            m = dict(theta[s])
            for x, y in m.items():
                if x not in self._cset or y not in self._cset:
                    raise StructuralError(f"theta[{s}] maps {x!r} to {y!r} outside the carrier")
            self.theta[s] = m

    def sorted_elements(self, xs: Iterable) -> list:
        return sorted(xs, key=self._cidx.__getitem__)

    def apply(self, s: str, x):
        """theta[s](x) when x lies in dom_of[inv(s)], else None."""
        if x in self.dom_of[self.semigroupoid.inv(s)]:
            return self.theta[s].get(x)
        return None

    def __contains__(self, x) -> bool:
        return x in self._cset

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartialAction):
            return NotImplemented
        return (
            self.semigroupoid == other.semigroupoid
            and self._cset == other._cset
            and self.dom_of == other.dom_of
            and self.theta == other.theta
        )

    def __repr__(self) -> str:
        return f"PartialAction({len(self.carrier)} points, {len(self.semigroupoid.arrows)} arrows)"


def _composite_domain(action: PartialAction, s: str, t: str) -> set:
    """Largest set on which theta[s](theta[t](x)) makes sense."""
    allowed = action.dom_of[t] & action.dom_of[action.semigroupoid.inv(s)]
    return {x for x, y in action.theta[t].items() if y in allowed}


def _linear_violations(action: PartialAction) -> list[Violation]:
    """theta-domain, theta-range, P1 and P2: the checks that read each arrow's map and domain once."""
    isg = action.semigroupoid
    idem = isg.idempotent_set()
    v: list[Violation] = []
    # offending points are collected unsorted and only they are sorted, so clean arrows sort nothing

    # Each theta[s] must be a map dom_of[inv(s)] -> dom_of[s] to begin with.
    for s in isg.arrows:
        expected = action.dom_of[isg.inv(s)]
        moves = action.theta[s]
        keys = moves.keys()
        for x in action.sorted_elements(keys - expected):
            v.append(Violation("theta-domain", f"theta[{s}] defined at {x} outside dom_of[{isg.inv(s)}]", (s, x)))
        for x in action.sorted_elements(expected - keys):
            v.append(Violation("theta-domain", f"theta[{s}] undefined at {x} of dom_of[{isg.inv(s)}]", (s, x)))
        image = action.dom_of[s]
        for x in action.sorted_elements([x for x, y in moves.items() if y not in image]):
            v.append(Violation("theta-range", f"theta[{s}] maps {x} to {moves[x]} outside dom_of[{s}]", (s, x, moves[x])))

    # P1: identity maps on idempotent domains; idempotent domains cover the carrier.
    for e in isg.arrows:
        if e not in idem:
            continue
        moves = action.theta[e]
        for x in action.sorted_elements([x for x, y in moves.items() if x != y]):
            v.append(Violation("P1", f"theta[{e}] moves {x} to {moves[x]}; identity required", (e, x, moves[x])))
    covered = set()
    for e in isg.arrows:
        if e in idem:
            covered |= action.dom_of[e]
    for x in action.carrier:
        if x not in covered:
            v.append(Violation("P1", f"carrier element {x} lies in no idempotent domain", (x,)))

    # P2: dom_of[s] contained in dom_of[s inv(s)].
    for s in isg.arrows:
        e = isg.mul(s, isg.inv(s))
        for x in action.sorted_elements(action.dom_of[s] - action.dom_of[e]):
            v.append(Violation("P2", f"dom_of[{s}] element {x} missing from dom_of[{e}]", (s, x)))
    return v


def _p3_violations(action: PartialAction, s: str, t: str, st: str) -> list[Violation]:
    """P3 for one composable pair: the composite-domain equation plus pointwise agreement on it."""
    dom_of, theta, inv = action.dom_of, action.theta, action.semigroupoid.inv
    v: list[Violation] = []
    lhs = _composite_domain(action, s, t)
    rhs = dom_of[inv(st)] & dom_of[inv(t)]
    for x in action.sorted_elements(lhs - rhs):
        v.append(
            Violation(
                "P3-domain",
                f"composite domain of ({s},{t}) has extra element {x} over dom_of[{inv(st)}] n dom_of[{inv(t)}]",
                (s, t, x),
            )
        )
    for x in action.sorted_elements(rhs - lhs):
        v.append(
            Violation(
                "P3-domain",
                f"composite domain of ({s},{t}) misses element {x} of dom_of[{inv(st)}] n dom_of[{inv(t)}]",
                (s, t, x),
            )
        )
    theta_s, theta_t, theta_st = theta[s], theta[t], theta[st]
    bad = {}
    for x in rhs:
        mid = theta_t.get(x)
        through = theta_s.get(mid) if mid is not None else None
        direct = theta_st.get(x)
        if through is None or direct is None or through != direct:
            bad[x] = through, direct
    for x in action.sorted_elements(bad):
        through, direct = bad[x]
        v.append(Violation("P3-value", f"theta[{s}](theta[{t}]({x})) = {through} but theta[{st}]({x}) = {direct}", (s, t, x)))
    return v


def validate_p_axioms(action: PartialAction) -> ValidationReport:
    """Check the definitional axiom system, with a witness per violation.

    P3 is first decided per composable pair (s, t) by one comparison of two
    lists read off theta[t]: theta[s] at each value, theta[s t] at each key.
    For arrows whose map is defined exactly on dom_of[inv] and lands in
    their own domain ("shaped"), they are equal exactly when P3 holds for
    the pair: both sides are undefined off dom_of[inv(s t)] n dom_of[inv t]
    and agree on it.  Only a pair that fails, or involves an arrow that is
    not shaped, runs the full set-based check to build its report.
    """
    isg = action.semigroupoid
    dom_of, theta, inv = action.dom_of, action.theta, isg.inv
    v = _linear_violations(action)
    shaped = {
        s for s in isg.arrows if theta[s].keys() == dom_of[inv(s)] and dom_of[s].issuperset(theta[s].values())
    }
    for s, t, st in isg.products:
        if s in shaped and t in shaped and st in shaped:
            theta_t = theta[t]
            if list(map(theta[s].get, theta_t.values())) == list(map(theta[st].get, theta_t)):
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
    = theta[s] o theta[t' g].  So one comparison per edge replaces the scan
    over all composable pairs; the full scan is left to build a report.
    """
    if _linear_violations(action) or not is_global(action):
        return False
    isg = action.semigroupoid
    theta = action.theta
    gens = set(isg.generators)
    for s, g, sg in isg.products:
        if g in gens:
            theta_s = theta[s]
            if theta[sg] != {x: theta_s[y] for x, y in theta[g].items() if y in theta_s}:
                return False
    return True


def validate_e_axioms(action: PartialAction) -> ValidationReport:
    """Check the equivalent bijection-based axiom system."""
    isg = action.semigroupoid
    v: list[Violation] = []

    # E1: each theta[s] is a bijection dom_of[inv(s)] -> dom_of[s] inverted by
    # theta[inv(s)], and the per-arrow domains cover the carrier.
    for s in isg.arrows:
        si = isg.inv(s)
        keys = set(action.theta[s])
        if keys != action.dom_of[si]:
            off = action.sorted_elements(keys ^ action.dom_of[si])
            v.append(Violation("E1", f"theta[{s}] is not defined exactly on dom_of[{si}]", (s, off[0])))
        image = list(action.theta[s].values())
        if len(set(image)) != len(image):
            v.append(Violation("E1", f"theta[{s}] is not injective", (s,)))
        if set(image) != action.dom_of[s]:
            off = action.sorted_elements(set(image) ^ action.dom_of[s])
            v.append(Violation("E1", f"theta[{s}] is not onto dom_of[{s}]", (s, off[0] if off else None)))
        flipped = {y: x for x, y in action.theta[s].items()}
        if flipped != action.theta[si]:
            v.append(Violation("E1", f"theta[{si}] is not the inverse map of theta[{s}]", (s, si)))
    covered = set()
    for s in isg.arrows:
        covered |= action.dom_of[s]
    for x in action.carrier:
        if x not in covered:
            v.append(Violation("E1", f"carrier element {x} lies in no arrow domain", (x,)))

    # E2: theta[st] extends theta[s] o theta[t] on the composite domain.
    for s, t, st in isg.products:
        theta_s, theta_t, theta_st = action.theta[s], action.theta[t], action.theta[st]
        bad = []
        for x in _composite_domain(action, s, t):
            direct = theta_st.get(x)
            if direct is None or direct != theta_s.get(theta_t[x]):
                bad.append(x)
        for x in action.sorted_elements(bad):
            if theta_st.get(x) is None:
                v.append(Violation("E2", f"theta[{st}] undefined at {x} of the composite domain of ({s},{t})", (s, t, x)))
            else:
                v.append(Violation("E2", f"theta[{s}] o theta[{t}] and theta[{st}] disagree at {x}", (s, t, x)))

    # E3: domains are monotone for the natural order.
    for s, t in isg.strict_order:
        for x in action.sorted_elements(action.dom_of[s] - action.dom_of[t]):
            v.append(Violation("E3", f"{s} <= {t} but dom_of[{s}] element {x} misses dom_of[{t}]", (s, t, x)))
    return ValidationReport(tuple(v))


def is_global(action: PartialAction) -> bool:
    """True when every dom_of[s] equals dom_of[s inv(s)] (the action is valid beforehand)."""
    isg = action.semigroupoid
    return all(action.dom_of[s] == action.dom_of[isg.mul(s, isg.inv(s))] for s in isg.arrows)


def restrict(source: PartialAction, subset: Iterable, trim: bool = False) -> PartialAction:
    """Co-restrict every arrow map to a subset of the carrier.

    The new domain of an arrow s collects the images under theta[s] of subset
    points that land back in the subset.  If some subset element ends up in no
    idempotent domain, a CoverageError is raised unless ``trim`` is set, in
    which case the carrier is cut down to the covered part.
    """
    sub = frozenset(subset)
    unknown = sub - frozenset(source.carrier)
    if unknown:
        raise StructuralError(f"subset leaves the carrier: {sorted(unknown, key=str)}")
    isg = source.semigroupoid

    dom_of = {
        s: frozenset(y for x, y in source.theta[s].items() if x in sub and y in sub)
        for s in isg.arrows
    }
    covered = set()
    for e in isg.arrows:
        if e in isg.idempotent_set():
            covered |= dom_of[e]
    carrier = [x for x in source.carrier if x in sub]
    uncovered = [x for x in carrier if x not in covered]
    if uncovered:
        if not trim:
            raise CoverageError(uncovered)
        carrier = [x for x in carrier if x in covered]
        kept = frozenset(carrier)
        dom_of = {s: dom_of[s] & kept for s in isg.arrows}

    theta = {
        s: {x: y for x, y in source.theta[s].items() if x in dom_of[isg.inv(s)] and y in dom_of[s]}
        for s in isg.arrows
    }
    return PartialAction(isg, carrier, dom_of, theta)


def check_derived_propositions(action: PartialAction) -> ValidationReport:
    """Re-verify consequences of the axioms; any failure marks an implementation bug.

    Covered: the image equation theta[s](X_{inv s} n X_t) = X_s n X_{st} for
    composable pairs, graph monotonicity along the natural order, and
    intersection domains for composable idempotent pairs.  Domain
    monotonicity along the order is axiom E3 of validate_e_axioms.
    """
    isg = action.semigroupoid
    idem = isg.idempotent_set()
    v: list[Violation] = []

    for s, t, st in isg.products:
        image = set()
        for x in action.dom_of[isg.inv(s)] & action.dom_of[t]:
            y = action.theta[s].get(x)
            if y is not None:
                image.add(y)
        expected = action.dom_of[s] & action.dom_of[st]
        for y in action.sorted_elements(image ^ expected):
            v.append(Violation("range-composition", f"image equation fails for ({s},{t}) at {y}", (s, t, y)))

    for s, t in isg.strict_order:
        theta_s, theta_t = action.theta[s], action.theta[t]
        bad = [x for x in action.dom_of[isg.inv(s)] if theta_t.get(x) != theta_s.get(x)]
        for x in action.sorted_elements(bad):
            v.append(Violation("order-extension", f"{s} <= {t} but theta[{t}] does not extend theta[{s}] at {x}", (s, t, x)))

    for e, f, ef in isg.products:
        if e not in idem or f not in idem:
            continue
        expected = action.dom_of[e] & action.dom_of[f]
        for x in action.sorted_elements(action.dom_of[ef] ^ expected):
            v.append(Violation("idempotent-domains", f"dom_of[{ef}] differs from dom_of[{e}] n dom_of[{f}] at {x}", (e, f, x)))
    return ValidationReport(tuple(v))

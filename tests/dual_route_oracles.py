"""Reference oracles that reach a library verdict by a second, independent route.

Each one restates a property the library decides one way (the embedding
check, the global test, the natural order) through an equivalent definition.
The tests require both routes to agree; the library keeps only one.

``is_action_map``, ``_injectivity`` and ``is_embedding_by_names`` are the
name-keyed versions of the library's map checks from before it read integer
rows, kept here, as ``_composite_domain`` is in ``p_scan_oracle``, so that
no oracle shares code with the check it is compared with.
"""

from dataclasses import dataclass

from isgact import ActionMap, InverseSemigroupoid, PartialAction, ValidationReport, Violation, is_global

from p_scan_oracle import _composite_domain, composable_pairs, in_carrier_order


def is_action_map(f: ActionMap) -> ValidationReport:
    """Check family preservation and equivariance, with witnesses; only offending points are sorted."""
    src, tgt = f.source, f.target
    isg = src.semigroupoid
    m = f.mapping
    v: list[Violation] = []
    for s in isg.arrows:
        family = tgt.dom_of[s]
        for x in in_carrier_order(src, [x for x in src.dom_of[s] if m[x] not in family]):
            v.append(Violation("family", f"map sends {x} of dom_of[{s}] to {m[x]} outside the target dom_of[{s}]", (s, x)))
    for s in isg.arrows:
        theta_s, target_s = src.theta[s], tgt.theta[s]
        bad = {}
        for x in src.dom_of[isg.inv(s)]:
            moved, expected = theta_s.get(x), target_s.get(m[x])
            if moved is None or expected is None or m[moved] != expected:
                bad[x] = moved, expected
        for x in in_carrier_order(src, bad):
            moved, expected = bad[x]
            if moved is None:
                v.append(Violation("equivariance", f"source theta[{s}] undefined at {x}", (s, x)))
            else:
                v.append(Violation("equivariance", f"map({x}) moves to {expected} under theta[{s}] but map(theta[{s}]({x})) = {m[moved]}", (s, x)))
    return ValidationReport(tuple(v))


def _injectivity(f: ActionMap) -> list[Violation]:
    seen: dict = {}
    v = []
    for x in f.source.carrier:
        y = f(x)
        if y in seen:
            v.append(Violation("injective", f"{seen[y]} and {x} share the value {y}", (seen[y], x, y)))
        else:
            seen[y] = x
    return v


def is_embedding_by_names(f: ActionMap) -> ValidationReport:
    """Injective action map whose preimage equation recovers every source domain.

    For each arrow s the source domain must equal the preimage of the set of
    target points reached by theta[s] from the image of the map.
    """
    src, tgt = f.source, f.target
    isg = src.semigroupoid
    v = list(is_action_map(f).violations) + _injectivity(f)
    image = set(f.mapping.values())
    for s in isg.arrows:
        reachable = set()
        for z in image & tgt.dom_of[isg.inv(s)]:
            w = tgt.theta[s].get(z)
            if w is not None:
                reachable.add(w)
        pre = {x for x in src.carrier if f(x) in reachable}
        for x in in_carrier_order(src, pre ^ src.dom_of[s]):
            v.append(Violation("embedding-domain", f"preimage equation for arrow {s} fails at {x}", (s, x)))
    return ValidationReport(tuple(v))


def embedding_by_points(f: ActionMap) -> ValidationReport:
    """Independent pointwise route to the embedding property.

    A point x lies in dom_of[inv(s)] exactly when its image lies in the target
    dom_of[inv(s)] and is moved by theta[s] back into the image of the map; in
    the affirmative case the two theta values must correspond.
    """
    src, tgt = f.source, f.target
    isg = src.semigroupoid
    v = list(is_action_map(f).violations) + _injectivity(f)
    image = set(f.mapping.values())
    for s in isg.arrows:
        si = isg.inv(s)
        for x in src.carrier:
            member = x in src.dom_of[si]
            w = tgt.theta[s].get(f(x)) if f(x) in tgt.dom_of[si] else None
            outside = w is not None and w in image
            if member != outside:
                v.append(Violation("embedding-point", f"membership of {x} in dom_of[{si}] disagrees with the target trace for arrow {s}", (s, x)))
            elif member:
                moved = src.theta[s].get(x)
                if moved is None or f(moved) != w:
                    v.append(Violation("embedding-point", f"theta values for {x} under arrow {s} do not correspond", (s, x)))
    return ValidationReport(tuple(v))


def is_global_diagnostic(action: PartialAction) -> bool:
    """As is_global, but independently tests exact composite equality and insists both agree."""
    isg = action.semigroupoid
    by_domains = is_global(action)
    by_composites = True
    for s, t in composable_pairs(isg):
        st = isg.mul(s, t)
        comp = _composite_domain(action, s, t)
        if comp != action.dom_of[isg.inv(st)]:
            by_composites = False
            break
        if any(action.theta[s].get(action.theta[t][x]) != action.theta[st].get(x) for x in comp):
            by_composites = False
            break
    if by_domains != by_composites:
        raise RuntimeError(
            f"global tests disagree (domains: {by_domains}, composites: {by_composites}); "
            "the action is invalid or there is a bug"
        )
    return by_domains


@dataclass(frozen=True)
class OrderDiagnostic:
    """All four equivalent ways to test the natural order on one pair."""

    right_product: bool      # s = t (s* s)
    right_idempotent: bool   # s = t e for some idempotent e
    left_product: bool       # s = (s s*) t
    left_idempotent: bool    # s = f t for some idempotent f

    @property
    def agree(self) -> bool:
        return self.right_product == self.right_idempotent == self.left_product == self.left_idempotent

    @property
    def holds(self) -> bool:
        return self.right_product


def natural_leq_diagnostic(isg: InverseSemigroupoid, s: str, t: str) -> OrderDiagnostic:
    if isg.dom(s) != isg.dom(t) or isg.cod(s) != isg.cod(t):
        return OrderDiagnostic(False, False, False, False)
    idem = isg.idempotent_set()
    rp = isg.mul(t, isg.mul(isg.inv(s), s)) == s
    lp = isg.mul(isg.mul(s, isg.inv(s)), t) == s
    ri = any(isg.dom(t) == isg.cod(e) and isg.mul(t, e) == s for e in isg.arrows if e in idem)
    li = any(isg.dom(f) == isg.cod(t) and isg.mul(f, t) == s for f in isg.arrows if f in idem)
    return OrderDiagnostic(rp, ri, lp, li)

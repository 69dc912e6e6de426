"""Reference oracles that reach a library verdict by a second, independent route.

Each one restates a property the library decides one way (the embedding
check, the global test, the natural order) through an equivalent definition.
The tests require both routes to agree; the library keeps only one.
"""

from dataclasses import dataclass

from isgact import ActionMap, InverseSemigroupoid, PartialAction, ValidationReport, Violation, is_global
from isgact.actions import _composite_domain
from isgact.morphisms import _injectivity, is_action_map


def embedding_by_points(f: ActionMap) -> ValidationReport:
    """Independent pointwise route to the embedding property.

    A point x lies in dom_of[inv(s)] exactly when its image lies in the target
    dom_of[inv(s)] and is moved by theta[s] back into the image of the map; in
    the affirmative case the two theta values must correspond.
    """
    src, tgt = f.source, f.target
    isg = src.semigroupoid
    v = list(is_action_map(f).violations) + _injectivity(f)
    image = f.image()
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
    for s, t in isg.table.composable_pairs():
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
    ri = any(isg.composable(t, e) and isg.mul(t, e) == s for e in isg.arrows if e in idem)
    li = any(isg.composable(f, t) and isg.mul(f, t) == s for f in isg.arrows if f in idem)
    return OrderDiagnostic(rp, ri, lp, li)

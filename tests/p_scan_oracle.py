"""Reference oracle for validate_p_axioms: P3 by the set-based scan of every composable pair.

For each pair (s, t) it builds the composite domain of theta[s] o theta[t]
and dom_of[inv(s t)] n dom_of[inv(t)], reports the elements on either side
only, then compares theta[s](theta[t](x)) with theta[s t](x) on the right
side.  The library decides most pairs by one list comparison and runs this
per-pair check only to report a failing pair; the tests require equal
reports: tags, messages, witnesses and order.
"""

from isgact import PartialAction, ValidationReport, Violation
from isgact.actions import _composite_domain, _linear_violations


def validate_p_axioms_by_scan(action: PartialAction) -> ValidationReport:
    isg = action.semigroupoid
    dom_of, theta, inv = action.dom_of, action.theta, isg.inv
    v = _linear_violations(action)

    # P3: the composite-domain equation plus pointwise agreement on it.
    for s, t, st in isg.products:
        lhs = _composite_domain(action, s, t)
        rhs = dom_of[inv(st)] & dom_of[inv(t)]
        if lhs != rhs:
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
            v.append(
                Violation(
                    "P3-value",
                    f"theta[{s}](theta[{t}]({x})) = {through} but theta[{st}]({x}) = {direct}",
                    (s, t, x),
                )
            )
    return ValidationReport(tuple(v))

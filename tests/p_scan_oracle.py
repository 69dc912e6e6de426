"""Reference oracle for validate_p_axioms: P3 by the set-based scan of every composable pair.

For each pair (s, t) it builds the composite domain of theta[s] o theta[t]
and dom_of[inv(s t)] n dom_of[inv(t)], reports the elements on either side
only, then compares theta[s](theta[t](x)) with theta[s t](x) on the right
side.  The library decides most pairs by one list comparison and runs this
per-pair check only to report a failing pair; the tests require equal
reports: tags, messages, witnesses and order.

``_composite_domain`` and ``_linear_violations`` are the name-keyed
versions the library ran before it read integer rows, kept here so that the
oracle shares no code with the scan it checks.

``build_globalization`` runs only the linear checks on its input and leaves
P3 to its output check; ``refused_as_the_scan_rejects`` requires that it
refuses exactly the actions this scan rejects, with this scan's report.
"""

from isgact import PartialAction, StructuralError, ValidationReport, Violation, build_globalization


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


def refused_as_the_scan_rejects(action: PartialAction) -> str:
    """Assert that ``build_globalization`` refuses the action exactly when the scan rejects it, by the scan's report.

    Returns "built", "refused", or "refused for P3 alone" when the action
    passes the linear checks, so that only the output check catches it.
    """
    report = validate_p_axioms_by_scan(action)
    try:
        build_globalization(action)
    except StructuralError as exc:
        assert str(exc) == "input fails the partial-action axioms:\n" + report.render()
        return "refused" if _linear_violations(action) else "refused for P3 alone"
    assert report.ok, report.render()
    return "built"

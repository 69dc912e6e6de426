"""The derived propositions of a partial action, kept as a test oracle of the two axiom validators.

The image equation, graph monotonicity along the natural order and the
intersection domains of composable idempotents are consequences of the P
and E axioms, so on a valid action this report is empty, and a failure
where both validators pass marks a bug in one of them.  The tests run it
on the fixtures, the catalog, their corruptions and coherent swaps, and on
drawn orbit-union restrictions; ``tests/goldens/reports/`` pins its
witnesses and their order.  Domain monotonicity along the order is axiom
E3 of ``validate_e_axioms``, so it is not repeated here.
"""

from isgact import PartialAction, ValidationReport, Violation, validate_e_axioms, validate_p_axioms


def check_derived_propositions(action: PartialAction) -> ValidationReport:
    """Re-verify consequences of the axioms; any failure marks an implementation bug.

    Covered: the image equation theta[s](X_{inv s} n X_t) = X_s n X_{st} for
    composable pairs, graph monotonicity along the natural order, and
    intersection domains for composable idempotent pairs.  Domain
    monotonicity along the order is axiom E3 of validate_e_axioms.
    """
    isg = action.semigroupoid
    arrows, inv, idem = isg.arrows, isg._inv, isg._idem
    rows, masks, name = action.rows, action.masks, action.carrier
    v: list[Violation] = []

    for s, t, st in isg._products:
        reached = [False] * len(name)
        for j, inside, within in zip(rows[s], masks[inv[s]], masks[t]):
            if inside and within and j >= 0:
                reached[j] = True
        for x, y_in, a, b in zip(name, reached, masks[s], masks[st]):
            if y_in != (a and b):
                v.append(Violation("range-composition", f"image equation fails for ({arrows[s]},{arrows[t]}) at {x}", (arrows[s], arrows[t], x)))

    for s, t in isg._order:
        for x, inside, j, k in zip(name, masks[inv[s]], rows[s], rows[t]):
            if inside and j != k:
                v.append(Violation("order-extension", f"{arrows[s]} <= {arrows[t]} but theta[{arrows[t]}] does not extend theta[{arrows[s]}] at {x}", (arrows[s], arrows[t], x)))

    for e, f, ef in isg._products:
        if idem[e] and idem[f]:
            for x, inside, a, b in zip(name, masks[ef], masks[e], masks[f]):
                if inside != (a and b):
                    v.append(Violation("idempotent-domains", f"dom_of[{arrows[ef]}] differs from dom_of[{arrows[e]}] n dom_of[{arrows[f]}] at {x}", (arrows[e], arrows[f], x)))
    return ValidationReport(tuple(v))


def fails_alone(action: PartialAction) -> bool:
    """True when the derived propositions fail on an action that both axiom systems accept, a bug in one of the three."""
    return not check_derived_propositions(action).ok and validate_p_axioms(action).ok and validate_e_axioms(action).ok

"""Reference oracle for validate_e_axioms: E2 by the pointwise scan of every composable pair.

The library decides the composition law once, by the generator edges of a
global action or the construction of its globalization otherwise, and runs
the pointwise E2 check only on an action that decision refuses.  This is the
scan that checks every product (s, t, s t) at every point; the tests
require equal reports: tags, messages, witnesses and order.  ``_union`` is
copied here so that the oracle shares no code with the scan it checks.
"""

from isgact import PartialAction, ValidationReport, Violation


def _union(masks, n: int) -> list[bool]:
    """The positions, out of n, that lie in at least one of the masks."""
    return [any(bits) for bits in zip([False] * n, *masks)]


def validate_e_axioms_by_scan(action: PartialAction) -> ValidationReport:
    """E1, E2 checked pointwise on every composable pair, and E3."""
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

    # E2: theta[st] extends theta[s] o theta[t] on the composite domain.
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
        for x, inside, within in zip(name, masks[s], masks[t]):
            if inside and not within:
                v.append(Violation("E3", f"{arrows[s]} <= {arrows[t]} but dom_of[{arrows[s]}] element {x} misses dom_of[{arrows[t]}]", (arrows[s], arrows[t], x)))
    return ValidationReport(tuple(v))

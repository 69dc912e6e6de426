"""Single-entry corruptions and coherent swaps of a partial action, each with a label naming the change.

Entries are visited arrow by arrow in declaration order, points in carrier
order: first every theta entry, moved to each other carrier point and then
deleted, then every carrier point toggled in the arrow's domain.  ``changes``
lists them without building an action, so one can be picked and built alone.
A coherent swap (``swaps`` lists them, ``swapped`` builds one) exchanges
two images of a non-idempotent theta[s] and makes theta[inv s] its inverse; it keeps every
domain and keeps each map a bijection inverted by its partner, so on a valid
action it keeps the linear checks (theta-domain, theta-range, P1, P2), and
only P3 can fail.
"""

from itertools import combinations

from isgact import PartialAction

TOGGLE = object()  # the new "image" of a change that toggles the point in the arrow's domain


def changes(action: PartialAction):
    """Every single-entry change (s, x, z), in the order above: z is x's new image under theta[s], None to drop it, or TOGGLE."""
    for s in action.semigroupoid.arrows:
        moves = action.theta[s]
        for x in [p for p in action.carrier if p in moves]:
            for z in [p for p in action.carrier if p != moves[x]] + [None]:
                yield s, x, z
        for x in action.carrier:
            yield s, x, TOGGLE


def corrupted(action: PartialAction, change) -> tuple[str, PartialAction]:
    """The label of one change from ``changes`` and the action it gives."""
    isg, (s, x, z) = action.semigroupoid, change
    if z is TOGGLE:
        dom_of = {**action.dom_of, s: action.dom_of[s] ^ {x}}
        return f"dom_of[{s}] toggles {x}", PartialAction(isg, action.carrier, dom_of, action.theta)
    moves = action.theta[s]
    theta = {**action.theta, s: {k: v for k, v in moves.items() if k != x}}
    if z is None:
        label = f"theta[{s}] drops {x}->{moves[x]}"
    else:
        theta[s][x] = z
        label = f"theta[{s}] moves {x}->{moves[x]} to {x}->{z}"
    return label, PartialAction(isg, action.carrier, action.dom_of, theta)


def labeled_corruptions(action: PartialAction):
    """(label, action) for every action that differs from the given one in one theta entry or one domain point."""
    return (corrupted(action, change) for change in changes(action))


def swaps(action: PartialAction):
    """Every coherent swap (s, x, y): x before y in the carrier, both in the domain of a non-idempotent theta[s].

    A self-inverse s is swapped only where the swapped map is still an
    involution: where theta[s] fixes both points or exchanges them.
    """
    isg = action.semigroupoid
    idempotents = isg.idempotent_set()
    for s in isg.arrows:
        if s in idempotents:
            continue
        moves = action.theta[s]
        for x, y in combinations([p for p in action.carrier if p in moves], 2):
            if isg.inv(s) != s or {moves[x], moves[y]} == {x, y}:
                yield s, x, y


def swapped(action: PartialAction, swap) -> tuple[str, PartialAction]:
    """The label of one swap from ``swaps`` and the action it gives: theta[s] exchanges the images of x and y, theta[inv s] inverts it."""
    isg, (s, x, y) = action.semigroupoid, swap
    moves = action.theta[s]
    forth = {**moves, x: moves[y], y: moves[x]}
    theta = {**action.theta, s: forth, isg.inv(s): {z: w for w, z in forth.items()}}
    return f"theta[{s}] swaps the images of {x} and {y}", PartialAction(isg, action.carrier, action.dom_of, theta)


def coherent_swaps(action: PartialAction):
    """(label, action) for every coherent swap."""
    return (swapped(action, swap) for swap in swaps(action))

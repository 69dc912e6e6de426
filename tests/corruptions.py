"""Single-entry corruptions of a partial action, each with a label naming the change.

Entries are visited arrow by arrow in declaration order, points in carrier
order: first every theta entry, moved to each other carrier point and then
deleted, then every carrier point toggled in the arrow's domain.  ``changes``
lists them without building an action, so one can be picked and built alone.
"""

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

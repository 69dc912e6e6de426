"""Single-entry corruptions of a partial action, each with a label naming the change.

Entries are visited arrow by arrow in declaration order, points in carrier
order: first every theta entry, moved to each other carrier point and then
deleted, then every carrier point toggled in the arrow's domain.
"""

from isgact import PartialAction


def labeled_corruptions(action: PartialAction):
    """(label, action) for every action that differs from the given one in one theta entry or one domain point."""
    isg = action.semigroupoid
    for s in isg.arrows:
        moves = action.theta[s]
        for x in [p for p in action.carrier if p in moves]:
            y = moves[x]
            for z in [p for p in action.carrier if p != y] + [None]:
                theta = {**action.theta, s: {k: v for k, v in moves.items() if k != x}}
                if z is None:
                    label = f"theta[{s}] drops {x}->{y}"
                else:
                    theta[s][x] = z
                    label = f"theta[{s}] moves {x}->{y} to {x}->{z}"
                yield label, PartialAction(isg, action.carrier, action.dom_of, theta)
        for x in action.carrier:
            dom_of = {**action.dom_of, s: action.dom_of[s] ^ {x}}
            yield f"dom_of[{s}] toggles {x}", PartialAction(isg, action.carrier, dom_of, action.theta)

"""Reference oracle for the uniqueness audit: every candidate map, tried one by one.

``verify_universal_by_enumeration`` is the direct reading of the universal
property.  It enumerates all |Y|^|classes| maps from the classes into the
target carrier Y, keeps those that send i(x) to j(x) for every point x, and
counts the action maps among them.  The library instead reads the one
candidate that equivariance forces on each class one move from the
embedding and checks only that; the tests require the same report.  On a
hand-built global action with a class that is not one move from the
embedding, both report ``uniqueness``, and only there do the messages
differ: the oracle counts the maps, the library names the class.
"""

import itertools

from isgact import ActionMap, GlobalizationTriple, StructuralError, ValidationReport, Violation, is_global, validate_p_axioms
from isgact.morphisms import is_action_map


def _target_map(glob, target) -> ActionMap:
    """The carrier map of a target, with the validity of a plain map's target decided by the full scan."""
    if isinstance(target, GlobalizationTriple):
        j = target.embedding
    else:
        j = target
        if not validate_p_axioms(j.target).ok or not is_global(j.target):
            raise StructuralError("mediating requires a valid global target action")
        if not is_action_map(j).ok:
            raise StructuralError("the map into the target is not an action map")
    if j.source != glob.action:
        raise StructuralError("target must be built over the same input action")
    return j


def verify_universal_by_enumeration(glob, target, sigma: ActionMap, exhaustive_bound: int = 1_000_000) -> ValidationReport:
    """verify_universal, trying every candidate map and checking the triangle on each."""
    j = _target_map(glob, target)
    v: list[Violation] = []
    notes: list[str] = []

    sig_report = is_action_map(sigma)
    if not sig_report.ok:
        v.append(Violation("mediating-map", "sigma is not an action map", ()))
        v.extend(sig_report.violations)
    for x in glob.action.carrier:
        if sigma(glob.canonical_embedding(x)) != j(x):
            v.append(Violation("commutes", f"sigma(i({x})) differs from j({x})", (x,)))

    classes = glob.global_action.carrier
    points = j.target.carrier
    total = len(points) ** len(classes)
    if total > exhaustive_bound:
        notes.append(f"uniqueness skipped (bound): {len(points)}^{len(classes)} = {total} candidates exceed {exhaustive_bound}")
    else:
        matches = []
        for values in itertools.product(points, repeat=len(classes)):
            candidate = dict(zip(classes, values))
            if any(candidate[glob.canonical_embedding(x)] != j(x) for x in glob.action.carrier):
                continue
            cand_map = ActionMap(glob.global_action, j.target, candidate)
            if is_action_map(cand_map).ok:
                matches.append(candidate)
        if len(matches) != 1:
            v.append(Violation("uniqueness", f"{len(matches)} commuting action maps found, expected exactly one", ()))
        elif matches[0] != sigma.mapping:
            v.append(Violation("uniqueness", "the enumerated factoring map differs from sigma", ()))
    return ValidationReport(tuple(v), tuple(notes))

"""Reference oracles for the uniqueness audit: every candidate map, tried one by one.

``verify_universal_by_enumeration`` is the direct reading of the universal
property.  It enumerates all |Y|^|classes| maps from the classes into the
target carrier Y, keeps those that send i(x) to j(x) for every point x, and
counts the action maps among them.  ``action_maps_by_enumeration`` tries
every value on the points a partial map leaves unset.  The library instead
propagates values along the action from the fixed points and branches only
where propagation leaves a point unset; the tests require the same report
and the same list of maps.
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


def action_maps_by_enumeration(source, target, assigned) -> list[dict]:
    """Every action map from source to target extending ``assigned``, in lexicographic order of the other values."""
    free = [c for c in source.carrier if c not in assigned]
    matches = []
    for values in itertools.product(target.carrier, repeat=len(free)):
        candidate = {**assigned, **dict(zip(free, values))}
        if is_action_map(ActionMap(source, target, candidate)).ok:
            matches.append(candidate)
    return matches


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

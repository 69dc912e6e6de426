"""Maps between partial actions: equivariance, embeddings, isomorphisms."""

from __future__ import annotations

from typing import Mapping

from .actions import PartialAction, _name, is_global, validate_p_axioms
from .core import StructuralError, ValidationReport, Violation


class ActionMap:
    """A total map between the carriers of two actions of one semigroupoid.

    ``_image`` holds, at each source position, the target position of its
    image, and the checks read it against both actions' rows and masks;
    ``mapping`` is the same map by name, in source-carrier order.  The
    constructor takes names and checks that they cover the source carrier
    and land in the target's; ``_from_image`` takes positions that are in
    range by construction and checks nothing.
    """

    def __init__(self, source: PartialAction, target: PartialAction, mapping: Mapping):
        if source.semigroupoid != target.semigroupoid:
            raise StructuralError("source and target actions live over different semigroupoids")
        missing = set(source.carrier) - set(mapping)
        if missing:
            raise StructuralError(f"map undefined on source elements: {sorted(missing, key=str)}")
        extra = set(mapping) - set(source.carrier)
        if extra:
            raise StructuralError(f"map defined outside the source carrier: {sorted(extra, key=str)}")
        bad = {y for y in mapping.values() if y not in target}
        if bad:
            raise StructuralError(f"map values outside the target carrier: {sorted(bad, key=str)}")
        self.source = source
        self.target = target
        self.mapping = {x: mapping[x] for x in source.carrier}
        self._image = list(map(target._pos.__getitem__, self.mapping.values()))

    @classmethod
    def _from_image(cls, source: PartialAction, target: PartialAction, image: list[int]) -> ActionMap:
        f = cls.__new__(cls)
        f.source, f.target, f._image = source, target, image
        f.mapping = dict(zip(source.carrier, map(target.carrier.__getitem__, image)))
        return f

    def __call__(self, x):
        return self.mapping[x]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ActionMap):
            return NotImplemented
        return self.source == other.source and self.target == other.target and self.mapping == other.mapping

    def __repr__(self) -> str:
        return f"ActionMap({len(self.source.carrier)} -> {len(self.target.carrier)} points)"


def identity_map(action: PartialAction) -> ActionMap:
    return ActionMap(action, action, {x: x for x in action.carrier})


def inclusion_map(sub: PartialAction, sup: PartialAction) -> ActionMap:
    """The map x -> x of a sub-carrier action into a larger one."""
    return ActionMap(sub, sup, {x: x for x in sub.carrier})


def is_action_map(f: ActionMap) -> ValidationReport:
    """Check family preservation and equivariance on the rows, with witnesses in carrier order."""
    src, tgt = f.source, f.target
    isg = src.semigroupoid
    m, name, value = f._image, src.carrier, f.mapping
    v: list[Violation] = []
    for s, mask, family in zip(isg.arrows, src.masks, tgt.masks):
        for x, inside, y in zip(name, mask, m):
            if inside and not family[y]:
                v.append(Violation("family", f"map sends {x} of dom_of[{s}] to {value[x]} outside the target dom_of[{s}]", (s, x)))
    for s, window, row, target_row in zip(isg.arrows, map(src.masks.__getitem__, isg._inv), src.rows, tgt.rows):
        for x, inside, moved, y in zip(name, window, row, m):
            if inside and moved < 0:
                v.append(Violation("equivariance", f"source theta[{s}] undefined at {x}", (s, x)))
            elif inside and m[moved] != target_row[y]:
                expected, image = _name(tgt, target_row[y]), value[name[moved]]
                v.append(Violation("equivariance", f"map({x}) moves to {expected} under theta[{s}] but map(theta[{s}]({x})) = {image}", (s, x)))
    return ValidationReport(tuple(v))


def _injectivity(f: ActionMap) -> list[Violation]:
    first: dict[int, object] = {}  # target position -> the first source point sent there
    v = []
    for x, y in zip(f.source.carrier, f._image):
        if y in first:
            v.append(Violation("injective", f"{first[y]} and {x} share the value {f.mapping[x]}", (first[y], x, f.mapping[x])))
        else:
            first[y] = x
    return v


def is_embedding(f: ActionMap) -> ValidationReport:
    """Injective action map whose preimage equation recovers every source domain.

    For each arrow s the source domain must equal the preimage of the set of
    target points reached by theta[s] from the image of the map.
    """
    src, tgt = f.source, f.target
    isg = src.semigroupoid
    v = list(is_action_map(f).violations) + _injectivity(f)
    m = f._image
    image = set(m)
    for s, row, window, mask in zip(isg.arrows, tgt.rows, map(tgt.masks.__getitem__, isg._inv), src.masks):
        reachable = {row[z] for z in image if window[z]}
        for x, inside, y in zip(src.carrier, mask, m):
            if (y in reachable) != inside:
                v.append(Violation("embedding-domain", f"preimage equation for arrow {s} fails at {x}", (s, x)))
    return ValidationReport(tuple(v))


def _target_violations(action: PartialAction) -> tuple[Violation, ...]:
    """Why the action is not valid and global, the one home of that check: nothing, ``validate_p_axioms``'s report, or globality."""
    report = validate_p_axioms(action)
    if not report.ok:
        return (Violation("target-invalid", "target fails the partial-action axioms", ()), *report.violations)
    if not is_global(action):
        return (Violation("target-not-global", "target action is not global", ()),)
    return ()


def is_globalization_triple(f: ActionMap) -> ValidationReport:
    """Embedding into a valid global action: ``is_embedding``'s violations, then the target's."""
    return ValidationReport(is_embedding(f).violations + _target_violations(f.target))


class GlobalizationTriple:
    """A checked embedding of an action into a global action."""

    def __init__(self, embedding: ActionMap):
        report = is_globalization_triple(embedding)
        if not report.ok:
            raise StructuralError("not a globalization triple:\n" + report.render())
        self.embedding = embedding


def compose(g: ActionMap, f: ActionMap) -> ActionMap:
    """Pointwise composite g after f; endpoints must match."""
    if f.target != g.source:
        raise StructuralError("cannot compose: target of the first map differs from source of the second")
    return ActionMap(f.source, g.target, {x: g(f(x)) for x in f.source.carrier})


def is_isomorphism(f: ActionMap) -> bool:
    """Bijective on carriers and equivariant in both directions."""
    if sorted(f._image) != list(range(len(f.target.carrier))):
        return False
    if not is_action_map(f).ok:
        return False
    back = ActionMap(f.target, f.source, {y: x for x, y in f.mapping.items()})
    return is_action_map(back).ok

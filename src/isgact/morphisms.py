"""Maps between partial actions: equivariance, embeddings, isomorphisms."""

from __future__ import annotations

from typing import Mapping

from .actions import PartialAction, is_global, validate_p_axioms
from .core import StructuralError, ValidationReport, Violation, merge_reports


class ActionMap:
    """A total map between the carriers of two actions of one semigroupoid."""

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
        self.mapping = dict(mapping)

    def __call__(self, x):
        return self.mapping[x]

    def image(self) -> frozenset:
        return frozenset(self.mapping.values())

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
    """Check family preservation and equivariance, with witnesses."""
    src, tgt = f.source, f.target
    isg = src.semigroupoid
    v: list[Violation] = []
    for s in isg.arrows:
        for x in src.sorted_elements(src.dom_of[s]):
            if f(x) not in tgt.dom_of[s]:
                v.append(Violation("family", f"map sends {x} of dom_of[{s}] to {f(x)} outside the target dom_of[{s}]", (s, x)))
    for s in isg.arrows:
        for x in src.sorted_elements(src.dom_of[isg.inv(s)]):
            moved = src.theta[s].get(x)
            if moved is None:
                v.append(Violation("equivariance", f"source theta[{s}] undefined at {x}", (s, x)))
                continue
            expected = tgt.theta[s].get(f(x))
            if expected is None or f(moved) != expected:
                v.append(Violation("equivariance", f"map({x}) moves to {expected} under theta[{s}] but map(theta[{s}]({x})) = {f(moved)}", (s, x)))
    return ValidationReport(tuple(v))


def _injectivity(f: ActionMap) -> list[Violation]:
    seen: dict = {}
    v = []
    for x in f.source.carrier:
        y = f(x)
        if y in seen:
            v.append(Violation("injective", f"{seen[y]} and {x} share the value {y}", (seen[y], x, y)))
        else:
            seen[y] = x
    return v


def is_embedding(f: ActionMap) -> ValidationReport:
    """Injective action map whose preimage equation recovers every source domain.

    For each arrow s the source domain must equal the preimage of the set of
    target points reached by theta[s] from the image of the map.
    """
    src, tgt = f.source, f.target
    isg = src.semigroupoid
    v = list(is_action_map(f).violations) + _injectivity(f)
    image = f.image()
    for s in isg.arrows:
        reachable = set()
        for z in image & tgt.dom_of[isg.inv(s)]:
            w = tgt.theta[s].get(z)
            if w is not None:
                reachable.add(w)
        pre = {x for x in src.carrier if f(x) in reachable}
        for x in src.sorted_elements(pre ^ src.dom_of[s]):
            v.append(Violation("embedding-domain", f"preimage equation for arrow {s} fails at {x}", (s, x)))
    return ValidationReport(tuple(v))


def is_globalization_triple(f: ActionMap) -> ValidationReport:
    """Embedding into a valid global action."""
    reports = [is_embedding(f)]
    target_ok = validate_p_axioms(f.target)
    if not target_ok.ok:
        reports.append(ValidationReport((Violation("target-invalid", "target fails the partial-action axioms", ()),) + target_ok.violations))
    elif not is_global(f.target):
        reports.append(ValidationReport((Violation("target-not-global", "target action is not global", ()),)))
    return merge_reports(*reports)


class GlobalizationTriple:
    """A checked embedding of an action into a global action."""

    def __init__(self, embedding: ActionMap):
        report = is_globalization_triple(embedding)
        if not report.ok:
            raise StructuralError("not a globalization triple:\n" + report.render())
        self.embedding = embedding

    @property
    def target(self) -> PartialAction:
        return self.embedding.target


def compose(g: ActionMap, f: ActionMap) -> ActionMap:
    """Pointwise composite g after f; endpoints must match."""
    if f.target != g.source:
        raise StructuralError("cannot compose: target of the first map differs from source of the second")
    return ActionMap(f.source, g.target, {x: g(f(x)) for x in f.source.carrier})


def is_isomorphism(f: ActionMap) -> bool:
    """Bijective on carriers and equivariant in both directions."""
    if len(f.image()) != len(f.source.carrier) or f.image() != frozenset(f.target.carrier):
        return False
    if not is_action_map(f).ok:
        return False
    back = ActionMap(f.target, f.source, {y: x for x, y in f.mapping.items()})
    return is_action_map(back).ok

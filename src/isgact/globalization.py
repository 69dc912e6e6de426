"""Quotient-based globalization of a partial action.

The construction pairs every arrow s with every point of dom_of[inv(s) s],
closes a one-step relation on those pairs into an equivalence, and lets the
semigroupoid act on the classes by left multiplication of the arrow slot.
The result is a global action receiving the input through a canonical
embedding, and every map into a global action factors through it uniquely.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from .actions import PartialAction, is_global, validate_p_axioms
from .core import StructuralError, ValidationReport, Violation
from .morphisms import ActionMap, GlobalizationTriple, is_action_map, is_embedding


class Seed(NamedTuple):
    arrow: str
    point: object


class WellDefinednessError(ValueError):
    """Two representatives of one class produced different values."""

    def __init__(self, message: str, witness: tuple = ()):
        self.witness = witness
        super().__init__(message)


class Quotient:
    """The partition of the seed set that a list of related index pairs generates.

    ``edges`` are kept as given.  Classes are numbered in order of their first
    seed, seeds being ordered by (arrow position, point position); the
    representative of a class is that first seed.
    """

    def __init__(self, seeds: list[Seed], edges: list[tuple[int, int]]):
        self.seeds = tuple(seeds)
        self.edges = tuple(edges)
        uf = _UnionFind(len(self.seeds))
        for i, j in self.edges:
            uf.union(i, j)
        label: dict[int, int] = {}
        members: list[list[Seed]] = []
        class_of: dict[Seed, int] = {}
        for i, seed in enumerate(self.seeds):
            root = uf.find(i)
            if root not in label:
                label[root] = len(members)
                members.append([])
            c = label[root]
            class_of[seed] = c
            members[c].append(seed)
        self.class_of = class_of
        self.classes = tuple(tuple(m) for m in members)
        self.representatives = tuple(m[0] for m in self.classes)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            # keep the smaller index as root so labels stay canonical
            if ri > rj:
                ri, rj = rj, ri
            self.parent[rj] = ri


def build_seed_set(action: PartialAction) -> list[Seed]:
    """All pairs (s, x) with x in dom_of[inv(s) s], in canonical order."""
    isg = action.semigroupoid
    out = []
    for s in isg.arrows:
        base = action.dom_of[isg.mul(isg.inv(s), s)]
        out.extend(Seed(s, x) for x in action.carrier if x in base)
    return out


def seed_edges(seeds: Sequence[Seed], action: PartialAction) -> list[tuple[int, int]]:
    """Every one-step related pair of seeds, as sorted index pairs (i, j) with i < j.

    (s, x) relates to (t, y) when either inv(t) composes with s, x lies in
    dom_of[inv(s) t] and theta[inv(t) s] carries x to y, or both arrows are
    idempotent and x equals y.  So for a seed (s, x) and an arrow t sharing
    its codomain, the only candidate partner is (t, theta[inv(t) s](x)), found
    by one index lookup; the idempotent seeds at one point are all related.
    The cost is about seeds times arrows per codomain, not seeds squared.
    """
    isg = action.semigroupoid
    index = {seed: i for i, seed in enumerate(seeds)}
    by_arrow: dict[str, list[tuple[int, object]]] = {}
    for i, (s, x) in enumerate(seeds):
        by_arrow.setdefault(s, []).append((i, x))
    # arrows t with seeds, keyed by dom(inv t): inv(t) composes with s iff that is cod(s)
    partners: dict[str, list[str]] = {}
    for t in by_arrow:
        partners.setdefault(isg.dom(isg.inv(t)), []).append(t)

    edges: set[tuple[int, int]] = set()
    for s, block in by_arrow.items():
        for t in partners.get(isg.cod(s), ()):
            window = action.dom_of[isg.mul(isg.inv(s), t)]
            carry = action.theta[isg.mul(isg.inv(t), s)]
            for i, x in block:
                if x in window:
                    # a Seed hashes and compares as the plain pair
                    j = index.get((t, carry.get(x)))
                    if j is not None and i < j:
                        edges.add((i, j))
    idem = isg.idempotent_set()
    idempotent_at: dict = {}
    for i, (s, x) in enumerate(seeds):
        if s in idem:
            idempotent_at.setdefault(x, []).append(i)
    for group in idempotent_at.values():
        edges.update(itertools.combinations(group, 2))
    return sorted(edges)


def close_equivalence(seeds: list[Seed], action: PartialAction) -> Quotient:
    """Union-find closure of the one-step relation over the enumerated seed edges."""
    return Quotient(seeds, seed_edges(seeds, action))


class Globalization:
    """Quotient classes, the induced global action, and the canonical embedding."""

    def __init__(self, action, quotient, global_action, canonical_embedding):
        self.action = action
        self.quotient = quotient
        self.global_action = global_action
        self.canonical_embedding = canonical_embedding

    def __repr__(self) -> str:
        return f"Globalization({len(self.quotient.seeds)} seeds, {self.quotient.n_classes} classes)"


def build_globalization(action: PartialAction) -> Globalization:
    """Run the whole construction and verify the promised properties.

    One pass over the seeds reads the class maps off the seed index: arrow s
    sends the class of (p, x) to the class of (s p, x), and is defined there
    exactly when (s p, x) is itself a seed, since inv(s p) s p equals
    inv(p) inv(s) s p.  Every seed of a class is evaluated, as a
    well-definedness audit.  The family of s is the key set of the map of
    inv(s), and the idempotent seeds (e, x) give the class that x embeds into.
    The output is checked to be a valid global action and the canonical map
    to be an embedding before anything is returned.
    """
    pre = validate_p_axioms(action)
    if not pre.ok:
        raise StructuralError("input fails the partial-action axioms:\n" + pre.render())

    isg = action.semigroupoid
    seeds = build_seed_set(action)
    quotient = close_equivalence(seeds, action)
    class_of = quotient.class_of

    # for each arrow p, the arrows s with s p defined, paired with the product
    products: dict[str, list[tuple[str, str]]] = {p: [] for p in isg.arrows}
    for s, p, sp in isg.products:
        products[p].append((s, sp))

    # s sends the class of (p, x) to that of (s p, x), defined exactly when (s p, x) is a seed
    idem = isg.idempotent_set()
    theta: dict[str, dict] = {s: {} for s in isg.arrows}
    landing: dict = {}
    for seed in seeds:
        p, x = seed
        src = class_of[seed]
        if p in idem:
            landing.setdefault(x, set()).add(src)
        for s, sp in products[p]:
            # a Seed hashes and compares as the plain pair
            dst = class_of.get((sp, x))
            if dst is None:
                continue
            prev = theta[s].setdefault(src, dst)
            if prev != dst:
                raise RuntimeError(
                    f"class map for arrow {s} is not well defined: class {src} sent to both {prev} and {dst}"
                )
    dom_of = {s: frozenset(theta[isg.inv(s)]) for s in isg.arrows}

    embed: dict = {}
    for x in action.carrier:
        targets = landing.get(x)
        if not targets:
            raise StructuralError(f"carrier element {x} lies in no idempotent domain")
        if len(targets) > 1:
            raise RuntimeError(f"canonical embedding of {x} is not well defined: classes {sorted(targets)}")
        embed[x] = targets.pop()

    global_action = PartialAction(isg, range(quotient.n_classes), dom_of, theta)
    report = validate_p_axioms(global_action)
    if not report.ok:
        raise RuntimeError("constructed action fails the axioms:\n" + report.render())
    if not is_global(global_action):
        raise RuntimeError("constructed action is not global")
    canonical = ActionMap(action, global_action, embed)
    emb_report = is_embedding(canonical)
    if not emb_report.ok:
        raise RuntimeError("canonical map is not an embedding:\n" + emb_report.render())
    return Globalization(action, quotient, global_action, canonical)


def _target_map(glob: Globalization, target) -> ActionMap:
    """Normalize a mediating target to its carrier map, enforcing preconditions."""
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


def mediating(glob: Globalization, target) -> ActionMap:
    """The unique factoring map: a class named by (s, x) goes to the target move of j(x) by s.

    ``target`` is either a GlobalizationTriple or a plain ActionMap into a
    global action.  Every representative of every class is evaluated; any
    disagreement raises WellDefinednessError with the offending pair.
    """
    j = _target_map(glob, target)
    tgt = j.target
    mapping: dict[int, object] = {}
    for c, members in enumerate(glob.quotient.classes):
        values: dict = {}
        for s, x in members:
            z = tgt.apply(s, j(x))
            if z is None:
                raise WellDefinednessError(
                    f"target action undefined on seed ({s}, {x}) of class {c}", (Seed(s, x),)
                )
            values.setdefault(z, Seed(s, x))
        if len(values) > 1:
            (z1, p1), (z2, p2) = list(values.items())[:2]
            raise WellDefinednessError(
                f"class {c} maps to both {z1} (via {p1}) and {z2} (via {p2})", (p1, p2)
            )
        mapping[c] = next(iter(values))
    return ActionMap(glob.global_action, tgt, mapping)


def verify_universal(glob: Globalization, target, sigma: ActionMap, exhaustive_bound: int = 1_000_000) -> ValidationReport:
    """Audit the universal property for one target.

    Checks that sigma is an action map and closes the triangle with the
    canonical embedding; when the number of candidate maps from classes to the
    target carrier stays within the bound, enumerates them all and confirms
    sigma is the only action map closing the triangle.
    """
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


def fiber_classes(glob: Globalization, u: str) -> frozenset[int]:
    """Classes containing a seed whose arrow has codomain u."""
    isg = glob.action.semigroupoid
    if u not in isg.objects:
        raise StructuralError(f"unknown object: {u!r}")
    return frozenset(
        c for c, members in enumerate(glob.quotient.classes) if any(isg.cod(s) == u for s, _ in members)
    )


def check_fiber_injectivity(sigma: ActionMap, glob: Globalization) -> ValidationReport:
    """The mediating map must be injective on every codomain fiber."""
    isg = glob.action.semigroupoid
    v: list[Violation] = []
    for u in isg.objects:
        seen: dict = {}
        for c in sorted(fiber_classes(glob, u)):
            z = sigma.mapping[c]
            if z in seen:
                v.append(Violation("fiber-injectivity", f"classes {seen[z]} and {c} in the fiber of {u} share the value {z}", (u, seen[z], c, z)))
            else:
                seen[z] = c
    return ValidationReport(tuple(v))

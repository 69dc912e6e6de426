"""Quotient-based globalization of a partial action.

The construction pairs every arrow s with every point of dom_of[inv(s) s],
closes a one-step relation on those pairs into an equivalence, and lets the
semigroupoid act on the classes by left multiplication of the arrow slot.
The result is a global action receiving the input through a canonical
embedding, and every map into a global action factors through it uniquely.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

from .actions import PartialAction, is_valid_global, validate_p_axioms
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
    representative of a class is that first seed.  One union-find pass over
    the integer edges (path halving) links every root below the smaller
    index, so a seed's parent never comes after it, and one forward pass
    labels every seed: a root opens the next class, any other seed takes
    its parent's label.  The cost is about seeds plus edges; ``class_of`` is
    built from the labels on first read.
    """

    def __init__(self, seeds: list[Seed], edges: list[tuple[int, int]]):
        self.seeds = tuple(seeds)
        self.edges = tuple(edges)
        parent = list(range(len(self.seeds)))
        for i, j in self.edges:
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            if i < j:
                parent[j] = i
            elif j < i:
                parent[i] = j
        label: list[int] = []  # each seed's class id
        members: list[list[Seed]] = []
        for i, seed in enumerate(self.seeds):
            if parent[i] == i:
                label.append(len(members))
                members.append([seed])
            else:
                c = label[parent[i]]  # parent[i] < i, in the same class
                label.append(c)
                members[c].append(seed)
        self._label = label
        self.classes = tuple(tuple(m) for m in members)
        self.representatives = tuple(m[0] for m in self.classes)

    @cached_property
    def class_of(self) -> dict[Seed, int]:
        return dict(zip(self.seeds, self._label))

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def build_seed_set(action: PartialAction) -> list[Seed]:
    """All pairs (s, x) with x in dom_of[inv(s) s], in canonical order."""
    isg = action.semigroupoid
    out = []
    for s in isg.arrows:
        base = action.masks[isg.mul(isg.inv(s), s)]
        out.extend(Seed(s, x) for x, inside in zip(action.carrier, base) if inside)
    return out


def seed_edges(seeds: Sequence[Seed], action: PartialAction) -> list[tuple[int, int]]:
    """Every one-step related pair of seeds, as sorted index pairs (i, j) with i < j.

    (s, x) relates to (t, y) when either inv(t) composes with s, x lies in
    dom_of[inv(s) t] and theta[inv(t) s] carries x to y, or both arrows are
    idempotent and x equals y.  So for a seed (s, x) and an arrow t sharing
    its codomain, the only candidate partner is (t, theta[inv(t) s](x)).  As
    dom_of[inv(s) t] is dom_of[inv(inv(t) s)], the window and the move are
    both read off the row of inv(t) s cut to that domain, and the partner's
    id off the row of t in the integer seed index: per arrow, a list over
    carrier positions holding each seed's id, or -1, with one more -1 at the
    end so that ``row[-1]`` reads "no seed".  Arrows whose seeds all come
    before those of s are skipped.  Seeds are visited in order and each
    appends its partners j > i; with the seeds in canonical order these
    arrive sorted, so only an idempotent seed, whose partners at its point
    may repeat, sorts its own few.  The cost is about seeds times arrows per
    codomain, not seeds squared, and the edge set is sorted only when the
    seeds are not in canonical order.
    """
    isg = action.semigroupoid
    pos = action._pos
    at = [pos[x] for _, x in seeds]  # each seed's carrier position
    rows = {s: [-1] * (len(action.carrier) + 1) for s in isg.arrows}
    blocks: dict[str, list[int]] = {}  # each arrow's seed ids, increasing
    for i, (s, _) in enumerate(seeds):
        rows[s][at[i]] = i
        blocks.setdefault(s, []).append(i)
    # arrows t with seeds, keyed by dom(inv t): inv(t) composes with s iff that is cod(s)
    partners: dict[str, list[str]] = {}
    for t in blocks:
        partners.setdefault(isg.dom(isg.inv(t)), []).append(t)

    idem = isg.idempotent_set()
    idempotent_at: dict[int, list[int]] = {}  # ids of the idempotent seeds at each carrier position, increasing
    for i, (s, _) in enumerate(seeds):
        if s in idem:
            idempotent_at.setdefault(at[i], []).append(i)

    # per arrow u, its row cut to the window dom_of[inv u]; the cut only bites off the axioms
    hops = {u: [j if inside else -1 for j, inside in zip(action.rows[u], action.masks[isg.inv(u)])] for u in isg.arrows}
    edges: list[tuple[int, int]] = []
    for s, block in blocks.items():
        # per partner arrow t: its seed row, and the cut row of inv(t) s
        lookups = [
            (rows[t], hops[isg.mul(isg.inv(t), s)])
            for t in partners[isg.cod(s)]
            if blocks[t][-1] >= block[0]  # else every partner would come first
        ]
        if s in idem:
            # the idempotent seeds at a point also relate, so partners may repeat
            for i in block:
                k = at[i]
                js = {row[hop[k]] for row, hop in lookups}
                js.update(idempotent_at[k])
                edges += [(i, j) for j in sorted(js) if j > i]
        else:
            for i in block:
                k = at[i]
                edges += [(i, j) for row, hop in lookups if (j := row[hop[k]]) > i]
    # with each arrow's ids contiguous, as in canonical order, seeds and partners were visited in order
    if not all(b[-1] - b[0] + 1 == len(b) for b in blocks.values()):
        edges.sort()
    return edges


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

    One pass over the seeds writes each seed's class into its arrow's class
    row, at the seed's carrier position.  A second reads the class maps off
    those rows: arrow s sends the class of (p, x) to the class of (s p, x),
    read in the class row of s p at x, and is defined there exactly when
    (s p, x) is itself a seed, since inv(s p) s p equals inv(p) inv(s) s p.
    Every seed of a class is evaluated against every left multiplier, as a
    well-definedness audit.  The class maps are the output's rows over class
    ids, handed to it as they are; the family of s is where the map of
    inv(s) is defined, and the idempotent seeds (e, x) give the class that x
    embeds into.  The output is checked to be a valid global action, along
    the generators (``is_valid_global``), with the full axiom scan run only
    to report a failure, and the canonical map to be an embedding before
    anything is returned.
    """
    pre = validate_p_axioms(action)
    if not pre.ok:
        raise StructuralError("input fails the partial-action axioms:\n" + pre.render())

    isg = action.semigroupoid
    seeds = build_seed_set(action)
    quotient = close_equivalence(seeds, action)
    label = quotient._label
    n_classes = quotient.n_classes

    # per arrow, the class of the seed at each carrier position, or -1; the
    # idempotent seeds (e, x) give the class that x embeds into
    pos, idem = action._pos, isg.idempotent_set()
    at = [pos[x] for _, x in seeds]  # each seed's carrier position
    class_rows = {a: [-1] * len(action.carrier) for a in isg.arrows}
    landing: list[set[int]] = [set() for _ in action.carrier]
    for (p, _), k, c in zip(seeds, at, label):
        class_rows[p][k] = c
        if p in idem:
            landing[k].add(c)
    # per arrow s, a row over class ids: the class s sends it to, or -1 while unset
    moves_of = {s: [-1] * n_classes for s in isg.arrows}
    # for each arrow p, the arrows s with s p defined, with s's moves and the class row of s p
    lefts: dict[str, list[tuple[str, list[int], list[int]]]] = {p: [] for p in isg.arrows}
    for s, p, sp in isg.products:
        lefts[p].append((s, moves_of[s], class_rows[sp]))

    # s sends the class of (p, x) to that of (s p, x), defined exactly when (s p, x) is a seed
    for (p, _), k, src in zip(seeds, at, label):
        for s, moves, row in lefts[p]:
            dst = row[k]
            if dst < 0:
                continue
            prev = moves[src]
            if prev != dst:
                if prev >= 0:
                    raise RuntimeError(f"class map for arrow {s} is not well defined: class {src} sent to both {prev} and {dst}")
                moves[src] = dst
    # the family of s is where the map of inv(s) is defined
    families = {s: [d >= 0 for d in moves_of[isg.inv(s)]] for s in isg.arrows}

    embed: dict = {}
    for x, targets in zip(action.carrier, landing):
        if not targets:
            raise StructuralError(f"carrier element {x} lies in no idempotent domain")
        if len(targets) > 1:
            raise RuntimeError(f"canonical embedding of {x} is not well defined: classes {sorted(targets)}")
        embed[x] = targets.pop()

    global_action = PartialAction._from_rows(isg, tuple(range(n_classes)), moves_of, families)
    if not is_valid_global(global_action):
        # the full scan names the violations; without any, the failure is globality
        report = validate_p_axioms(global_action)
        if not report.ok:
            raise RuntimeError("constructed action fails the axioms:\n" + report.render())
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
        if not is_valid_global(j.target):
            raise StructuralError("mediating requires a valid global target action")
        if not is_action_map(j).ok:
            raise StructuralError("the map into the target is not an action map")
    if j.source != glob.action:
        raise StructuralError("target must be built over the same input action")
    return j


def mediating(glob: Globalization, target) -> ActionMap:
    """The unique factoring map: a class named by (s, x) goes to the target move of j(x) by s.

    ``target`` is either a GlobalizationTriple or a plain ActionMap into a
    global action.  Every representative of every class is evaluated, on
    the target's rows; any disagreement raises WellDefinednessError with the
    offending pair.
    """
    j = _target_map(glob, target)
    tgt = j.target
    pos, image, inv = glob.action._pos, j._image, tgt.semigroupoid.inv
    mapping: dict[int, object] = {}
    for c, members in enumerate(glob.quotient.classes):
        values: dict[int, Seed] = {}  # target position -> the first seed that gives it
        for seed in members:
            s, x = seed
            y = image[pos[x]]  # j(x)
            z = tgt.rows[s][y] if tgt.masks[inv(s)][y] else -1
            if z < 0:
                raise WellDefinednessError(f"target action undefined on seed ({s}, {x}) of class {c}", (seed,))
            values.setdefault(z, seed)
        if len(values) > 1:
            (z1, p1), (z2, p2) = list(values.items())[:2]
            raise WellDefinednessError(f"class {c} maps to both {tgt.carrier[z1]} (via {p1}) and {tgt.carrier[z2]} (via {p2})", (p1, p2))
        mapping[c] = tgt.carrier[next(iter(values))]
    return ActionMap(glob.global_action, tgt, mapping)


def _commuting_maps(source: PartialAction, target: PartialAction, assigned: dict) -> list[dict]:
    """Every action map from source to target that extends the partial map ``assigned``.

    A complete search over carrier positions.  Equivariance makes each move
    theta[s](c) = d with c in dom_of[inv(s)] force the value of d: the
    target move of the value of c by s.  Values spread from the assigned
    points along those moves, and a branch where a forced move is undefined
    or disagrees with a value already set is cut, since no action map
    extends it.  The search branches over the target carrier only at the
    first point still unset, and propagates again after each choice.  Every
    complete assignment it reaches is checked by ``is_action_map``, which
    also decides the family condition, so the result does not rest on the
    propagation.  Maps come in lexicographic order of their values, points
    and values taken in carrier order.
    """
    isg = source.semigroupoid
    forced: list[list[tuple[int, list[int]]]] = [[] for _ in source.carrier]  # per point: (d, target row of s)
    for s in isg.arrows:
        moves = target.rows[s]
        for c, (d, inside) in enumerate(zip(source.rows[s], source.masks[isg.inv(s)])):
            if inside and d >= 0:
                forced[c].append((d, moves))

    def spread(values: list[int], frontier: list[int]) -> bool:
        while frontier:
            c = frontier.pop()
            y = values[c]
            for d, moves in forced[c]:
                z = moves[y]
                if z < 0 or values[d] not in (-1, z):
                    return False
                if values[d] < 0:
                    values[d] = z
                    frontier.append(d)
        return True

    matches = []
    # per source position, a target position or -1 while unset
    start = [target._pos[assigned[x]] if x in assigned else -1 for x in source.carrier]
    pending = [start] if spread(start, [c for c, y in enumerate(start) if y >= 0]) else []
    while pending:
        values = pending.pop()
        if -1 not in values:
            found = {x: target.carrier[y] for x, y in zip(source.carrier, values)}
            if is_action_map(ActionMap(source, target, found)).ok:
                matches.append(found)
            continue
        c = values.index(-1)
        # pushed in reverse so that branches are taken in target carrier order
        for y in reversed(range(len(target.carrier))):
            trial = values.copy()
            trial[c] = y
            if spread(trial, [c]):
                pending.append(trial)
    return matches


def verify_universal(glob: Globalization, target, sigma: ActionMap, exhaustive_bound: int = 1_000_000) -> ValidationReport:
    """Audit the universal property for one target.

    Checks that sigma is an action map and closes the triangle with the
    canonical embedding i, then searches for every action map that sends
    each class i(x) to j(x) (``_commuting_maps``) and confirms sigma is the
    only one.  Values spread from the embedded classes along the constructed
    action; every class of a true globalization is reached that way, so the
    search does not branch there and costs about classes times arrows.  The
    budget still counts all |Y|^|classes| maps into the target carrier Y,
    and the audit is skipped with a note when that exceeds the bound.
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
        fixed = {glob.canonical_embedding(x): j(x) for x in glob.action.carrier}
        matches = _commuting_maps(glob.global_action, j.target, fixed)
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

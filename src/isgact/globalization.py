"""Quotient-based globalization of a partial action.

The construction pairs every arrow s with every point of dom_of[inv(s) s],
closes a one-step relation on those pairs into an equivalence, and lets the
semigroupoid act on the classes by left multiplication of the arrow slot.
The result is a global action receiving the input through a canonical
embedding, and every map into a global action factors through it uniquely.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations, compress
from operator import lt
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    """The partition of a seed index (per arrow position: seed ids, carrier positions) by the closed one-step relation.

    The constructor enumerates the relation and closes it once; classes are
    numbered by their first seed, their representative.  The other members
    are views built on first read, for the API, renderers and error messages.
    """

    def __init__(self, action: PartialAction, blocks: list):
        self._action, self._blocks = action, blocks
        self._label, self.n_classes = _classes(sum(len(ids) for ids, _ in blocks), _related_pairs(blocks, action))

    @cached_property
    def seeds(self) -> tuple[Seed, ...]:
        carrier, seeds = self._action.carrier, [None] * len(self._label)
        for s, (ids, pts) in zip(self._action.semigroupoid.arrows, self._blocks):
            for i, k in zip(ids, pts):
                seeds[i] = Seed(s, carrier[k])
        return tuple(seeds)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every one-step related pair of seed ids (i, j), i < j, once each, sorted."""
        return tuple(sorted(set(_related_pairs(self._blocks, self._action))))

    @cached_property
    def classes(self) -> tuple[tuple[Seed, ...], ...]:
        members: list[list[Seed]] = [[] for _ in range(self.n_classes)]
        for seed, c in zip(self.seeds, self._label):
            members[c].append(seed)
        return tuple(map(tuple, members))

    @cached_property
    def representatives(self) -> tuple[Seed, ...]:
        return tuple(m[0] for m in self.classes)

    @cached_property
    def class_of(self) -> dict[Seed, int]:
        return dict(zip(self.seeds, self._label))


def _classes(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """The class label of each of n seed ids, classes numbered by first seed, and the class count.

    One union-find pass over the pairs (path halving) links every root below the smaller id, so a
    seed's parent never comes after it, and one forward pass labels every seed in about seeds + pairs.
    """
    parent = list(range(n))
    for i, j in pairs:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i < j:
            parent[j] = i
        elif j < i:
            parent[i] = j
    label: list[int] = []
    count = 0
    for i, p in enumerate(parent):
        label.append(count if p == i else label[p])  # p < i, in the same class, unless i is a root
        count += p == i
    return label, count


def _seed_index(action: PartialAction) -> list[tuple[range, list[int]]]:
    """Per arrow position, the ids of its seeds, in canonical order, and their positions in dom_of[inv(s) s]."""
    isg = action.semigroupoid
    mul, columns = isg.table._mul, range(len(action.carrier))
    blocks, start = [], 0
    for s, si in enumerate(isg._inv):
        pts = list(compress(columns, action.masks[mul[si][s]]))
        blocks.append((range(start, start + len(pts)), pts))
        start += len(pts)
    return blocks


def _translated(seeds: Sequence[Seed], action: PartialAction) -> list:
    """The seed index of a list in any order: per arrow position, its seeds' ids, increasing, and positions."""
    pos, aidx = action._pos, action.semigroupoid.table._aidx
    blocks: list = [([], []) for _ in aidx]
    for i, (s, x) in enumerate(seeds):
        ids, pts = blocks[aidx[s]]
        ids.append(i)
        pts.append(pos[x])
    return blocks


def _scatter(n: int, keys: Iterable[int], values: Iterable[int]) -> list[int]:
    """A list of n entries holding each value at its key, and -1 elsewhere."""
    row = [-1] * n
    for k, v in zip(keys, values):
        row[k] = v
    return row


def build_seed_set(action: PartialAction) -> list[Seed]:
    """All pairs (s, x) with x in dom_of[inv(s) s], in canonical order."""
    carrier = action.carrier
    return [Seed(s, carrier[k]) for s, (_, pts) in zip(action.semigroupoid.arrows, _seed_index(action)) for k in pts]


def _related_pairs(blocks: list, action: PartialAction) -> Iterator[tuple[int, int]]:
    """Every one-step related pair (i, j) of a seed index with i < j, seen from seed i; pairs may repeat.

    (s, x) relates to (t, y) when either inv(t) composes with s, x lies in
    dom_of[inv(s) t] and theta[inv(t) s] carries x to y, or both arrows are
    idempotent and x equals y.  So the only candidate partner of (s, x) in
    the block of t is (t, theta[inv(t) s](x)), read off the row of inv(t) s
    cut to dom_of[inv(s) t] = dom_of[inv(inv(t) s)], then off t's id row:
    each seed's id at its carrier position, or -1, and one more -1 at the
    end so that ``row[-1]`` reads "no seed".  The pairs (s, t) come from the
    products inv(t) s, skipping t when all its ids come before those of s,
    and one list comprehension per arrow s reads its whole block.  The cost
    is about seeds times arrows per codomain, not seeds squared.
    """
    isg = action.semigroupoid
    n, inv, idem = len(action.carrier), isg._inv, isg._idem
    rows: list = [None] * len(blocks)  # each arrow's id row, None for an arrow without seeds
    idempotent_at: list[list[int]] = [[] for _ in range(n)]  # ids of the idempotent seeds at each carrier position
    for t, (ids, pts) in enumerate(blocks):
        if ids:
            rows[t] = _scatter(n + 1, pts, ids)
            if idem[t]:
                for k, i in zip(pts, ids):
                    idempotent_at[k].append(i)

    hops: dict[int, list[int]] = {}  # per arrow u, its row cut to dom_of[inv u]; the cut only bites off the axioms
    lookups: dict[int, list] = {s: [] for s, row in enumerate(rows) if row}  # per arrow s: (id row of t, hop of inv(t) s) per partner t
    for a, s, u in isg._products:  # a = inv(t) composes with s
        t = inv[a]
        if rows[s] and rows[t] and blocks[t][0][-1] >= blocks[s][0][0]:  # else every partner would come first
            if u not in hops:
                hops[u] = [j if inside else -1 for j, inside in zip(action.rows[u], action.masks[inv[u]])]
            lookups[s].append((rows[t], hops[u]))
    found: list[Iterable[tuple[int, int]]] = []
    for s, partners in lookups.items():
        ids, pts = blocks[s]
        ids = list(ids) * len(partners)
        js = [row[hop[k]] for row, hop in partners for k in pts]
        found.append(compress(zip(ids, js), map(lt, ids, js)))
    found.extend(combinations(sorted(g), 2) for g in idempotent_at if len(g) > 1)
    return chain.from_iterable(found)


def close_equivalence(seeds: list[Seed], action: PartialAction) -> Quotient:
    """The quotient of a seed list, in any order, by the closure of the one-step relation; seed ids are list positions."""
    return Quotient(action, _translated(seeds, action))


class Globalization:
    """Quotient classes, the induced global action, and the canonical embedding."""

    def __init__(self, action, quotient, global_action, canonical_embedding):
        self.action = action
        self.quotient = quotient
        self.global_action = global_action
        self.canonical_embedding = canonical_embedding

    def __repr__(self) -> str:
        return f"Globalization({len(self.quotient._label)} seeds, {self.quotient.n_classes} classes)"


def build_globalization(action: PartialAction) -> Globalization:
    """Run the whole construction and verify the promised properties.

    The closure runs on the integer seed index (``_seed_index``), and the
    later passes read the index and the class labels block by block.  Arrow
    s sends the class of (p, x) to the class of (s p, x), read in the class
    row of s p (its seeds' classes by carrier position) at x, and is defined
    there exactly when (s p, x) is a seed, since inv(s p) s p equals inv(p)
    inv(s) s p.  Every seed is evaluated against every left multiplier, as a
    well-definedness audit.  The class maps are the output's rows over class
    ids; the family of s is where the map of inv(s) is defined, and the
    idempotent seeds (e, x) give the class that x embeds into.  The output
    is checked to be a valid global action along the generators
    (``is_valid_global``), with the full axiom scan run only to report a
    failure, and the canonical map to be an embedding.
    """
    pre = validate_p_axioms(action)
    if not pre.ok:
        raise StructuralError("input fails the partial-action axioms:\n" + pre.render())

    isg, n = action.semigroupoid, len(action.carrier)
    blocks = _seed_index(action)
    quotient = Quotient(action, blocks)
    n_classes = quotient.n_classes
    # per arrow, its seeds' classes, and its class row: the class of its seed at each carrier position, or -1
    labels = [quotient._label[ids.start:ids.stop] for ids, _ in blocks]
    class_rows = [_scatter(n, pts, labels[p]) for p, (_, pts) in enumerate(blocks)]

    # per arrow s, a row over class ids: the class s sends it to, or -1
    moves_of = [[-1] * n_classes for _ in blocks]
    # for each arrow p, per arrow s with s p defined: the moves of s and the class row of s p
    lefts: list[list[tuple[int, list[int], list[int]]]] = [[] for _ in blocks]
    for s, p, sp in isg._products:
        lefts[p].append((s, moves_of[s], class_rows[sp]))
    # s sends the class of (p, x) to that of (s p, x), defined exactly when (s p, x) is a seed
    for (_, pts), left, label in zip(blocks, lefts, labels):
        for k, src in zip(pts, label):
            for s, moves, row in left:
                dst = row[k]
                if dst >= 0 and moves[src] != dst:
                    if moves[src] >= 0:
                        raise RuntimeError(f"class map for arrow {isg.arrows[s]} is not well defined: class {src} sent to both {moves[src]} and {dst}")
                    moves[src] = dst
    # the family of s is where the map of inv(s) is defined
    families = [[d >= 0 for d in moves_of[si]] for si in isg._inv]

    landing = set(chain.from_iterable(zip(blocks[e][1], labels[e]) for e in compress(range(len(blocks)), isg._idem)))
    home = dict(landing)  # carrier position -> class
    if len(landing) != n or len(home) != n:
        for k, x in enumerate(action.carrier):
            targets = sorted(c for i, c in landing if i == k)
            if not targets:
                raise StructuralError(f"carrier element {x} lies in no idempotent domain")
            if len(targets) > 1:
                raise RuntimeError(f"canonical embedding of {x} is not well defined: classes {targets}")
    embed = {x: home[k] for k, x in enumerate(action.carrier)}

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
    global action.  Every seed of every class is evaluated on the target's
    rows, class by class; the first class, in class order, that j does not
    carry to one value raises WellDefinednessError with the offending seeds.
    """
    j = _target_map(glob, target)
    tgt, q, image, inv = j.target, glob.quotient, j._image, j.target.semigroupoid._inv
    members: list[list[tuple[int, int]]] = [[] for _ in range(q.n_classes)]  # each class's seeds (arrow, position), by id
    for s, (ids, pts) in enumerate(q._blocks):
        for c, k in zip(q._label[ids.start:ids.stop], pts):
            members[c].append((s, k))
    arrows, carrier = tgt.semigroupoid.arrows, glob.action.carrier
    value = []  # each class's target point
    for c, seeds in enumerate(members):
        first: dict[int, tuple[int, int]] = {}  # target position -> the first seed that gives it
        for s, k in seeds:
            y = image[k]  # j(x)
            z = tgt.rows[s][y] if tgt.masks[inv[s]][y] else -1
            if z < 0:
                bad = Seed(arrows[s], carrier[k])
                raise WellDefinednessError(f"target action undefined on seed ({bad.arrow}, {bad.point}) of class {c}", (bad,))
            first.setdefault(z, (s, k))
        if len(first) > 1:
            (z1, p1), (z2, p2) = [(z, Seed(arrows[s], carrier[k])) for z, (s, k) in list(first.items())[:2]]
            raise WellDefinednessError(f"class {c} maps to both {tgt.carrier[z1]} (via {p1}) and {tgt.carrier[z2]} (via {p2})", (p1, p2))
        value.append(tgt.carrier[z])  # every seed of the class gave z
    return ActionMap(glob.global_action, tgt, dict(enumerate(value)))


def _forced_values(source: PartialAction, target: PartialAction, fixed: dict) -> list[int] | None:
    """Per source position, the one target position an action map extending ``fixed`` can give it.

    Equivariance makes each move theta[s](c) = d with c in dom_of[inv(s)]
    force the value of d: the target move of the value of c by s.  One pass
    over the fixed points and the arrows reads every value one move away;
    a point not one move from a fixed point keeps -1.  None means no action
    map extends ``fixed``: a forced move is undefined in the target, or two
    forced values disagree.
    """
    values = [-1] * len(source.carrier)
    starts = [(source._pos[c], target._pos[y]) for c, y in fixed.items()]
    for c, y in starts:
        values[c] = y
    for row, window, moves in zip(source.rows, map(source.masks.__getitem__, source.semigroupoid._inv), target.rows):
        for c, y in starts:
            d = row[c]
            if window[c] and d >= 0:
                z = moves[y]
                if z < 0 or values[d] not in (-1, z):
                    return None
                values[d] = z
    return values


def verify_universal(glob: Globalization, target, sigma: ActionMap, exhaustive_bound: int = 1_000_000) -> ValidationReport:
    """Audit the universal property for one target.

    Checks that sigma is an action map and closes the triangle with the
    canonical embedding i, then that exactly one action map f sends each
    class i(x) to j(x), and that f is sigma.  Every class of the
    construction is the class of a seed (s, x), which is theta[s](i(x)), so
    f can only send it to the target move of j(x) by s: one pass reads that
    candidate (``_forced_values``), and ``is_action_map`` decides whether it
    is an action map.  A class the pass leaves unset is not one move from
    the embedding, so the global action is not the construction's, and it
    is reported.  The pass costs about embedded points times arrows, so the
    bound limits no work; it still counts all |Y|^|classes| maps into the
    target carrier Y, as the enumeration oracle does, and the uniqueness
    audit is skipped with a note when that count exceeds it.
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
        values = _forced_values(glob.global_action, j.target, fixed)
        none_found = Violation("uniqueness", "0 commuting action maps found, expected exactly one", ())
        if values is None:
            v.append(none_found)
        elif -1 in values:
            c = classes[values.index(-1)]
            v.append(Violation("uniqueness", f"class {c} is not one move from the embedding, so its value is not forced", (c,)))
        else:
            forced = ActionMap(glob.global_action, j.target, {c: points[y] for c, y in zip(classes, values)})
            if not is_action_map(forced).ok:
                v.append(none_found)
            elif forced.mapping != sigma.mapping:
                v.append(Violation("uniqueness", "the enumerated factoring map differs from sigma", ()))
    return ValidationReport(tuple(v), tuple(notes))


def fiber_classes(glob: Globalization, u: str) -> frozenset[int]:
    """Classes containing a seed whose arrow has codomain u."""
    table = glob.action.semigroupoid.table
    if u not in table._oidx:
        raise StructuralError(f"unknown object: {u!r}")
    q, o = glob.quotient, table._oidx[u]
    return frozenset(chain.from_iterable(q._label[ids.start:ids.stop] for (ids, _), c in zip(q._blocks, table._cod) if c == o))


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

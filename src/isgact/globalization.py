"""Quotient-based globalization of a partial action.

The construction pairs every arrow s with every point of dom_of[inv(s) s],
closes a one-step relation on those pairs into an equivalence, and lets the
semigroupoid act on the classes by left multiplication of the arrow slot.
The result is a global action receiving the input through a canonical
embedding, and every map into a global action factors through it uniquely.

``close_equivalence`` enumerates the relation (``_related_pairs``: one pass
over the composable products, reading each product's row at the seeds of
its right factor, then the idempotent seeds at each point) and closes it by
union-find; that holds for any action, and ``Quotient.edges``, the DOT edge
list, reads the same enumeration.  On an action that passes the
P axioms the same partition is a congruence closure along the generators
(``_congruence_labels``): about seeds times generators instead of seeds
times arrows.  The construction (``_construct``) runs it once the input
passes the linear checks, and its output check certifies P3 of the input:
``build_globalization`` returns a passing construction, and
``validate_p_axioms`` takes one as the certificate of an action that is not
global.  The full P scan runs only to write the report of an input the
construction refuses.  Both closures close their pairs with one union step
(``_merge``).  The class maps are read off the
seeds for the generators only and composed along the right Cayley tree that
the generator search keeps for the other arrows.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations, compress
from typing import Iterable, Iterator, NamedTuple, Sequence

from .actions import PartialAction, validate_p_axioms
from .core import StructuralError, ValidationReport, Violation
from .morphisms import ActionMap, GlobalizationTriple, _target_violations, is_action_map, is_globalization_triple
from .morphisms import is_embedding  # noqa: F401  (the benchmark's layer probes rebind it here)


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

    A record of the action, the seed index, each seed's class label and the
    class count; ``close_equivalence`` and ``build_globalization`` close the
    relation and build it.  Classes are numbered by their first seed, their
    representative.  The other members are views built on first read, for
    the API, renderers and error messages.
    """

    def __init__(self, action: PartialAction, blocks: list, label: list[int], n_classes: int):
        self._action, self._blocks, self._label, self.n_classes = action, blocks, label, n_classes

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


def _merge(parent: list[int], pending: list[tuple[int, int]], tops: Sequence[list[int]] = ()) -> None:
    """Merge the classes of every pending pair of seed ids in a union-find forest, emptying the stack.

    Each find halves its path, and each link keeps the smaller root, so no
    seed's parent comes after it and ``_number`` can label the forest in one
    pass.  Each list in ``tops`` holds, at each root, a seed id of its
    class's image under one map, or -1; when two classes merge their images
    must merge too, so a root that loses its place hands its image on, or
    pushes the pair of the two images.
    """
    while pending:
        i, j = pending.pop()
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i == j:
            continue
        if j < i:
            i, j = j, i
        parent[j] = i
        for top in tops:
            b = top[j]
            if b >= 0:
                a = top[i]
                if a < 0:
                    top[i] = b
                elif a != b:
                    pending.append((a, b))


def _number(parent: list[int]) -> tuple[list[int], int]:
    """The class labels and class count of a union-find forest in which no seed's parent comes after it."""
    label: list[int] = []
    count = 0
    for i, p in enumerate(parent):
        label.append(count if p == i else label[p])  # p < i, in the same class, unless i is a root
        count += p == i
    return label, count


def _seed_index(action: PartialAction) -> list[tuple[range, list[int]]]:
    """Per arrow position, the ids of its seeds, in canonical order, and their positions in dom_of[inv(s) s]."""
    isg = action.semigroupoid
    mul, columns = isg._mul, range(len(action.carrier))
    blocks, start = [], 0
    for s, si in enumerate(isg._inv):
        pts = list(compress(columns, action.masks[mul[si][s]]))
        blocks.append((range(start, start + len(pts)), pts))
        start += len(pts)
    return blocks


def _translated(seeds: Sequence[Seed], action: PartialAction) -> list:
    """The seed index of a list in any order: per arrow position, its seeds' ids, increasing, and positions."""
    pos, aidx = action._pos, action.semigroupoid._aidx
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
    """Every pair (i, j) of a seed index with i < j and seed i one-step related to seed j; pairs may repeat.

    (s, x) relates to (t, y) when either inv(t) composes with s, x lies in
    dom_of[inv(s) t] and theta[inv(t) s] carries x to y, or both arrows are
    idempotent and x equals y.  ``close_equivalence`` closes these pairs for
    any action, on or off the axioms, and ``Quotient.edges`` lists them.
    """
    isg = action.semigroupoid
    n, inv, rows, masks = len(action.carrier), isg._inv, action.rows, action.masks
    id_rows = [_scatter(n, pts, ids) for ids, pts in blocks]  # per arrow, its seed id at each carrier position, or -1
    for a, s, u in isg._products:  # u = inv(t) s, with t = inv(a); dom_of[inv(s) t] = dom_of[inv u]
        row, window, own, partners = rows[u], masks[inv[u]], id_rows[s], id_rows[inv[a]]
        for k in blocks[s][1]:
            y = row[k]
            if window[k] and y >= 0 and partners[y] > own[k]:
                yield own[k], partners[y]
    idempotent_at: list[list[int]] = [[] for _ in range(n)]  # ids of the idempotent seeds at each carrier position
    for ids, pts in compress(blocks, isg._idem):
        for i, k in zip(ids, pts):
            idempotent_at[k].append(i)
    for g in idempotent_at:
        yield from combinations(sorted(g), 2)


def _generator_images(blocks: list, action: PartialAction) -> list[list[int]]:
    """Per generator g, a row over seed ids: the id of the seed (g p, x) for the seed (p, x), or -1."""
    isg = action.semigroupoid
    n, mul = len(action.carrier), isg._mul
    id_rows = [_scatter(n, pts, ids) for ids, pts in blocks]  # per arrow, its seed id at each carrier position, or -1
    images = []
    for g in isg._generators:
        image: list[int] = []
        for gp, (ids, pts) in zip(mul[g], blocks):
            image += map(id_rows[gp].__getitem__, pts) if gp >= 0 else [-1] * len(ids)
        images.append(image)
    return images


def _congruence_labels(blocks: list, action: PartialAction, images: list[list[int]]) -> tuple[list[int], int]:
    """The partition of a seed index by the closed one-step relation, for an action that passes the P axioms.

    It is the congruence closure, along left multiplication by the
    generators, of two kinds of base pair from the one-step relation:
    (a) a seed (u, x) with x in dom_of[inv u] and the idempotent seeds at
    theta[u](x) (take t = u inv(u) in the relation), and (c) the idempotent
    seeds at one point, which (a) covers for idempotent u.  Together they
    put the seeds (u, x) with theta[u](x) = y in one class per point y, and
    one pass over the seeds links each to the first of them.  When two classes
    merge, their images under each generator merge too; a class keeps, per
    generator, one seed id of its image (``images`` holds each seed's), read
    from any member where it is defined.  The propagation stays inside the
    one-step closure because the class maps are well defined.  Conversely,
    if (s, x) relates to (t, y), multiplying the base pair (a) of u =
    inv(t) s on the left by t, and the idempotent seeds (inv(u) u, x) and
    (inv(s) s, x) on the left by s, joins both to (t inv(t) s, x): every
    suffix of a product that gives a seed gives a seed, by P2 and domain
    monotonicity, which is why the P axioms must hold.  After the base
    pass, each generator's image row is read once, and each later merge
    costs a union-find step per generator (``_merge``), so the closure costs
    about seeds times generators.  The construction (``_construct``) runs it
    once the linear checks pass, before P3 is known, for
    ``build_globalization`` and for the certificate of ``validate_p_axioms``,
    and the partition is trusted only once its output check has certified
    the input.
    """
    # the base pairs: the seeds (u, x) with theta[u](x) = y, the idempotent seeds (e, y) among them, join the first
    first: dict[int, int] = {}
    parent = [
        first.setdefault(y, i) if y >= 0 else i for (ids, pts), row in zip(blocks, action.rows) for i, y in zip(ids, map(row.__getitem__, pts))
    ]
    # every parent is now a root; per generator, each root keeps the first image of a member, and the others merge with it
    tops, pending = [], []
    for image in images:
        top = [-1] * len(parent)  # at each root: a seed id of its class's image, or -1
        for r, b in zip(parent, image):
            if b >= 0:
                a = top[r]
                if a < 0:
                    top[r] = b
                elif parent[a] != parent[b]:
                    pending.append((a, b))
        tops.append(top)
    _merge(parent, pending, tops)
    return _number(parent)


def close_equivalence(seeds: list[Seed], action: PartialAction) -> Quotient:
    """The quotient of a seed list, in any order, by the closure of the one-step relation; seed ids are list positions."""
    blocks = _translated(seeds, action)
    parent = list(range(len(seeds)))
    _merge(parent, list(_related_pairs(blocks, action)))
    return Quotient(action, blocks, *_number(parent))


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

    Once the input passes the linear checks, the seed index
    (``_seed_index``) is partitioned by congruence closure along the
    generators (``_congruence_labels``), which on a valid input gives the
    classes of the one-step relation without enumerating it.  Arrow s sends the class of (p, x) to
    the class of (s p, x), and is defined there exactly when (s p, x) is a
    seed, since inv(s p) s p equals inv(p) inv(s) s p.  Only the
    generators' maps are read off the seeds: every seed is checked against
    every generator, and a class sent to two classes raises.  Every other
    arrow is s = u g on the right Cayley tree that the generator search
    keeps (``InverseSemigroupoid._generator_walk``), with u reached first,
    and its map is the map of u after the map of g.  That is the map the
    seeds give, by induction along the tree: if (s p, x) is a seed, then
    (g p, x) is a seed, by P2 and domain monotonicity; the generator check
    shows that g sends the class of (p, x) to the class of (g p, x); and by
    induction and associativity, u sends that class to the class of
    (u (g p), x), which is the class of (s p, x).  So every seed
    would pass a well-definedness audit against every left multiplier, and
    none is run.  The class maps are the output's rows over class ids; the
    family of s is where the map of inv(s) is defined, and the idempotent
    seeds (e, x) give the class that x embeds into.

    The composed map of u g is defined exactly where the seeds define it.
    The induction shows "at least".  Conversely, "(u q, y) is a seed" is
    the same for any two seeds of a class whose arrows have codomain
    dom(u): along a one-step pair of one codomain it follows from the image
    equation, P2 and domain monotonicity, and along the idempotent seeds at
    one point from the intersection of idempotent domains; a class's path
    that leaves that codomain leaves and returns through idempotent seeds,
    at one point since the embedding is injective.  So where g sends the
    class of (p, x) to that of (g p, x), and u is defined on it, (u g p, x)
    is a seed.

    The input is judged once.  Before the construction it must pass the
    linear checks (``action._linear``: theta-domain, theta-range, P1 and
    P2); P3 is left to the output check, the one globalization check
    ``is_globalization_triple`` on the canonical map i: an embedding into
    an action beta that is valid and global.  That check passes only when
    the input is valid.  The family check puts i(X_{inv s}) in
    Y_{inv s}, and the preimage equation for inv(s) makes X_{inv s}
    exactly the points x with i(x) in Y_{inv s} and beta[s](i(x)) in
    i(X).  There theta[s] is defined, by the theta-domain check, and
    equivariance makes it beta[s] read through i; off X_{inv s} the
    theta-domain check leaves it undefined, which ``is_action_map`` never
    sees.  So the input is the restriction of beta to i(X).  P3 for (s, t)
    follows: since beta[s t] = beta[s] o beta[t] as partial maps, theta[s]
    o theta[t] is defined at x exactly when i(x) lies in Y_{inv(s t)} n
    Y_{inv t} and beta[t] and beta[s t] send it into i(X), which is
    X_{inv(s t)} n X_{inv t}, and there it is i^-1 beta[s t] i(x) =
    theta[s t](x).  The linear checks also make the embedding total and
    well defined: every point x lies in some dom_of[e] (P1), and theta[e]
    fixes it there, so the base pass of ``_congruence_labels`` joins every
    idempotent seed (e, x) to one class.

    The construction (``_construct``) returns its output, or, in place of
    raising, the message of the self-audit that refused it, and
    ``validate_p_axioms`` reads the same outcome as the certificate of an
    action that is not global.  So the full P scan runs only to write a
    refusal, raised at one site: after a linear failure, or after the
    construction refused the input, the input's own report is raised, and
    a ``RuntimeError`` with the construction's message is left to mean a
    fault of the construction on a valid input.  The report reads the
    linear checks held on the action, so they run once, refused or not;
    its decision of the composition law constructs the input a second
    time.  Every output returned has passed the globalization check.
    """
    built = None if action._linear else _construct(action)
    if isinstance(built, Globalization):
        return built
    report = validate_p_axioms(action)
    if not report.ok:
        raise StructuralError("input fails the partial-action axioms:\n" + report.render())
    raise RuntimeError(built)


def _construct(action: PartialAction) -> Globalization | str:
    """The construction ``build_globalization`` describes, on an input that passes the linear checks: the ``Globalization``, or why a self-audit refuses it."""
    isg, n = action.semigroupoid, len(action.carrier)
    gens, tree = isg._generator_walk
    blocks = _seed_index(action)
    images = _generator_images(blocks, action)
    label, n_classes = _congruence_labels(blocks, action, images)
    quotient = Quotient(action, blocks, label, n_classes)

    # per arrow s, a row over class ids: the class s sends it to, or -1
    moves_of: list = [None] * len(blocks)
    # g sends the class of (p, x) to that of (g p, x), defined exactly when (g p, x) is a seed;
    # a self-audit of ``_merge``, which hands each class's image on: it fires on no input
    for g, image in zip(gens, images):
        moves = moves_of[g] = [-1] * n_classes
        for src, j in zip(label, image):
            if j >= 0 and moves[src] != label[j]:
                if moves[src] >= 0:
                    return f"class map for arrow {isg.arrows[g]} is not well defined: class {src} sent to both {moves[src]} and {label[j]}"
                moves[src] = label[j]
    for u, g, ug in tree:
        moves = moves_of[u]
        moves_of[ug] = [moves[d] if d >= 0 else -1 for d in moves_of[g]]
    # the family of s is where the map of inv(s) is defined
    families = [[d >= 0 for d in moves_of[si]] for si in isg._inv]
    # carrier position -> class: the idempotent seeds at one point share a class
    home = dict(chain.from_iterable(zip(pts, label[ids.start:ids.stop]) for ids, pts in compress(blocks, isg._idem)))

    global_action = PartialAction._from_rows(isg, tuple(range(n_classes)), moves_of, families)
    canonical = ActionMap._from_image(action, global_action, [home[k] for k in range(n)])
    report = is_globalization_triple(canonical)
    if not report.ok:
        return "constructed output is not a globalization of the input:\n" + report.render()
    return Globalization(action, quotient, global_action, canonical)


def _target_map(glob: Globalization, target) -> ActionMap:
    """A mediating target's carrier map; a plain map is judged like a triple, ``is_action_map`` for ``is_embedding``."""
    if isinstance(target, GlobalizationTriple):
        j = target.embedding
    else:
        j = target
        report = ValidationReport(is_action_map(j).violations + _target_violations(j.target))
        if not report.ok:
            raise StructuralError("mediating requires an action map into a valid global action:\n" + report.render())
    if j.source != glob.action:
        raise StructuralError("target must be built over the same input action")
    return j


def mediating(glob: Globalization, target) -> ActionMap:
    """The unique factoring map: a class named by (s, x) goes to the target move of j(x) by s.

    ``target`` is a GlobalizationTriple or a plain ActionMap into a valid
    global action, else StructuralError gives the report.  Every class is
    theta[s](i(x)) for a seed (s, x), so the map is read off the rows from
    the embedding (``_forced_values``), the same pass ``verify_universal``
    makes.  A seed whose target move is undefined, or gives a class a
    second value, raises WellDefinednessError naming that seed, and so does
    a class the pass leaves unset.
    """
    j = _target_map(glob, target)
    values = _forced_values(glob, j)
    if -1 in values:
        c = glob.global_action.carrier[values.index(-1)]
        raise WellDefinednessError(f"class {c} is not one move from the embedding, so its value is not forced")
    return ActionMap._from_image(glob.global_action, j.target, values)


def _forced_values(glob: Globalization, j: ActionMap) -> list[int]:
    """Per class position, the one target position a map sending i(x) to j(x) for every x can give it.

    The pass starts from the two position images, ``canonical_embedding._image``
    and ``j._image``.  Equivariance makes each move theta[s](i(x)) = d with
    i(x) in dom_of[inv(s)], the class of the seed (s, x), force the value of
    d: the target move of j(x) by s.  One pass over the embedded points and
    the arrows reads every value one move away; a class not one move from
    the embedding keeps -1.  A forced move undefined in the target, or two
    forced values that disagree, raise WellDefinednessError naming the seed.
    """
    source, target = glob.global_action, j.target
    arrows, carrier = source.semigroupoid.arrows, glob.action.carrier
    values = [-1] * len(source.carrier)
    starts = list(zip(glob.canonical_embedding._image, j._image))
    for c, y in starts:
        values[c] = y
    for s, row, window, moves in zip(arrows, source.rows, map(source.masks.__getitem__, source.semigroupoid._inv), target.rows):
        for k, (c, y) in enumerate(starts):
            d = row[c]
            if window[c] and d >= 0:
                z = moves[y]
                if z < 0 or values[d] not in (-1, z):
                    bad, cls = Seed(s, carrier[k]), source.carrier[d]
                    if z < 0:
                        raise WellDefinednessError(f"target action undefined on seed ({bad.arrow}, {bad.point}) of class {cls}", (bad,))
                    raise WellDefinednessError(f"class {cls} maps to both {target.carrier[values[d]]} and {target.carrier[z]} (via {bad})", (bad,))
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
    is an action map; when the candidate is sigma itself, sigma's report
    already did.  A class the pass leaves unset is not one move from
    the embedding, so the global action is not the construction's, and it
    is reported.  The pass costs about embedded points times arrows, so the
    bound limits no work; it still counts all |Y|^|classes| maps into the
    target carrier Y, as the enumeration oracle does, and the uniqueness
    audit is skipped with a note when that count exceeds it.
    """
    j = _target_map(glob, target)
    if sigma.source != glob.global_action:
        raise StructuralError("sigma must start at the global action of the globalization")
    if sigma.target != j.target:
        raise StructuralError("sigma must land in the target action of j")
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
        none_found = Violation("uniqueness", "0 commuting action maps found, expected exactly one", ())
        try:
            values = _forced_values(glob, j)
        except WellDefinednessError:
            values = None
        if values is None:
            v.append(none_found)
        elif -1 in values:
            c = classes[values.index(-1)]
            v.append(Violation("uniqueness", f"class {c} is not one move from the embedding, so its value is not forced", (c,)))
        else:
            forced = ActionMap._from_image(glob.global_action, j.target, values)
            is_sigma = forced.mapping == sigma.mapping
            # sigma's own check already decided the same map between the same two actions
            same = is_sigma and sigma.source is forced.source and sigma.target is forced.target
            if not (sig_report if same else is_action_map(forced)).ok:
                v.append(none_found)
            elif not is_sigma:
                v.append(Violation("uniqueness", "the enumerated factoring map differs from sigma", ()))
    return ValidationReport(tuple(v), tuple(notes))


def fiber_classes(glob: Globalization, u: str) -> frozenset[int]:
    """Classes containing a seed whose arrow has codomain u."""
    isg = glob.action.semigroupoid
    if u not in isg._oidx:
        raise StructuralError(f"unknown object: {u!r}")
    q, o = glob.quotient, isg._oidx[u]
    return frozenset(chain.from_iterable(q._label[ids.start:ids.stop] for (ids, _), c in zip(q._blocks, isg._cod) if c == o))


def check_fiber_injectivity(sigma: ActionMap, glob: Globalization) -> ValidationReport:
    """The mediating map must be injective on every codomain fiber."""
    if sigma.source != glob.global_action:
        raise StructuralError("sigma must start at the global action of the globalization")
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

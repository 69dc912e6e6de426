"""A curated catalog of finite inverse semigroupoids with known-valid actions.

Random partial actions are produced only by restricting a cataloged global
action to a seeded subset, so generated data can never violate the axioms;
broken inputs for negative tests are crafted by hand elsewhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .actions import PartialAction, is_global, restrict
from .core import InverseSemigroupoid, SemigroupoidTable
from .globalization import build_globalization


@dataclass(frozen=True)
class CatalogAction:
    name: str
    action: PartialAction
    global_tag: bool


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    structure: InverseSemigroupoid
    actions: tuple[CatalogAction, ...]


# ---------------------------------------------------------------------------
# structures


_HYBRID_MUL = {
    ("a", "a*"): "aa*", ("a", "b"): "a", ("a", "b*"): "a",
    ("a", "a*a"): "a", ("a", "b*b"): "a", ("a", "bb*"): "a",
    ("a*", "a"): "a*a", ("a*", "aa*"): "a*",
    ("b", "a*"): "a*", ("b", "b"): "a*a", ("b", "b*"): "bb*",
    ("b", "a*a"): "a*a", ("b", "b*b"): "b", ("b", "bb*"): "a*a",
    ("b*", "a*"): "a*", ("b*", "b"): "b*b", ("b*", "b*"): "a*a",
    ("b*", "a*a"): "a*a", ("b*", "b*b"): "a*a", ("b*", "bb*"): "b*",
    ("a*a", "a*"): "a*", ("a*a", "b"): "a*a", ("a*a", "b*"): "a*a",
    ("a*a", "a*a"): "a*a", ("a*a", "b*b"): "a*a", ("a*a", "bb*"): "a*a",
    ("aa*", "a"): "a", ("aa*", "aa*"): "aa*",
    ("b*b", "a*"): "a*", ("b*b", "b"): "a*a", ("b*b", "b*"): "b*",
    ("b*b", "a*a"): "a*a", ("b*b", "b*b"): "b*b", ("b*b", "bb*"): "a*a",
    ("bb*", "a*"): "a*", ("bb*", "b"): "b", ("bb*", "b*"): "a*a",
    ("bb*", "a*a"): "a*a", ("bb*", "b*b"): "a*a", ("bb*", "bb*"): "bb*",
}


def two_object_hybrid_table() -> SemigroupoidTable:
    """Eight arrows over two objects: one crossing pair plus loops on the left object.

    Neither an inverse semigroup nor a groupoid, which makes it the most
    demanding structure in the catalog.
    """
    arrows = ("a", "a*", "b", "b*", "a*a", "aa*", "b*b", "bb*")
    dom = {"a": "u", "a*": "v", "b": "u", "b*": "u", "a*a": "u", "aa*": "v", "b*b": "u", "bb*": "u"}
    cod = {"a": "v", "a*": "u", "b": "u", "b*": "u", "a*a": "u", "aa*": "v", "b*b": "u", "bb*": "u"}
    return SemigroupoidTable(("u", "v"), arrows, dom, cod, _HYBRID_MUL)


def two_object_hybrid() -> InverseSemigroupoid:
    return InverseSemigroupoid(two_object_hybrid_table())


def four_point_action(isg: InverseSemigroupoid) -> PartialAction:
    """The four-point action of the hybrid structure."""
    dom_of = {
        "b*": {"1", "2"}, "b*b": {"1", "2"},
        "b": {"1", "4"}, "bb*": {"1", "4"},
        "a*": {"1"}, "a*a": {"1"},
        "a": {"4"}, "aa*": {"3", "4"},
    }
    theta = {
        "b": {"1": "1", "2": "4"}, "b*": {"1": "1", "4": "2"},
        "a": {"1": "4"}, "a*": {"4": "1"},
        "a*a": {"1": "1"}, "aa*": {"3": "3", "4": "4"},
        "b*b": {"1": "1", "2": "2"}, "bb*": {"1": "1", "4": "4"},
    }
    return PartialAction(isg, ("1", "2", "3", "4"), dom_of, theta)


def three_point_action(isg: InverseSemigroupoid) -> PartialAction:
    """A global action of the hybrid structure on three points: a cycles, the rest fix."""
    carrier = ("1", "2", "3")
    full = frozenset(carrier)
    cycle = {"1": "2", "2": "3", "3": "1"}
    dom_of = {s: full for s in isg.arrows}
    theta = {}
    for s in isg.arrows:
        if s == "a":
            theta[s] = dict(cycle)
        elif s == "a*":
            theta[s] = {y: x for x, y in cycle.items()}
        else:
            theta[s] = {x: x for x in carrier}
    return PartialAction(isg, carrier, dom_of, theta)


def partial_bijections(maps: dict[str, dict], carrier: tuple) -> tuple[InverseSemigroupoid, PartialAction]:
    """The one-object structure of named partial bijections of a carrier, and its natural action.

    The product s t is the composite map "t, then s", named by looking its
    graph up among the given maps, so the maps must be closed under
    composition; such a set is an inverse semigroup (Wagner-Preston).
    """
    by_graph = {frozenset(m.items()): k for k, m in maps.items()}
    mul = {}
    for s, ms in maps.items():
        for t, mt in maps.items():
            composite = {x: ms[y] for x, y in mt.items() if y in ms}
            mul[(s, t)] = by_graph[frozenset(composite.items())]
    ends = {a: "o" for a in maps}
    isg = InverseSemigroupoid(SemigroupoidTable(("o",), maps, ends, ends, mul))
    return isg, _natural_action(isg, maps, carrier)


def _natural_action(isg: InverseSemigroupoid, maps: dict[str, dict], carrier: tuple) -> PartialAction:
    """Each named map moves the carrier by itself; its image is the arrow's domain."""
    return PartialAction(isg, carrier, {s: m.values() for s, m in maps.items()}, maps)


def _rotations(n: int) -> tuple[dict[str, dict], tuple]:
    """Z_n as the rotations of n points: g^k sends point i to i + k mod n."""
    points = tuple(str(i) for i in range(n))
    maps = {"e" if k == 0 else "g" * k: {points[i]: points[(i + k) % n] for i in range(n)} for k in range(n)}
    return maps, points


def cyclic_group(n: int) -> InverseSemigroupoid:
    """The cyclic group of order n as a one-object structure."""
    return partial_bijections(*_rotations(n))[0]


# all seven partial injections of a two-point set
_SYM2 = (
    {
        "z": {},
        "e1": {"1": "1"},
        "e2": {"2": "2"},
        "id": {"1": "1", "2": "2"},
        "sw": {"1": "2", "2": "1"},
        "t12": {"1": "2"},
        "t21": {"2": "1"},
    },
    ("1", "2"),
)


def symmetric_inverse_2() -> InverseSemigroupoid:
    """All seven partial injections of a two-point set under composition."""
    return partial_bijections(*_SYM2)[0]


def symmetric_inverse_2_action(isg: InverseSemigroupoid) -> PartialAction:
    """Each partial injection moves the two-point carrier by itself."""
    return _natural_action(isg, *_SYM2)


def pair_groupoid_2() -> InverseSemigroupoid:
    """The pair groupoid on two objects; arrow "xy" runs from y to x."""
    objects = ("p", "q")
    arrows = tuple(c + d for c in objects for d in objects)
    dom = {a: a[1] for a in arrows}
    cod = {a: a[0] for a in arrows}
    mul = {(s, t): s[0] + t[1] for s in arrows for t in arrows if s[1] == t[0]}
    return InverseSemigroupoid(SemigroupoidTable(objects, arrows, dom, cod, mul))


def pair_groupoid_translation(isg: InverseSemigroupoid) -> PartialAction:
    """Arrows move their domain object to their codomain object."""
    dom_of = {a: {a[0]} for a in isg.arrows}
    theta = {a: {a[1]: a[0]} for a in isg.arrows}
    return PartialAction(isg, ("p", "q"), dom_of, theta)


# two commuting idempotents with top bot = bot, identities on nested domains
_SEMILATTICE_2 = ({"top": {"1": "1", "2": "2"}, "bot": {"1": "1"}}, ("1", "2"))


def semilattice_2() -> InverseSemigroupoid:
    """Two commuting idempotents with top bot = bot."""
    return partial_bijections(*_SEMILATTICE_2)[0]


# ---------------------------------------------------------------------------
# the catalog


def _hybrid() -> tuple:
    hybrid = two_object_hybrid()
    return hybrid, ("four-point", four_point_action(hybrid)), ("three-point", three_point_action(hybrid))


def _pair_groupoid() -> tuple:
    pairs = pair_groupoid_2()
    return pairs, ("translation", pair_groupoid_translation(pairs))


def _natural(action_name: str, maps: dict[str, dict], carrier: tuple):
    """A builder of the one-object entry of named partial bijections with their natural action."""

    def build() -> tuple:
        isg, action = partial_bijections(maps, carrier)
        return isg, (action_name, action)

    return build


# entry name -> builder of (structure, (action name, action), ...), in listing order
_BUILDERS = {
    "two-object-hybrid": _hybrid,
    "cyclic-2": _natural("regular", *_rotations(2)),
    "cyclic-3": _natural("regular", *_rotations(3)),
    "symmetric-inverse-2": _natural("natural", *_SYM2),
    "pair-groupoid-2": _pair_groupoid,
    "semilattice-2": _natural("identities", *_SEMILATTICE_2),
}

ENTRY_NAMES: tuple[str, ...] = tuple(_BUILDERS)


def catalog_entry(name: str) -> CatalogEntry:
    """Build the named entry alone, tagging each action global or partial.

    The structure is validated on construction; the actions are known to
    satisfy both axiom systems, which the test suite checks.  ``name`` must
    be one of ``ENTRY_NAMES``.
    """
    structure, *actions = _BUILDERS[name]()
    tagged = tuple(CatalogAction(action_name, action, is_global(action)) for action_name, action in actions)
    return CatalogEntry(name, structure, tagged)


def catalog() -> list[CatalogEntry]:
    """Build the full catalog, one ``catalog_entry`` per name in ``ENTRY_NAMES``."""
    return [catalog_entry(name) for name in ENTRY_NAMES]


def random_partial_action(entry: CatalogEntry, global_index: int, subset_seed: int) -> PartialAction:
    """Restrict the indexed global action to a seeded nonempty carrier subset."""
    base = entry.actions[global_index]
    if not base.global_tag:
        raise ValueError(f"action {base.name} of {entry.name} is not global")
    rng = random.Random(subset_seed)
    carrier = list(base.action.carrier)
    size = rng.randint(1, len(carrier))
    subset = rng.sample(carrier, size)
    return restrict(base.action, subset, trim=True)


def grow_catalog(entry: CatalogEntry) -> CatalogEntry:
    """Add the globalization of every action as a fresh global action."""
    added = []
    for ca in entry.actions:
        glob = build_globalization(ca.action)
        added.append(CatalogAction(ca.name + "+globalized", glob.global_action, True))
    return CatalogEntry(entry.name, entry.structure, entry.actions + tuple(added))

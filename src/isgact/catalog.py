"""A curated catalog of finite inverse semigroupoids with known-valid actions.

Random partial actions are produced only by restricting a cataloged global
action to a seeded subset, so generated data can never violate the axioms;
broken inputs for negative tests are crafted by hand elsewhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .actions import PartialAction, is_global, restrict, validate_e_axioms, validate_p_axioms
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


def four_point_action(isg: InverseSemigroupoid, bad_range: bool = False) -> PartialAction:
    """The four-point action of the hybrid structure.

    With ``bad_range`` the domain of arrow a is declared as {3} although its
    map produces 4; that variant is a negative fixture for the validators.
    """
    dom_of = {
        "b*": {"1", "2"}, "b*b": {"1", "2"},
        "b": {"1", "4"}, "bb*": {"1", "4"},
        "a*": {"1"}, "a*a": {"1"},
        "a": {"3"} if bad_range else {"4"}, "aa*": {"3", "4"},
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


def cyclic_group(n: int) -> InverseSemigroupoid:
    """The cyclic group of order n as a one-object structure."""
    names = ["e" if k == 0 else "g" * k for k in range(n)]
    mul = {(names[i], names[j]): names[(i + j) % n] for i in range(n) for j in range(n)}
    table = SemigroupoidTable(("o",), names, {a: "o" for a in names}, {a: "o" for a in names}, mul)
    return InverseSemigroupoid(table)


def cyclic_regular_action(isg: InverseSemigroupoid) -> PartialAction:
    """Everywhere-defined rotation of as many points as there are arrows."""
    n = len(isg.arrows)
    carrier = tuple(str(i) for i in range(n))
    full = frozenset(carrier)
    theta = {}
    for k, s in enumerate(isg.arrows):
        theta[s] = {str(i): str((i + k) % n) for i in range(n)}
    return PartialAction(isg, carrier, {s: full for s in isg.arrows}, theta)


_SYM2_MAPS = {
    "z": {},
    "e1": {"1": "1"},
    "e2": {"2": "2"},
    "id": {"1": "1", "2": "2"},
    "sw": {"1": "2", "2": "1"},
    "t12": {"1": "2"},
    "t21": {"2": "1"},
}


def symmetric_inverse_2() -> InverseSemigroupoid:
    """All seven partial injections of a two-point set under composition."""
    names = tuple(_SYM2_MAPS)
    by_graph = {frozenset(m.items()): k for k, m in _SYM2_MAPS.items()}
    mul = {}
    for s in names:
        for t in names:
            composite = {x: _SYM2_MAPS[s][y] for x, y in _SYM2_MAPS[t].items() if y in _SYM2_MAPS[s]}
            mul[(s, t)] = by_graph[frozenset(composite.items())]
    table = SemigroupoidTable(("o",), names, {a: "o" for a in names}, {a: "o" for a in names}, mul)
    return InverseSemigroupoid(table)


def symmetric_inverse_2_action(isg: InverseSemigroupoid) -> PartialAction:
    """Each partial injection moves the two-point carrier by itself."""
    dom_of = {s: frozenset(_SYM2_MAPS[s].values()) for s in isg.arrows}
    theta = {s: dict(_SYM2_MAPS[s]) for s in isg.arrows}
    return PartialAction(isg, ("1", "2"), dom_of, theta)


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


def semilattice_2() -> InverseSemigroupoid:
    """Two commuting idempotents with top bot = bot."""
    arrows = ("top", "bot")
    mul = {("top", "top"): "top", ("top", "bot"): "bot", ("bot", "top"): "bot", ("bot", "bot"): "bot"}
    table = SemigroupoidTable(("o",), arrows, {a: "o" for a in arrows}, {a: "o" for a in arrows}, mul)
    return InverseSemigroupoid(table)


def semilattice_identity_action(isg: InverseSemigroupoid) -> PartialAction:
    """Both idempotents act as identities on nested domains."""
    dom_of = {"top": {"1", "2"}, "bot": {"1"}}
    theta = {"top": {"1": "1", "2": "2"}, "bot": {"1": "1"}}
    return PartialAction(isg, ("1", "2"), dom_of, theta)


# ---------------------------------------------------------------------------
# the catalog


def _checked(name: str, structure: InverseSemigroupoid, *actions: tuple[str, PartialAction]) -> CatalogEntry:
    tagged = []
    for action_name, action in actions:
        assert validate_p_axioms(action).ok, f"{name}/{action_name} fails the definitional axioms"
        assert validate_e_axioms(action).ok, f"{name}/{action_name} fails the bijection axioms"
        tagged.append(CatalogAction(action_name, action, is_global(action)))
    return CatalogEntry(name, structure, tuple(tagged))


def catalog() -> list[CatalogEntry]:
    """Build the full catalog, validating every structure and action on the way."""
    hybrid = two_object_hybrid()
    z2 = cyclic_group(2)
    z3 = cyclic_group(3)
    sym2 = symmetric_inverse_2()
    pairs = pair_groupoid_2()
    lattice = semilattice_2()
    return [
        _checked(
            "two-object-hybrid",
            hybrid,
            ("four-point", four_point_action(hybrid)),
            ("three-point", three_point_action(hybrid)),
        ),
        _checked("cyclic-2", z2, ("regular", cyclic_regular_action(z2))),
        _checked("cyclic-3", z3, ("regular", cyclic_regular_action(z3))),
        _checked("symmetric-inverse-2", sym2, ("natural", symmetric_inverse_2_action(sym2))),
        _checked("pair-groupoid-2", pairs, ("translation", pair_groupoid_translation(pairs))),
        _checked("semilattice-2", lattice, ("identities", semilattice_identity_action(lattice))),
    ]


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

"""Seeded benchmark inputs, written as isgact's .isgd/.pact text.

Standard library only, and it never imports isgact: every known answer the
benchmark checks a job against is computed here, from the generator's own
tables and maps, so a defect in isgact cannot hide behind its own output.

Families: the symmetric inverse monoid I_n built from partial bijections, the
cyclic group Z_n, the pair groupoid P_k, the chain semilattice L_n and the
eight-arrow two-object hybrid; their natural global actions, disjoint unions
of copies of an action (orbit unions), seeded restrictions, and the three
corruptions (a swapped product entry, a wrong [inverse] line, an action with
a bad range).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass
class Structure:
    """A finite inverse semigroupoid given by its own tables, arrows in file order."""

    name: str
    objects: list[str]
    arrows: list[str]
    dom: dict[str, str]
    cod: dict[str, str]
    mul: dict[tuple[str, str], str]
    inv: dict[str, str]

    def composable(self, s: str, t: str) -> bool:
        return self.dom[s] == self.cod[t]

    def idempotents(self) -> list[str]:
        return [a for a in self.arrows if self.mul.get((a, a)) == a]

    def text(self, mul: dict | None = None, inv: dict | None = None) -> str:
        """The .isgd text, optionally with an overridden product or inverse table."""
        mul = self.mul if mul is None else mul
        inv = self.inv if inv is None else inv
        lines = ["[objects]", *self.objects, "", "[arrows]"]
        lines.extend(f"{a} : {self.dom[a]} -> {self.cod[a]}" for a in self.arrows)
        lines += ["", "[mul]"]
        lines.extend(
            f"{s} {t} = {mul[(s, t)]}" for s in self.arrows for t in self.arrows if self.composable(s, t)
        )
        lines += ["", "[inverse]"]
        lines.extend(f"{a} = {inv[a]}" for a in self.arrows)
        return "\n".join(lines) + "\n"


@dataclass
class Action:
    """A partial action: per-arrow domains and maps over an ordered carrier."""

    structure: Structure
    carrier: list[str]
    dom_of: dict[str, set]
    theta: dict[str, dict]

    def text(self, ref: str, dom_of: dict | None = None) -> str:
        dom_of = self.dom_of if dom_of is None else dom_of
        pos = {x: i for i, x in enumerate(self.carrier)}
        lines = [f"structure = {ref}", "", "[carrier] = " + " ".join(self.carrier)]
        for s in self.structure.arrows:
            lines.append(f"[domain {s}] = " + " ".join(sorted(dom_of[s], key=pos.__getitem__)))
            pairs = sorted(self.theta[s], key=pos.__getitem__)
            lines.append(f"[map {s}] = " + " ".join(f"{x}->{self.theta[s][x]}" for x in pairs))
        return "\n".join(lines) + "\n"

    def seeds(self) -> list[tuple[str, str]]:
        """The globalization's seed set: (s, x) with x in dom_of[s* s], in canonical order."""
        st = self.structure
        out = []
        for s in st.arrows:
            base = self.dom_of[st.mul[(st.inv[s], s)]]
            out.extend((s, x) for x in self.carrier if x in base)
        return out


def _names(prefix: str, n: int, rng: random.Random) -> list[str]:
    """n distinct arrow names in a seeded order."""
    order = list(range(n))
    rng.shuffle(order)
    return [f"{prefix}{i}" for i in order]


# ---------------------------------------------------------------------------
# structures and their natural global actions


def symmetric_inverse(n: int, rng: random.Random) -> tuple[Structure, Action]:
    """I_n, every partial injection of n points under composition, with its natural action."""
    points = [str(i) for i in range(1, n + 1)]
    graphs = []
    for k in range(n + 1):
        for domain in itertools.combinations(points, k):
            for image in itertools.permutations(points, k):
                graphs.append(dict(zip(domain, image)))
    names = _names("m", len(graphs), rng)
    maps = dict(sorted(zip(names, graphs), key=lambda item: int(item[0][1:])))
    by_graph = {frozenset(m.items()): a for a, m in maps.items()}
    mul, inv = {}, {}
    for s, ms in maps.items():
        inv[s] = by_graph[frozenset((y, x) for x, y in ms.items())]
        for t, mt in maps.items():  # s t is t first, then s
            mul[(s, t)] = by_graph[frozenset((x, ms[y]) for x, y in mt.items() if y in ms)]
    one = {a: "o" for a in maps}
    st = Structure(f"I{n}", ["o"], list(maps), one, dict(one), mul, inv)
    action = Action(st, points, {a: set(m.values()) for a, m in maps.items()}, {a: dict(m) for a, m in maps.items()})
    return st, action


def cyclic(n: int, rng: random.Random) -> tuple[Structure, Action]:
    """Z_n on one object, with its regular action on n points."""
    names = _names("g", n, rng)  # names[k] is the rotation by k
    arrows = sorted(names, key=lambda a: int(a[1:]))
    one = {a: "o" for a in arrows}
    mul = {(names[i], names[j]): names[(i + j) % n] for i in range(n) for j in range(n)}
    inv = {names[k]: names[-k % n] for k in range(n)}
    st = Structure(f"Z{n}", ["o"], arrows, one, dict(one), mul, inv)
    points = [str(i) for i in range(n)]
    theta = {names[k]: {str(i): str((i + k) % n) for i in range(n)} for k in range(n)}
    return st, Action(st, points, {a: set(points) for a in arrows}, theta)


def pair_groupoid(k: int, rng: random.Random) -> tuple[Structure, Action]:
    """P_k: one arrow y -> x for every pair of objects, translating point y to point x."""
    objects = [f"c{i}" for i in range(k)]
    names = _names("p", k * k, rng)
    ends = {names[i * k + j]: (objects[i], objects[j]) for i in range(k) for j in range(k)}
    arrows = sorted(names, key=lambda a: int(a[1:]))
    cod = {a: ends[a][0] for a in arrows}
    dom = {a: ends[a][1] for a in arrows}
    by_ends = {v: a for a, v in ends.items()}
    mul = {(s, t): by_ends[(cod[s], dom[t])] for s in arrows for t in arrows if dom[s] == cod[t]}
    inv = {a: by_ends[(dom[a], cod[a])] for a in arrows}
    st = Structure(f"P{k}", objects, arrows, dom, cod, mul, inv)
    action = Action(st, list(objects), {a: {cod[a]} for a in arrows}, {a: {dom[a]: cod[a]} for a in arrows})
    return st, action


def chain_semilattice(n: int, rng: random.Random) -> tuple[Structure, Action]:
    """L_n: idempotents e_0 > e_1 > ... with e_i e_j = e_max(i,j), acting as identities on nested domains."""
    names = _names("e", n, rng)  # names[i] is e_i
    arrows = sorted(names, key=lambda a: int(a[1:]))
    one = {a: "o" for a in arrows}
    mul = {(names[i], names[j]): names[max(i, j)] for i in range(n) for j in range(n)}
    st = Structure(f"L{n}", ["o"], arrows, one, dict(one), mul, {a: a for a in arrows})
    points = [str(i) for i in range(n)]
    domains = {names[i]: set(points[i:]) for i in range(n)}
    return st, Action(st, points, domains, {a: {x: x for x in d} for a, d in domains.items()})


# The hybrid's product table, row s lists t=st.  It is neither an inverse
# semigroup nor a groupoid; b b = a*a is what makes it so.
_HYBRID_ROWS = {
    "a": "a*=aa* b=a b*=a a*a=a b*b=a bb*=a",
    "a*": "a=a*a aa*=a*",
    "b": "a*=a* b=a*a b*=bb* a*a=a*a b*b=b bb*=a*a",
    "b*": "a*=a* b=b*b b*=a*a a*a=a*a b*b=a*a bb*=b*",
    "a*a": "a*=a* b=a*a b*=a*a a*a=a*a b*b=a*a bb*=a*a",
    "aa*": "a=a aa*=aa*",
    "b*b": "a*=a* b=a*a b*=b* a*a=a*a b*b=b*b bb*=a*a",
    "bb*": "a*=a* b=b b*=a*a a*a=a*a b*b=a*a bb*=bb*",
}
_HYBRID_ENDS = {  # arrow: (dom, cod)
    "a": ("u", "v"), "a*": ("v", "u"), "b": ("u", "u"), "b*": ("u", "u"),
    "a*a": ("u", "u"), "aa*": ("v", "v"), "b*b": ("u", "u"), "bb*": ("u", "u"),
}
_HYBRID_INV = {"a": "a*", "a*": "a", "b": "b*", "b*": "b", "a*a": "a*a", "aa*": "aa*", "b*b": "b*b", "bb*": "bb*"}


def hybrid(rng: random.Random) -> tuple[Structure, Action]:
    """The eight-arrow two-object hybrid with its global action on three points (a cycles them)."""
    arrows = list(_HYBRID_ROWS)
    rng.shuffle(arrows)
    mul = {}
    for s, row in _HYBRID_ROWS.items():
        for entry in row.split():
            t, u = entry.split("=")
            mul[(s, t)] = u
    dom = {a: _HYBRID_ENDS[a][0] for a in arrows}
    cod = {a: _HYBRID_ENDS[a][1] for a in arrows}
    st = Structure("H8", ["u", "v"], arrows, dom, cod, mul, dict(_HYBRID_INV))
    points = ["1", "2", "3"]
    cycle = {"1": "2", "2": "3", "3": "1"}
    theta = {a: {x: x for x in points} for a in arrows}
    theta["a"] = dict(cycle)
    theta["a*"] = {y: x for x, y in cycle.items()}
    return st, Action(st, points, {a: set(points) for a in arrows}, theta)


FAMILIES = {"I": symmetric_inverse, "Z": cyclic, "P": pair_groupoid, "L": chain_semilattice}


def family(kind: str, size: int, rng: random.Random) -> tuple[Structure, Action]:
    return hybrid(rng) if kind == "H" else FAMILIES[kind](size, rng)


# ---------------------------------------------------------------------------
# orbit unions and restrictions


def orbit_union(action: Action, copies: int, rng: random.Random) -> Action:
    """Disjoint union of copies of a global action, carrier in a seeded order."""
    carrier = [f"{k}_{x}" for k in range(copies) for x in action.carrier]
    rng.shuffle(carrier)
    dom_of = {s: {f"{k}_{x}" for k in range(copies) for x in d} for s, d in action.dom_of.items()}
    theta = {
        s: {f"{k}_{x}": f"{k}_{y}" for k in range(copies) for x, y in m.items()} for s, m in action.theta.items()
    }
    return Action(action.structure, carrier, dom_of, theta)


def restrict(action: Action, subset) -> Action:
    """Co-restriction to a carrier subset: keep the moves that start and end inside it."""
    sub = set(subset)
    theta = {s: {x: y for x, y in m.items() if x in sub and y in sub} for s, m in action.theta.items()}
    dom_of = {s: set(m.values()) for s, m in theta.items()}
    carrier = [x for x in action.carrier if x in sub]
    covered = set().union(*(dom_of[e] for e in action.structure.idempotents()))
    if not sub <= covered:
        raise ValueError("restriction leaves points outside every idempotent domain")
    return Action(action.structure, carrier, dom_of, theta)


def orbit_of(point: str) -> str:
    return point.split("_", 1)[0]


# ---------------------------------------------------------------------------
# corruptions


def associativity_witness(st: Structure, mul: dict) -> tuple | None:
    """The first composable triple on which ``mul`` is not associative, by brute force."""
    for p in st.arrows:
        for s in st.arrows:
            if not st.composable(p, s):
                continue
            ps = mul[(p, s)]
            for t in st.arrows:
                if st.composable(s, t) and mul[(ps, t)] != mul[(p, mul[(s, t)])]:
                    return p, s, t
    return None


def swap_product(st: Structure, rng: random.Random, attempts: int = 50) -> dict:
    """A product table with one entry swapped for an arrow of the same endpoints, proven non-associative."""
    pairs = [(s, t) for s in st.arrows for t in st.arrows if st.composable(s, t)]
    for _ in range(attempts):
        s, t = rng.choice(pairs)
        others = [u for u in st.arrows if st.dom[u] == st.dom[t] and st.cod[u] == st.cod[s] and u != st.mul[(s, t)]]
        if not others:
            continue
        mul = dict(st.mul)
        mul[(s, t)] = rng.choice(others)
        if associativity_witness(st, mul) is not None:
            return mul
    raise ValueError(f"{st.name}: no provably broken product swap found")


def wrong_inverse(st: Structure, rng: random.Random) -> dict:
    """An inverse table with one arrow's declared inverse replaced by another arrow."""
    s = rng.choice(st.arrows)
    inv = dict(st.inv)
    inv[s] = rng.choice([t for t in st.arrows if t != st.inv[s]])
    return inv


def bad_range(action: Action, rng: random.Random) -> dict:
    """Domains with one image point of one arrow's map removed from that arrow's domain."""
    s = rng.choice([a for a in action.structure.arrows if action.theta[a]])
    dom_of = dict(action.dom_of)
    dom_of[s] = dom_of[s] - {rng.choice(sorted(action.theta[s].values()))}
    return dom_of

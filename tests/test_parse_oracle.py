"""The integer parser and structure passes against the name-keyed oracle in parse_oracle.py.

Inputs: every catalog and grown catalog structure, printed; the benchmark
generator's families (perfbench/generate.py), with and without a swapped
product or a wrong [inverse] line; single-line mutations of those texts; and
small random partial tables built through the public constructor.
"""

import random
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import parse_oracle as oracle
from grown_catalog import grow_catalog
from isgact import (
    InverseSemigroupoid,
    ParseError,
    SemigroupoidTable,
    format_structure,
    parse_structure,
    validate_semigroupoid,
)
from isgact.catalog import catalog
from isgact.core import _pseudo_inverses

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import generate as gen  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

CATALOG_TEXTS = [format_structure(entry.structure) for entry in catalog()] + [
    format_structure(entry.structure) for entry in map(grow_catalog, catalog())
]
SIZES = {"I": (1, 2, 3), "Z": (1, 2, 3, 4, 5, 6, 9), "P": (1, 2, 3, 4), "L": (1, 2, 3, 5, 8), "H": (0,)}
FAMILY_SIZES = [(kind, size) for kind, sizes in SIZES.items() for size in sizes]


def generated_text(kind: str, size: int, seed: int, corruption: str) -> str:
    """A generated family's .isgd text, as written or with one corruption."""
    rng = random.Random(seed)
    structure, _ = gen.family(kind, size, rng)
    if corruption == "swap_product":
        try:
            return structure.text(mul=gen.swap_product(structure, rng))
        except ValueError:  # the family has no provably broken swap
            return structure.text()
    if corruption == "wrong_inverse" and len(structure.arrows) > 1:
        return structure.text(inv=gen.wrong_inverse(structure, rng))
    return structure.text()


def outcome(parse, text):
    """The parse result, or the ParseError's line, column and message."""
    try:
        return parse(text)
    except ParseError as err:
        return (err.line, err.col, str(err))


def assert_same_parse(text):
    """Both parsers give the same table and declared inverses, or the same ParseError."""
    got, want = outcome(parse_structure, text), outcome(oracle.parse_structure, text)
    if isinstance(want, tuple) and isinstance(want[0], int):
        assert got == want
        return None
    table, inverse = want
    assert not isinstance(got, tuple), got
    for field in ("objects", "arrows", "_dom", "_cod", "_mul"):
        assert getattr(got.table, field) == getattr(table, field), field
    assert got.inverse == inverse
    return got.table, table


def assert_same_passes(table, named):
    """The integer passes agree with the name-keyed ones on one table."""
    assert validate_semigroupoid(table) == oracle.validate_semigroupoid(named)
    inverses = {s: oracle.pseudo_inverses(named, s) for s in named.arrows}
    assert {s: [table.arrows[t] for t in _pseudo_inverses(table, i)] for i, s in enumerate(table.arrows)} == inverses
    if not validate_semigroupoid(table).ok or any(len(c) != 1 for c in inverses.values()):
        return
    isg = InverseSemigroupoid(table)
    assert isg.idempotent_set() == oracle.idempotent_set(named)
    assert tuple(map(isg._names, isg._products)) == oracle.products(named)
    assert isg.strict_order == oracle.strict_order(named, {s: c[0] for s, c in inverses.items()})


def test_every_catalog_structure_text_parses_as_the_oracle_does():
    for text in CATALOG_TEXTS:
        assert_same_passes(*assert_same_parse(text))


@SETTINGS
@given(
    st.sampled_from(FAMILY_SIZES),
    st.integers(0, 10**6),
    st.sampled_from(["none", "swap_product", "wrong_inverse"]),
)
def test_generated_families_parse_as_the_oracle_does(family, seed, corruption):
    text = generated_text(*family, seed, corruption)
    assert_same_passes(*assert_same_parse(text))


MUTATIONS = ("delete", "duplicate", "swap", "unknown", "truncate", "comment")


def mutated(text: str, kind: str, index: int, rng: random.Random) -> str:
    """The text with one of its lines deleted, doubled, two tokens swapped, a token renamed, the line cut short or its rest commented out."""
    lines = text.splitlines()
    i = index % len(lines)
    line = lines[i]
    toks = line.split()
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, line)
    elif kind == "swap" and len(toks) > 1:
        j, k = rng.sample(range(len(toks)), 2)
        toks[j], toks[k] = toks[k], toks[j]
        lines[i] = " ".join(toks)
    elif kind == "unknown" and toks:
        toks[rng.randrange(len(toks))] = "zz"
        lines[i] = "  ".join(toks)
    elif kind == "truncate":
        lines[i] = line[: rng.randrange(len(line) + 1)]
    elif kind == "comment":
        cut = rng.randrange(len(line) + 1)
        lines[i] = line[:cut] + "#" + line[cut:]
    return "\n".join(lines) + "\n"


@SETTINGS
@given(
    st.sampled_from(FAMILY_SIZES),
    st.integers(0, 10**6),
    st.sampled_from(MUTATIONS),
    st.integers(0, 10**6),
)
def test_single_line_mutations_fail_as_the_oracle_does(family, seed, kind, index):
    text = mutated(generated_text(*family, seed, "none"), kind, index, random.Random(seed))
    assert_same_parse(text)


@SETTINGS
@given(st.sampled_from(CATALOG_TEXTS), st.sampled_from(MUTATIONS), st.integers(0, 10**6), st.integers(0, 10**6))
def test_single_line_mutations_of_catalog_texts_fail_as_the_oracle_does(text, kind, index, seed):
    assert_same_parse(mutated(text, kind, index, random.Random(seed)))


@st.composite
def partial_tables(draw):
    """Up to five arrows on one to three objects with an arbitrary partial product: every axiom can fail.

    With three objects the hom-sets differ in size, so the scan's walk over
    each object's arrows meets lists of unequal length.
    """
    objects = ("u", "v", "w")[: draw(st.integers(1, 3))]
    arrows = tuple(f"a{i}" for i in range(draw(st.integers(1, 5))))
    dom = {a: draw(st.sampled_from(objects)) for a in arrows}
    cod = {a: draw(st.sampled_from(objects)) for a in arrows}
    pairs = [(s, t) for s in arrows for t in arrows]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    mul = {key: draw(st.sampled_from(arrows)) for key in keys}
    return objects, arrows, dom, cod, mul


@SETTINGS
@given(partial_tables())
def test_partial_tables_build_and_scan_as_the_oracle_does(parts):
    table, named = SemigroupoidTable(*parts), oracle.NameKeyedTable(*parts)
    for field in ("objects", "arrows", "_dom", "_cod", "_mul"):
        assert getattr(table, field) == getattr(named, field), field
    assert_same_passes(table, named)


def test_a_product_with_another_domain_is_read_by_name_as_the_oracle_does():
    # e g = e has the wrong domain (u, not dom(g) = v), so (e g) f cannot come from the row of e g:
    # that row runs over the arrows into u, not over those into v
    parts = (
        ("u", "v"),
        ("e", "f", "g"),
        {"e": "u", "f": "v", "g": "v"},
        {"e": "u", "f": "v", "g": "u"},
        {("e", "e"): "e", ("e", "g"): "e", ("f", "f"): "f", ("g", "f"): "g"},
    )
    report = validate_semigroupoid(SemigroupoidTable(*parts))
    assert report.tags() == {"endpoints", "associativity"}
    assert repr(report) == repr(oracle.validate_semigroupoid(oracle.NameKeyedTable(*parts)))

"""Byte-for-byte goldens of `isgact globalize` in every format and of `isgact catalog`.

The globalize files under ``goldens/`` were written by the pairwise closure
that the neighbour enumeration replaced; class numbering, JSON, table and DOT
edges must not move.  The files under ``goldens/catalog/`` were written by
the hand-written one-object tables that the partial-bijection builder
replaced: the listing, every emitted structure, and seeds 0 and 1 of every
global action.
"""

from pathlib import Path

import pytest

from isgact.cli import run_cli

GOLDENS = Path(__file__).resolve().parent / "goldens"
FIXTURE_INPUTS = ("three_point_restricted", "four_point")
CATALOG_INPUTS = (("cyclic-3", 0, 0), ("symmetric-inverse-2", 0, 5))
FORMATS = ("table", "json", "dot")
# (entry, index of each of its global actions)
CATALOG_GLOBALS = (
    ("two-object-hybrid", (1,)),
    ("cyclic-2", (0,)),
    ("cyclic-3", (0,)),
    ("symmetric-inverse-2", (0,)),
    ("pair-groupoid-2", (0,)),
    ("semilattice-2", (0,)),
)
CATALOG_EMISSIONS = (
    [("listing.txt", ("catalog",))]
    + [(f"{e}.isgd", ("catalog", "--entry", e, "--emit-structure")) for e, _ in CATALOG_GLOBALS]
    + [
        (f"{e}-{i}-seed{s}.pact", ("catalog", "--entry", e, "--action", str(i), "--seed", str(s)))
        for e, indices in CATALOG_GLOBALS
        for i in indices
        for s in (0, 1)
    ]
)


def _stdout(capsys, *argv) -> str:
    assert run_cli(list(argv)) == 0
    return capsys.readouterr().out


def _catalog_restriction(capsys, tmp_path, entry, action, seed) -> Path:
    (tmp_path / f"{entry}.isgd").write_text(_stdout(capsys, "catalog", "--entry", entry, "--emit-structure"))
    path = tmp_path / f"{entry}-{action}-seed{seed}.pact"
    path.write_text(_stdout(capsys, "catalog", "--entry", entry, "--action", str(action), "--seed", str(seed)))
    return path


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", FIXTURE_INPUTS)
def test_globalize_fixture_matches_its_golden(capsys, fixtures_dir, name, fmt):
    out = _stdout(capsys, "globalize", str(fixtures_dir / f"{name}.pact"), "--format", fmt)
    assert out == (GOLDENS / f"{name}.{fmt}").read_text()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("entry,action,seed", CATALOG_INPUTS)
def test_globalize_catalog_restriction_matches_its_golden(capsys, tmp_path, entry, action, seed, fmt):
    path = _catalog_restriction(capsys, tmp_path, entry, action, seed)
    out = _stdout(capsys, "globalize", str(path), "--format", fmt)
    assert out == (GOLDENS / f"{path.stem}.{fmt}").read_text()


@pytest.mark.parametrize("golden,argv", CATALOG_EMISSIONS, ids=[g for g, _ in CATALOG_EMISSIONS])
def test_catalog_output_matches_its_golden(capsys, golden, argv):
    assert _stdout(capsys, *argv) == (GOLDENS / "catalog" / golden).read_text()


def test_every_catalog_golden_is_checked():
    assert sorted(p.name for p in (GOLDENS / "catalog").iterdir()) == sorted(g for g, _ in CATALOG_EMISSIONS)

"""Byte-for-byte goldens of `isgact globalize` in every format.

The files under ``goldens/`` were written by the pairwise closure that the
neighbour enumeration replaced; class numbering, JSON, table and DOT edges
must not move.
"""

from pathlib import Path

import pytest

from isgact.cli import run_cli

GOLDENS = Path(__file__).resolve().parent / "goldens"
FIXTURE_INPUTS = ("three_point_restricted", "four_point")
CATALOG_INPUTS = (("cyclic-3", 0, 0), ("symmetric-inverse-2", 0, 5))
FORMATS = ("table", "json", "dot")


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

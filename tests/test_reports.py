"""Byte-for-byte goldens of the E-axiom and derived-proposition reports.

Each file under ``goldens/reports/`` holds, for every single-entry
corruption of one valid action, its label and the rendered reports of
``validate_p_axioms``, ``validate_e_axioms`` and the test oracle
``check_derived_propositions`` (``derived_oracle.py``): tags, messages,
witnesses and their order.  The files were written by the name-keyed scans
that the row-based ones replaced.
"""

from pathlib import Path

import pytest

from isgact import load_action, validate_e_axioms, validate_p_axioms
from isgact.catalog import catalog_entry

from corruptions import labeled_corruptions
from derived_oracle import check_derived_propositions

REPORTS = Path(__file__).resolve().parent / "goldens" / "reports"
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _four_point():
    return load_action(FIXTURES / "four_point.pact")[0]


def _cyclic_3():
    return catalog_entry("cyclic-3").actions[0].action


SUBJECTS = {"four_point.txt": _four_point, "cyclic-3.txt": _cyclic_3}


def render_reports(action) -> str:
    blocks = []
    for label, corrupted in labeled_corruptions(action):
        blocks.append(
            "\n".join(
                [
                    f"== {label}",
                    validate_p_axioms(corrupted).render("P"),
                    validate_e_axioms(corrupted).render("E"),
                    check_derived_propositions(corrupted).render("derived"),
                ]
            )
        )
    return "\n".join(blocks) + "\n"


@pytest.mark.parametrize("golden", sorted(SUBJECTS))
def test_corruption_reports_match_their_golden(golden):
    assert render_reports(SUBJECTS[golden]()) == (REPORTS / golden).read_text()


def test_every_report_golden_is_checked():
    assert sorted(p.name for p in REPORTS.iterdir()) == sorted(SUBJECTS)

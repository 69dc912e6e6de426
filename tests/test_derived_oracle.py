"""The derived propositions as an oracle of the two axiom validators.

Its contract: the derived propositions fail only where ``validate_p_axioms``
or ``validate_e_axioms`` fails, so never on a valid action.  It is checked
here on every single-entry corruption and coherent swap of the fixtures and
of every grown catalog action, and in ``test_family_oracles.py`` on drawn
orbit-union restrictions.  ``isgact check`` reports the two axiom systems
alone; this contract is why it needs no third report.
"""

from pathlib import Path

import pytest

from isgact import load_action, load_structure, parse_action
from isgact.catalog import catalog

from corruptions import coherent_swaps, labeled_corruptions
from derived_oracle import check_derived_propositions, fails_alone
from grown_catalog import grow_catalog

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SUBJECTS = {path.name: load_action(path)[0] for path in sorted(FIXTURES.glob("*.pact"))}
SUBJECTS.update({f"{entry.name}/{ca.name}": ca.action for entry in map(grow_catalog, catalog()) for ca in entry.actions})


def _cases(action):
    return [action, *(a for _, a in labeled_corruptions(action)), *(a for _, a in coherent_swaps(action))]


@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_the_derived_propositions_fail_only_where_an_axiom_system_fails(name):
    assert [a for a in _cases(SUBJECTS[name]) if fails_alone(a)] == []


def test_the_derived_propositions_fail_on_all_but_one_single_entry_corruption_of_the_four_point_fixture():
    outcomes = [check_derived_propositions(a).ok for _, a in labeled_corruptions(SUBJECTS["four_point.pact"])]
    assert (len(outcomes), outcomes.count(False)) == (84, 83)


def test_an_order_domain_violation_fails_e3_and_the_derived_propositions_but_no_order_domain_check():
    # a*a lies below b, b*, b*b and bb*, so a*a's extra point 3 breaks E3 against all four
    text = (FIXTURES / "four_point.pact").read_text()
    text = text.replace("[domain a*a] = 1\n", "[domain a*a] = 1 3\n").replace("[map a*a] = 1->1\n", "[map a*a] = 1->1 3->3\n")
    action = parse_action(text, load_structure(FIXTURES / "eight_arrow.isgd"))
    derived = check_derived_propositions(action)
    assert len(derived.violations) == 14
    assert "order-domain" not in derived.tags()
    assert not fails_alone(action)

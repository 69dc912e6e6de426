from pathlib import Path

import pytest

from isgact.catalog import four_point_action, three_point_action, two_object_hybrid
from isgact.textio import load_action

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def hybrid():
    return two_object_hybrid()


@pytest.fixture(scope="session")
def four_point(hybrid):
    return four_point_action(hybrid)


@pytest.fixture(scope="session")
def four_point_bad_range():
    """The committed negative fixture: theta[a] produces 4 but dom_of[a] is declared as {3}."""
    action, _ = load_action(FIXTURES / "four_point_bad_range.pact")
    return action


@pytest.fixture(scope="session")
def three_point(hybrid):
    return three_point_action(hybrid)


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def unshared_fixtures(tmp_path):
    """A copy of the fixtures whose structure file no other load shares: a comment naming the copy heads it.

    A session fixture and module-level subjects hold the structure of the
    committed files for the whole run, so a load of those files checks nothing.
    """
    for path in FIXTURES.iterdir():
        text = path.read_text()
        if path.suffix == ".isgd":
            text = f"# unshared copy in {tmp_path}\n" + text
        (tmp_path / path.name).write_text(text)
    return tmp_path

"""Is the mediating map injective?  A sweep over seeded restrictions of the grown catalog.

Each draw restricts a global action to a seeded subset, globalizes the
restriction, and maps the globalization into the source action with
``mediating``.  Each case records (as a hypothesis event) whether the map
is injective on every codomain fiber and whether it is injective.  The
fibers must always be; injectivity fails on some draws, and the pinned
cases say where: for a group acting by rotations the globalization of any
nonempty restriction is the whole orbit (Abadie 2003), so the map is a
bijection, while the two-point restriction of the hybrid three-point action
has four classes over three points.
"""

from hypothesis import event, given, settings, strategies as st

from isgact import build_globalization, check_fiber_injectivity, inclusion_map, load_action, mediating, restrict
from isgact.catalog import catalog, grow_catalog, random_partial_action

GROWN_SLOTS = [
    (entry, i)
    for entry in map(grow_catalog, catalog())
    for i, ca in enumerate(entry.actions)
    if ca.global_tag
]


def _mediating_into(base, action):
    glob = build_globalization(action)
    return glob, mediating(glob, inclusion_map(action, base))


@given(slot=st.sampled_from(GROWN_SLOTS), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_the_mediating_map_is_injective_on_every_fiber(slot, seed):
    entry, index = slot
    base = entry.actions[index].action
    glob, sigma = _mediating_into(base, random_partial_action(entry, index, seed))
    fiber_injective = check_fiber_injectivity(sigma, glob).ok
    injective = len(sigma.image()) == len(glob.global_action.carrier)
    event(f"{entry.name}/{entry.actions[index].name}: fiber-injective={fiber_injective} injective={injective}")
    assert fiber_injective
    if entry.name.startswith("cyclic-"):
        assert injective and sigma.image() == frozenset(base.carrier)


def test_the_two_point_restriction_is_fiber_injective_and_not_injective(fixtures_dir):
    base, _ = load_action(fixtures_dir / "three_point_global.pact")
    glob, sigma = _mediating_into(base, restrict(base, {"1", "2"}))
    assert check_fiber_injectivity(sigma, glob).ok
    assert len(glob.global_action.carrier) == 4 and len(sigma.image()) == 3

"""Is the mediating map injective?  A sweep over seeded restrictions of the grown catalog.

Each draw restricts a global action to a seeded subset, globalizes the
restriction, and maps the globalization into the source action with
``mediating``.  Each case records (as a hypothesis event) whether the map
is injective on every codomain fiber and whether it is injective.  For an
inclusion, as here, the fibers must always be; injectivity fails on some
draws, and the pinned cases say where: for a group acting by rotations the
globalization of any nonempty restriction is the whole orbit (Abadie 2003),
so the map is a bijection, while the two-point restriction of the hybrid
three-point action has four classes over three points.  The mediating map
of an action map that is not an embedding need not be injective on a
fiber: the pinned pair-groupoid case sends two classes of each fiber to
one point.
"""

from hypothesis import event, given, settings, strategies as st

import pytest

from isgact import (
    ActionMap,
    GlobalizationTriple,
    PartialAction,
    StructuralError,
    build_globalization,
    check_fiber_injectivity,
    inclusion_map,
    is_embedding,
    is_globalization_triple,
    load_action,
    mediating,
    restrict,
)
from isgact.catalog import catalog, grow_catalog, pair_groupoid_2, random_partial_action
from isgact.core import Violation

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


def test_a_map_that_is_not_an_embedding_can_mediate_a_map_that_is_not_injective_on_a_fiber():
    # pair-groupoid-2 on one point x: pp and qq fix it, pq and qp have empty domains;
    # the target is the one-point global action in which every arrow fixes x
    isg = pair_groupoid_2()
    fixed = {"pp", "qq"}
    action = PartialAction(isg, ("x",), {a: {"x"} if a in fixed else set() for a in isg.arrows}, {a: {"x": "x"} if a in fixed else {} for a in isg.arrows})
    target = PartialAction(isg, ("x",), {a: {"x"} for a in isg.arrows}, {a: {"x": "x"} for a in isg.arrows})
    j = ActionMap(action, target, {"x": "x"})
    glob = build_globalization(action)
    assert glob.global_action.carrier == (0, 1, 2)
    sigma = mediating(glob, j)
    assert sigma.mapping == {0: "x", 1: "x", 2: "x"}
    assert check_fiber_injectivity(sigma, glob).violations == (
        Violation("fiber-injectivity", "classes 0 and 1 in the fiber of p share the value x", ("p", 0, 1, "x")),
        Violation("fiber-injectivity", "classes 0 and 2 in the fiber of q share the value x", ("q", 0, 2, "x")),
    )
    # j is not an embedding: the preimage equation fails for the two arrows with empty domains
    assert [(v.tag, v.witness) for v in is_embedding(j).violations] == [("embedding-domain", ("pq", "x")), ("embedding-domain", ("qp", "x"))]
    with pytest.raises(StructuralError) as err:
        GlobalizationTriple(j)
    assert str(err.value) == "not a globalization triple:\n" + is_globalization_triple(j).render()
    assert is_globalization_triple(j).violations == is_embedding(j).violations

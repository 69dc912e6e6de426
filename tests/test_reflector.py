"""Globalization is a reflector: functor laws and naturality on nested catalog restrictions."""

import pytest
from hypothesis import given, settings, strategies as st

from isgact import build_globalization, compose, identity_map, inclusion_map, is_isomorphism, restrict
from isgact.catalog import catalog

from grown_catalog import grow_catalog
from reflector_oracle import reflect

GROWN_SLOTS = [
    (entry, i)
    for entry in map(grow_catalog, catalog())
    for i, ca in enumerate(entry.actions)
    if ca.global_tag
]


@st.composite
def nested_restrictions(draw):
    """A, B, C: C a restriction of a grown catalog global action, B one of C, A one of B."""
    entry, index = draw(st.sampled_from(GROWN_SLOTS))
    chain = [entry.actions[index].action]
    for _ in range(3):
        outer = chain[-1]
        keep = draw(st.lists(st.sampled_from(outer.carrier), min_size=1, unique=True)) if outer.carrier else []
        chain.append(restrict(outer, keep, trim=True))
    return chain[3], chain[2], chain[1]


@given(nested_restrictions())
@settings(max_examples=40, deadline=None)
def test_globalization_is_a_functor_and_the_embedding_is_natural(nested):
    a, b, c = nested
    glob_a, glob_b, glob_c = (build_globalization(x) for x in nested)
    f, g = inclusion_map(a, b), inclusion_map(b, c)

    assert reflect(glob_a, glob_a, identity_map(a)) == identity_map(glob_a.global_action)
    assert reflect(glob_a, glob_c, compose(g, f)) == compose(reflect(glob_b, glob_c, g), reflect(glob_a, glob_b, f))
    assert compose(reflect(glob_a, glob_b, f), glob_a.canonical_embedding) == compose(glob_b.canonical_embedding, f)


@pytest.mark.parametrize("entry, index", GROWN_SLOTS, ids=[f"{e.name}/{e.actions[i].name}" for e, i in GROWN_SLOTS])
def test_the_unit_is_an_isomorphism_on_global_actions(entry, index):
    # a global action is its own globalization: the reflector fixes the subcategory
    assert is_isomorphism(build_globalization(entry.actions[index].action).canonical_embedding)

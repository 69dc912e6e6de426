import pytest

from isgact import (
    build_globalization,
    is_global,
    is_isomorphism,
    restrict,
    validate_e_axioms,
    validate_p_axioms,
)
from isgact.catalog import (
    CatalogEntry,
    catalog,
    cyclic_group,
    grow_catalog,
    random_partial_action,
    three_point_action,
)

ENTRIES = {entry.name: entry for entry in catalog()}


def test_catalog_contents():
    assert set(ENTRIES) == {
        "two-object-hybrid", "cyclic-2", "cyclic-3",
        "symmetric-inverse-2", "pair-groupoid-2", "semilattice-2",
    }
    hybrid = ENTRIES["two-object-hybrid"]
    assert len(hybrid.structure.arrows) == 8
    assert len(hybrid.structure.idempotent_set()) == 4
    z2 = ENTRIES["cyclic-2"]
    assert len(z2.structure.objects) == 1
    assert len(z2.structure.arrows) == 2
    assert len(z2.structure.idempotent_set()) == 1
    assert len(ENTRIES["symmetric-inverse-2"].structure.arrows) == 7
    assert len(ENTRIES["pair-groupoid-2"].structure.arrows) == 4


@pytest.mark.parametrize("n", range(1, 7))
def test_cyclic_group_adds_exponents(n):
    z = cyclic_group(n)
    names = ["e" if k == 0 else "g" * k for k in range(n)]
    assert z.arrows == tuple(names)
    for i in range(n):
        for j in range(n):
            assert z.mul(names[i], names[j]) == names[(i + j) % n]


def test_every_catalog_action_validates_and_matches_its_tag():
    for entry in ENTRIES.values():
        for ca in entry.actions:
            assert validate_p_axioms(ca.action).ok, (entry.name, ca.name)
            assert validate_e_axioms(ca.action).ok, (entry.name, ca.name)
            assert ca.global_tag == is_global(ca.action), (entry.name, ca.name)


def test_seeded_restrictions_are_deterministic_and_valid():
    entry = ENTRIES["two-object-hybrid"]
    for seed in range(100):
        once = random_partial_action(entry, 1, seed)
        again = random_partial_action(entry, 1, seed)
        assert once == again
        assert validate_p_axioms(once).ok
        assert validate_e_axioms(once).ok


def test_fixed_seed_reproduces_the_two_point_restriction():
    entry = ENTRIES["two-object-hybrid"]
    expected = restrict(three_point_action(entry.structure), {"1", "2"})
    assert random_partial_action(entry, 1, 0) == expected


@pytest.mark.parametrize(
    "entry, index",
    [(entry, i) for entry in ENTRIES.values() for i, ca in enumerate(entry.actions) if not ca.global_tag],
    ids=lambda x: getattr(x, "name", str(x)),
)
def test_a_seeded_restriction_of_an_action_that_is_not_global_is_refused(entry, index):
    with pytest.raises(ValueError) as err:
        random_partial_action(entry, index, 0)
    assert str(err.value) == f"action {entry.actions[index].name} of {entry.name} is not global"


def test_some_seed_yields_the_full_carrier():
    entry = ENTRIES["cyclic-3"]
    base = entry.actions[0].action
    assert any(random_partial_action(entry, 0, seed) == base for seed in range(200))


def test_grow_catalog_adds_global_actions():
    entry = ENTRIES["two-object-hybrid"]
    restricted = restrict(three_point_action(entry.structure), {"1", "2"})
    seeded = CatalogEntry(
        entry.name,
        entry.structure,
        entry.actions + (type(entry.actions[0])("two-point", restricted, False),),
    )
    grown = grow_catalog(seeded)
    assert len(grown.actions) == 2 * len(seeded.actions)
    added = {ca.name: ca for ca in grown.actions[len(seeded.actions):]}
    for ca in added.values():
        assert ca.global_tag and is_global(ca.action)
    # globalizing the two-point restriction lands on four classes
    assert len(added["two-point+globalized"].action.carrier) == 4
    # globalizing an already-global action adds an isomorphic copy
    copy = added["three-point+globalized"].action
    assert len(copy.carrier) == len(three_point_action(entry.structure).carrier)
    glob = build_globalization(entry.actions[1].action)
    assert is_isomorphism(glob.canonical_embedding)


def test_grow_catalog_of_an_actionless_entry_is_unchanged():
    entry = ENTRIES["cyclic-2"]
    empty = CatalogEntry(entry.name, entry.structure, ())
    assert grow_catalog(empty).actions == ()

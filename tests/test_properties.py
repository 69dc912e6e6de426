"""Property suites: algebra laws, axiom-system agreement, construction invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from isgact import (
    build_globalization,
    build_seed_set,
    check_derived_propositions,
    close_equivalence,
    format_action,
    format_structure,
    natural_leq,
    parse_action,
    parse_structure,
    seed_edges,
    validate_e_axioms,
    validate_p_axioms,
)
from isgact.catalog import catalog, four_point_action, grow_catalog, random_partial_action

from dual_route_oracles import natural_leq_diagnostic
from pairwise_oracle import pairwise_closure, pairwise_edges, seed_domain, seeds_related
from worked_data import audit_equivalence_lemmas

CATALOG = catalog()
STRUCTURES = [entry.structure for entry in CATALOG]
ACTIONS = [ca.action for entry in CATALOG for ca in entry.actions]
GLOBAL_SLOTS = [
    (entry, i) for entry in CATALOG for i, ca in enumerate(entry.actions) if ca.global_tag
]
GROWN = [grow_catalog(entry) for entry in CATALOG]
GROWN_SLOTS = [
    (entry, i) for entry in GROWN for i, ca in enumerate(entry.actions) if ca.global_tag
]

seeds = st.integers(min_value=0, max_value=2**32 - 1)
slots = st.sampled_from(GLOBAL_SLOTS)


# ---------------------------------------------------------------------------
# algebra laws, scanned exhaustively per structure


@pytest.mark.parametrize("isg", STRUCTURES, ids=[e.name for e in CATALOG])
def test_inverse_laws(isg):
    for s in isg.arrows:
        assert isg.inv(isg.inv(s)) == s
        assert isg.mul(s, isg.inv(s)) in isg.idempotent_set()
    for s, t in isg.table.composable_pairs():
        assert isg.inv(isg.mul(s, t)) == isg.mul(isg.inv(t), isg.inv(s))


@pytest.mark.parametrize("isg", STRUCTURES, ids=[e.name for e in CATALOG])
def test_idempotents_commute_and_sit_below_their_factors(isg):
    idem = isg.idempotent_set()
    for e in idem:
        for f in idem:
            if not isg.composable(e, f):
                continue
            assert isg.composable(f, e)
            ef = isg.mul(e, f)
            assert ef == isg.mul(f, e)
            assert natural_leq(isg, ef, e) and natural_leq(isg, ef, f)


@pytest.mark.parametrize("isg", STRUCTURES, ids=[e.name for e in CATALOG])
def test_conjugated_idempotents(isg):
    idem = isg.idempotent_set()
    for s in isg.arrows:
        for e in idem:
            if not isg.composable(s, e):
                continue
            conj = isg.mul(isg.mul(s, e), isg.inv(s))
            assert conj in idem
            assert natural_leq(isg, conj, isg.mul(s, isg.inv(s)))


@pytest.mark.parametrize("isg", STRUCTURES, ids=[e.name for e in CATALOG])
def test_natural_order_laws(isg):
    arrows = isg.arrows
    for s in arrows:
        for t in arrows:
            assert natural_leq_diagnostic(isg, s, t).agree, (s, t)
            assert natural_leq(isg, s, t) == natural_leq(isg, isg.inv(s), isg.inv(t))
    # compatibility with composition
    below = {t: [s for s in arrows if natural_leq(isg, s, t)] for t in arrows}
    for t1 in arrows:
        for t2 in arrows:
            if not isg.composable(t1, t2):
                continue
            for s1 in below[t1]:
                for s2 in below[t2]:
                    if not isg.composable(s1, s2):
                        continue
                    assert natural_leq(isg, isg.mul(s1, s2), isg.mul(t1, t2))


@pytest.mark.parametrize(
    "isg",
    [ca.action.semigroupoid for entry in GROWN for ca in entry.actions],
    ids=[f"{entry.name}/{ca.name}" for entry in GROWN for ca in entry.actions],
)
def test_derived_tables_match_the_brute_force_filters(isg):
    # the structure each catalog action and each grown (globalized) action is built over
    arrows = isg.arrows
    assert isg.products == tuple(
        (s, t, isg.mul(s, t)) for s in arrows for t in arrows if isg.composable(s, t)
    )
    assert isg.strict_order == tuple(
        (s, t) for s in arrows for t in arrows if s != t and natural_leq(isg, s, t)
    )


# ---------------------------------------------------------------------------
# actions: both axiom systems agree; derived facts hold


@pytest.mark.parametrize("action", ACTIONS)
def test_axiom_systems_agree_on_catalog_actions(action):
    assert validate_p_axioms(action).ok == validate_e_axioms(action).ok is True
    assert check_derived_propositions(action).ok


@pytest.mark.parametrize("action", ACTIONS)
def test_theta_pairs_invert_each_other(action):
    isg = action.semigroupoid
    for s in isg.arrows:
        for x in action.dom_of[s]:
            assert action.theta[s][action.theta[isg.inv(s)][x]] == x


@given(slot=slots, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_seeded_restrictions_validate_under_both_systems(slot, seed):
    entry, index = slot
    action = random_partial_action(entry, index, seed)
    assert validate_p_axioms(action).ok
    assert validate_e_axioms(action).ok
    assert check_derived_propositions(action).ok


@given(slot=slots, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_seeded_restrictions_round_trip_through_text(slot, seed):
    entry, index = slot
    action = random_partial_action(entry, index, seed)
    text = format_action(action, "ref.isgd")
    assert parse_action(text, entry.structure) == action
    structure_text = format_structure(entry.structure)
    assert parse_structure(structure_text).table == entry.structure.table


# ---------------------------------------------------------------------------
# the construction


@pytest.mark.parametrize("action", ACTIONS)
def test_seed_relation_is_reflexive_and_symmetric(action):
    seed_list = build_seed_set(action)
    for p in seed_list:
        assert seeds_related(action, p, p)
    for i, p in enumerate(seed_list):
        for q in seed_list[i + 1:]:
            assert seeds_related(action, p, q) == seeds_related(action, q, p)


def _assert_closure_matches_the_pairwise_oracle(action):
    seed_list = build_seed_set(action)
    edges = pairwise_edges(seed_list, action)
    assert seed_edges(seed_list, action) == edges
    quotient = close_equivalence(seed_list, action)
    assert quotient.classes == pairwise_closure(seed_list, action).classes
    assert list(quotient.edges) == edges


@pytest.mark.parametrize("action", [ca.action for entry in GROWN for ca in entry.actions])
def test_closure_matches_the_pairwise_oracle_on_catalog_actions(action):
    _assert_closure_matches_the_pairwise_oracle(action)


def test_closure_matches_the_pairwise_oracle_off_the_axioms(hybrid):
    # theta[a] leaves its declared domain here, so the domain test in the
    # relation is not implied by theta being defined
    _assert_closure_matches_the_pairwise_oracle(four_point_action(hybrid, bad_range=True))


@given(slot=st.sampled_from(GROWN_SLOTS), seed=seeds)
@settings(max_examples=60, deadline=None)
def test_closure_matches_the_pairwise_oracle_on_seeded_restrictions(slot, seed):
    entry, index = slot
    _assert_closure_matches_the_pairwise_oracle(random_partial_action(entry, index, seed))


def _assert_class_maps_match_the_seed_domain_oracle(action):
    glob = build_globalization(action)
    isg = action.semigroupoid
    class_of = glob.quotient.class_of
    for s in isg.arrows:
        domain = seed_domain(action, s, glob.quotient.seeds)
        moves = glob.global_action.theta[s]
        assert set(moves) == {class_of[seed] for seed in domain}, s
        for p, x in domain:
            assert moves[class_of[p, x]] == class_of[isg.mul(s, p), x], (s, p, x)
        landing = seed_domain(action, isg.inv(s), glob.quotient.seeds)
        assert glob.global_action.dom_of[s] == {class_of[seed] for seed in landing}, s


@pytest.mark.parametrize("action", [ca.action for entry in GROWN for ca in entry.actions])
def test_class_maps_match_the_seed_domain_oracle_on_catalog_actions(action):
    # grow_catalog keeps every catalog action and adds its globalization
    _assert_class_maps_match_the_seed_domain_oracle(action)


@given(slot=st.sampled_from(GROWN_SLOTS), seed=seeds)
@settings(max_examples=60, deadline=None)
def test_class_maps_match_the_seed_domain_oracle_on_seeded_restrictions(slot, seed):
    entry, index = slot
    _assert_class_maps_match_the_seed_domain_oracle(random_partial_action(entry, index, seed))


@given(slot=slots, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_lemma_audits_on_seeded_restrictions(slot, seed):
    entry, index = slot
    action = random_partial_action(entry, index, seed)
    quotient = close_equivalence(build_seed_set(action), action)
    audit_equivalence_lemmas(action, quotient)


@given(slot=slots, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_globalizing_twice_stabilizes_the_class_count(slot, seed):
    entry, index = slot
    action = random_partial_action(entry, index, seed)
    first = build_globalization(action)
    second = build_globalization(first.global_action)
    assert len(second.global_action.carrier) == len(first.global_action.carrier)

"""Property suites: algebra laws, axiom-system agreement, construction invariants."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from isgact import (
    ActionMap,
    GlobalizationTriple,
    PartialAction,
    WellDefinednessError,
    build_globalization,
    build_seed_set,
    check_derived_propositions,
    close_equivalence,
    format_action,
    format_structure,
    inclusion_map,
    is_action_map,
    is_embedding,
    is_global,
    is_valid_global,
    load_action,
    mediating,
    natural_leq,
    parse_action,
    parse_structure,
    validate_e_axioms,
    validate_p_axioms,
    verify_universal,
)
from isgact.catalog import catalog, four_point_action, grow_catalog, partial_bijections, random_partial_action

from corruptions import labeled_corruptions
from dual_route_oracles import is_action_map as is_action_map_by_names
from dual_route_oracles import is_embedding_by_names, natural_leq_diagnostic
from p_scan_oracle import validate_p_axioms_by_scan
from pairwise_oracle import pairwise_closure, pairwise_edges, seed_domain, seeds_related
from universal_oracle import mediating_by_seeds, verify_universal_by_enumeration
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


def _symmetric_inverse_3():
    """I_3, all 34 partial injections of three points, as named partial bijections."""
    points = ("1", "2", "3")
    maps = {}
    for k in range(4):
        for xs in itertools.combinations(points, k):
            for ys in itertools.permutations(points, k):
                maps["".join(xs) + ">" + "".join(ys)] = dict(zip(xs, ys))
    return partial_bijections(maps, points)[0]


def _closure(isg, arrows):
    """Every product of the given arrows, by brute force: multiply all reached pairs until nothing new."""
    reached = set(arrows)
    while True:
        new = {isg.mul(s, t) for s in reached for t in reached if isg.composable(s, t)} - reached
        if not new:
            return reached
        reached |= new


@pytest.mark.parametrize(
    "isg",
    [ca.action.semigroupoid for entry in GROWN for ca in entry.actions] + [_symmetric_inverse_3()],
    ids=[f"{entry.name}/{ca.name}" for entry in GROWN for ca in entry.actions] + ["symmetric-inverse-3"],
)
def test_generators_are_greedy_and_generate_every_arrow(isg):
    gens = isg.generators
    assert _closure(isg, gens) == set(isg.arrows)
    for i, g in enumerate(gens):
        assert g not in _closure(isg, gens[:i]), g
    # an arrow left out is reached by the generators declared before it
    for a in set(isg.arrows) - set(gens):
        position = isg.arrows.index(a)
        assert a in _closure(isg, [g for g in gens if isg.arrows.index(g) < position]), a


def _single_entry_corruptions(action):
    """Every action that differs from the given one in one theta entry (moved or deleted) or one domain point."""
    return (corrupted for _, corrupted in labeled_corruptions(action))


@pytest.mark.parametrize(
    "action",
    [ca.action for entry in GROWN for ca in entry.actions if ca.global_tag],
    ids=[f"{entry.name}/{ca.name}" for entry in GROWN for ca in entry.actions if ca.global_tag],
)
def test_the_generator_edge_check_agrees_with_the_full_scan(action):
    assert is_valid_global(action)
    outcomes = []
    for corrupted in _single_entry_corruptions(action):
        full = validate_p_axioms(corrupted).ok and is_global(corrupted)
        assert is_valid_global(corrupted) == full
        outcomes.append(full)
    assert outcomes and not all(outcomes)


@pytest.mark.parametrize(
    "action",
    [ca.action for entry in GROWN for ca in entry.actions],
    ids=[f"{entry.name}/{ca.name}" for entry in GROWN for ca in entry.actions],
)
def test_the_p_scan_matches_the_set_based_oracle_on_single_entry_corruptions(action):
    assert validate_p_axioms(action) == validate_p_axioms_by_scan(action)
    tags = set()
    for corrupted in _single_entry_corruptions(action):
        report = validate_p_axioms(corrupted)
        assert report == validate_p_axioms_by_scan(corrupted)
        tags |= report.tags()
    assert tags & {"P3-domain", "P3-value"}


@given(slot=st.sampled_from(GROWN_SLOTS), pick=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_the_map_checks_match_their_name_keyed_oracles_on_single_entry_corruptions(slot, pick):
    # the identity map out of a corrupted copy into the action, and back into the copy
    entry, index = slot
    action = entry.actions[index].action
    corruptions = list(_single_entry_corruptions(action))
    broken = corruptions[pick % len(corruptions)]
    identity = {x: x for x in action.carrier}
    for f in (ActionMap(broken, action, identity), ActionMap(action, broken, identity)):
        assert is_action_map(f) == is_action_map_by_names(f)
        assert is_embedding(f) == is_embedding_by_names(f)


@given(slot=st.sampled_from(GROWN_SLOTS), seed=seeds, pick=st.integers(min_value=-1, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_the_p_scan_matches_the_set_based_oracle_on_seeded_restrictions(slot, seed, pick):
    entry, index = slot
    action = random_partial_action(entry, index, seed)
    corruptions = list(_single_entry_corruptions(action)) if pick >= 0 else []
    if corruptions:
        action = corruptions[pick % len(corruptions)]  # one single-entry corruption of the restriction
    assert validate_p_axioms(action) == validate_p_axioms_by_scan(action)


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
    quotient = close_equivalence(seed_list, action)
    assert list(quotient.edges) == edges
    assert quotient.classes == pairwise_closure(seed_list, action).classes


@pytest.mark.parametrize("action", [ca.action for entry in GROWN for ca in entry.actions])
def test_closure_matches_the_pairwise_oracle_on_catalog_actions(action):
    _assert_closure_matches_the_pairwise_oracle(action)


@pytest.mark.parametrize("action", [ca.action for entry in GROWN for ca in entry.actions])
def test_closure_matches_the_pairwise_oracle_on_shuffled_seeds(action):
    # the relation lists partners in order only for canonical seeds; any other order is sorted at the end
    seed_list = build_seed_set(action)
    random.Random(len(seed_list)).shuffle(seed_list)
    edges = pairwise_edges(seed_list, action)
    quotient = close_equivalence(seed_list, action)
    assert quotient.seeds == tuple(seed_list)
    assert list(quotient.edges) == edges
    assert quotient.classes == pairwise_closure(seed_list, action).classes


def test_closure_matches_the_pairwise_oracle_off_the_axioms(hybrid):
    # theta[a] leaves its declared domain here, so the domain test in the
    # relation is not implied by theta being defined
    _assert_closure_matches_the_pairwise_oracle(four_point_action(hybrid, bad_range=True))


@given(slot=st.sampled_from(GROWN_SLOTS), seed=seeds)
@settings(max_examples=60, deadline=None)
def test_closure_matches_the_pairwise_oracle_on_seeded_restrictions(slot, seed):
    entry, index = slot
    _assert_closure_matches_the_pairwise_oracle(random_partial_action(entry, index, seed))


def _assert_the_construction_closes_as_the_general_closure(action):
    # build_globalization closes its own integer seed index; the API closes a Seed list
    built = build_globalization(action).quotient
    seed_list = build_seed_set(action)
    for general in (close_equivalence(seed_list, action), pairwise_closure(seed_list, action)):
        assert built.n_classes == general.n_classes
        assert built.seeds == general.seeds
        assert built.classes == general.classes
        assert built.representatives == general.representatives
        assert built.class_of == general.class_of
        assert built.edges == general.edges


@given(slot=st.sampled_from(GROWN_SLOTS), seed=seeds)
@settings(max_examples=60, deadline=None)
def test_the_construction_closes_as_the_general_closure_on_seeded_restrictions(slot, seed):
    entry, index = slot
    _assert_the_construction_closes_as_the_general_closure(random_partial_action(entry, index, seed))


def test_the_construction_closes_as_the_general_closure_on_the_four_point_fixture(fixtures_dir):
    # the idempotent seeds at a point glue classes across the two codomain fibers
    action, _ = load_action(fixtures_dir / "four_point.pact")
    _assert_the_construction_closes_as_the_general_closure(action)


def test_the_construction_closes_as_the_general_closure_on_an_empty_carrier():
    isg = CATALOG[0].structure
    _assert_the_construction_closes_as_the_general_closure(
        PartialAction(isg, (), {s: () for s in isg.arrows}, {s: {} for s in isg.arrows})
    )


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


def _factoring_mapping(mediate, glob, target):
    """The mapping of the factoring map, or None where it raises WellDefinednessError."""
    try:
        return mediate(glob, target).mapping
    except WellDefinednessError:
        return None


@given(
    slot=st.sampled_from(GROWN_SLOTS),
    seed=seeds,
    perturb=st.sampled_from([None, "embedded", "free"]),
    rank=st.integers(min_value=0, max_value=10),
    kind=st.sampled_from(["plain", "triple", "smuggled"]),
    over=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_uniqueness_audit_matches_the_enumeration_oracle(slot, seed, perturb, rank, kind, over):
    entry, index = slot
    base = entry.actions[index].action
    action = random_partial_action(entry, index, seed)
    glob = build_globalization(action)
    if kind == "smuggled":
        # an arbitrary carrier map into the base, smuggled past the triple's checks, often admits no commuting map
        rng = random.Random(seed)
        target = object.__new__(GlobalizationTriple)
        target.embedding = ActionMap(action, base, {x: rng.choice(base.carrier) for x in action.carrier})
    else:
        j = inclusion_map(action, base)
        target = GlobalizationTriple(j) if kind == "triple" else j
    # the factoring map read off the embedding is the one every seed of every class gives, or both raise
    mapping = _factoring_mapping(mediating, glob, target)
    assert mapping == _factoring_mapping(mediating_by_seeds, glob, target)
    if mapping is None:
        # only a smuggled target admits no commuting map; sigma is arbitrary as well
        assert kind == "smuggled"
        mapping = {c: rng.choice(base.carrier) for c in glob.global_action.carrier}
    sigma = ActionMap(glob.global_action, base, mapping)
    if perturb is not None:
        # move one class, embedded or left free by the embedding, to another target point
        embedded = set(glob.canonical_embedding.mapping.values())
        pool = [c for c in glob.global_action.carrier if (c in embedded) == (perturb == "embedded")]
        assume(pool)
        c = pool[rank % len(pool)]
        others = [z for z in base.carrier if z != sigma.mapping[c]]
        sigma = ActionMap(glob.global_action, base, {**sigma.mapping, c: others[rank % len(others)]})
    # the budget counts every map from the classes into the target carrier, on either side of it
    total = len(base.carrier) ** len(glob.global_action.carrier)
    bound = total - 1 if over else total
    report = verify_universal(glob, target, sigma, exhaustive_bound=bound)
    assert report == verify_universal_by_enumeration(glob, target, sigma, exhaustive_bound=bound)
    assert bool(report.notes) == over
    if kind != "smuggled":
        assert report.ok == (perturb is None)



"""Property suites: algebra laws, axiom-system agreement, construction invariants."""

import contextlib
import itertools
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from isgact import (
    ActionMap,
    GlobalizationTriple,
    PartialAction,
    WellDefinednessError,
    build_globalization,
    build_seed_set,
    close_equivalence,
    format_action,
    format_structure,
    inclusion_map,
    is_action_map,
    is_embedding,
    is_global,
    load_action,
    mediating,
    parse_action,
    parse_structure,
    validate_e_axioms,
    validate_p_axioms,
    verify_universal,
)
from isgact.catalog import catalog, partial_bijections, random_partial_action

from corruptions import coherent_swaps, labeled_corruptions
from derived_oracle import check_derived_propositions
from dual_route_oracles import is_action_map as is_action_map_by_names
from dual_route_oracles import is_embedding_by_names, natural_leq_diagnostic
from e_scan_oracle import validate_e_axioms_by_scan
from grown_catalog import grow_catalog
from p_scan_oracle import composable_pairs, refused_as_the_scan_rejects, validate_p_axioms_by_scan
from pairwise_oracle import pairwise_closure, pairwise_edges, seed_domain, seeds_related
from universal_oracle import mediating_by_seeds, verify_universal_by_enumeration
from worked_data import audit_equivalence_lemmas

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
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
# the fixtures' actions and the grown catalog's, by name
SUBJECTS = {path.name: load_action(path)[0] for path in sorted(FIXTURES.glob("*.pact"))}
SUBJECTS.update({f"{entry.name}/{ca.name}": ca.action for entry in GROWN for ca in entry.actions})

seeds = st.integers(min_value=0, max_value=2**32 - 1)
slots = st.sampled_from(GLOBAL_SLOTS)


# ---------------------------------------------------------------------------
# algebra laws, scanned exhaustively per structure


def _order(isg):
    """The natural partial order as a set of name pairs: the library's strict order plus the diagonal."""
    return set(isg.strict_order) | {(s, s) for s in isg.arrows}


@pytest.mark.parametrize("isg", STRUCTURES, ids=[e.name for e in CATALOG])
def test_inverse_laws(isg):
    for s in isg.arrows:
        assert isg.inv(isg.inv(s)) == s
        assert isg.mul(s, isg.inv(s)) in isg.idempotent_set()
    for s, t in composable_pairs(isg):
        assert isg.inv(isg.mul(s, t)) == isg.mul(isg.inv(t), isg.inv(s))


@pytest.mark.parametrize("isg", STRUCTURES, ids=[e.name for e in CATALOG])
def test_idempotents_commute_and_sit_below_their_factors(isg):
    idem, leq = isg.idempotent_set(), _order(isg)
    for e in idem:
        for f in idem:
            if isg.dom(e) != isg.cod(f):
                continue
            assert isg.dom(f) == isg.cod(e)
            ef = isg.mul(e, f)
            assert ef == isg.mul(f, e)
            assert (ef, e) in leq and (ef, f) in leq


@pytest.mark.parametrize("isg", STRUCTURES, ids=[e.name for e in CATALOG])
def test_conjugated_idempotents(isg):
    idem, leq = isg.idempotent_set(), _order(isg)
    for s in isg.arrows:
        for e in idem:
            if isg.dom(s) != isg.cod(e):
                continue
            conj = isg.mul(isg.mul(s, e), isg.inv(s))
            assert conj in idem
            assert (conj, isg.mul(s, isg.inv(s))) in leq


@pytest.mark.parametrize("isg", STRUCTURES, ids=[e.name for e in CATALOG])
def test_natural_order_laws(isg):
    arrows, leq = isg.arrows, _order(isg)
    for s in arrows:
        for t in arrows:
            diagnostic = natural_leq_diagnostic(isg, s, t)
            assert diagnostic.agree and diagnostic.holds == ((s, t) in leq), (s, t)
            assert ((s, t) in leq) == ((isg.inv(s), isg.inv(t)) in leq)
    # compatibility with composition
    below = {t: [s for s in arrows if (s, t) in leq] for t in arrows}
    for t1 in arrows:
        for t2 in arrows:
            if isg.dom(t1) != isg.cod(t2):
                continue
            for s1 in below[t1]:
                for s2 in below[t2]:
                    if isg.dom(s1) != isg.cod(s2):
                        continue
                    assert (isg.mul(s1, s2), isg.mul(t1, t2)) in leq


@pytest.mark.parametrize(
    "isg",
    [ca.action.semigroupoid for entry in GROWN for ca in entry.actions],
    ids=[f"{entry.name}/{ca.name}" for entry in GROWN for ca in entry.actions],
)
def test_derived_tables_match_the_brute_force_filters(isg):
    # the structure each catalog action and each grown (globalized) action is built over
    arrows = isg.arrows
    assert tuple(map(isg._names, isg._products)) == tuple((s, t, isg.mul(s, t)) for s, t in composable_pairs(isg))
    assert isg.strict_order == tuple(
        (s, t) for s in arrows for t in arrows if s != t and natural_leq_diagnostic(isg, s, t).holds
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
        new = {isg.mul(s, t) for s in reached for t in reached if isg.dom(s) == isg.cod(t)} - reached
        if not new:
            return reached
        reached |= new


@pytest.mark.parametrize(
    "isg",
    [ca.action.semigroupoid for entry in GROWN for ca in entry.actions] + [_symmetric_inverse_3()],
    ids=[f"{entry.name}/{ca.name}" for entry in GROWN for ca in entry.actions] + ["symmetric-inverse-3"],
)
def test_generators_are_greedy_and_generate_every_arrow(isg):
    gens = isg._names(isg._generators)
    assert _closure(isg, gens) == set(isg.arrows)
    for i, g in enumerate(gens):
        assert g not in _closure(isg, gens[:i]), g
    # an arrow left out is reached by the generators declared before it
    for a in set(isg.arrows) - set(gens):
        position = isg.arrows.index(a)
        assert a in _closure(isg, [g for g in gens if isg.arrows.index(g) < position]), a
    # the walk's right Cayley tree reaches every other arrow once, by a generator, from an arrow reached before
    generators, tree = isg._generator_walk
    assert sorted(ug for _, _, ug in tree) == sorted(set(range(len(isg.arrows))) - set(generators))
    reached = set(generators)
    for u, g, ug in tree:
        assert g in generators and ug == isg._mul[u][g]
        assert u in reached, (u, g, ug)
        reached.add(ug)


def _single_entry_corruptions(action):
    """Every action that differs from the given one in one theta entry (moved or deleted) or one domain point."""
    return (corrupted for _, corrupted in labeled_corruptions(action))


@pytest.mark.parametrize(
    "ca",
    [ca for entry in GROWN for ca in entry.actions],
    ids=[f"{entry.name}/{ca.name}" for entry in GROWN for ca in entry.actions],
)
def test_the_p_scan_matches_the_set_based_oracle_on_single_entry_corruptions(ca):
    # a global action is decided along the generator edges, and a corruption may be too; the oracle scans every pair
    action = ca.action
    report = validate_p_axioms(action)
    assert report == validate_p_axioms_by_scan(action)
    if ca.global_tag:
        assert report.ok and is_global(action)
    tags, outcomes = set(), []
    for corrupted in _single_entry_corruptions(action):
        report = validate_p_axioms(corrupted)
        assert report == validate_p_axioms_by_scan(corrupted)
        tags |= report.tags()
        outcomes.append(report.ok and is_global(corrupted))
    assert tags & {"P3-domain", "P3-value"}
    assert outcomes and not all(outcomes)


def _corruptions_and_swaps(action):
    return [action, *_single_entry_corruptions(action), *(swapped for _, swapped in coherent_swaps(action))]


@pytest.mark.parametrize(
    "action",
    [ca.action for entry in GROWN for ca in entry.actions],
    ids=[f"{entry.name}/{ca.name}" for entry in GROWN for ca in entry.actions],
)
def test_the_construction_refuses_what_the_scan_rejects_on_corruptions_and_swaps(action):
    outcomes = {refused_as_the_scan_rejects(a) for a in _corruptions_and_swaps(action)}
    assert "built" in outcomes and "refused" in outcomes


@pytest.mark.parametrize("slot", GROWN_SLOTS, ids=[f"{entry.name}/{entry.actions[i].name}" for entry, i in GROWN_SLOTS])
def test_the_construction_refuses_what_the_scan_rejects_on_seeded_restrictions(slot):
    entry, index = slot
    for seed in range(4):
        for action in _corruptions_and_swaps(random_partial_action(entry, index, seed)):
            refused_as_the_scan_rejects(action)


@pytest.mark.parametrize(
    "action",
    [ca.action for entry in GROWN for ca in entry.actions],
    ids=[f"{entry.name}/{ca.name}" for entry in GROWN for ca in entry.actions],
)
def test_the_e_scan_matches_the_every_pair_oracle_on_corruptions_and_swaps(action):
    # E2 runs only when the composition-law decision refuses the action; the oracle checks every pair pointwise
    tags = set()
    for a in _corruptions_and_swaps(action):
        report = validate_e_axioms(a)
        assert report == validate_e_axioms_by_scan(a)
        tags |= report.tags()
    assert "E2" in tags


@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_the_reports_do_not_depend_on_what_the_action_was_asked_before(name):
    # the action holds its linear checks and its composition-law decision; no report may change them or read them twice
    def fresh(a):
        return PartialAction._from_rows(a.semigroupoid, a.carrier, a.rows, a.masks)

    for a in _corruptions_and_swaps(SUBJECTS[name]):
        p, e = validate_p_axioms(fresh(a)), validate_e_axioms(fresh(a))
        p_then_e, e_then_p, twice = fresh(a), fresh(a), fresh(a)
        assert (validate_p_axioms(p_then_e), validate_e_axioms(p_then_e)) == (p, e)
        assert (validate_e_axioms(e_then_p), validate_p_axioms(e_then_p)) == (e, p)
        assert (validate_p_axioms(twice), validate_p_axioms(twice)) == (p, p)


@pytest.mark.parametrize("slot", GROWN_SLOTS, ids=[f"{entry.name}/{entry.actions[i].name}" for entry, i in GROWN_SLOTS])
def test_the_e_scan_matches_the_every_pair_oracle_on_seeded_restrictions(slot):
    entry, index = slot
    for seed in range(4):
        for action in _corruptions_and_swaps(random_partial_action(entry, index, seed)):
            assert validate_e_axioms(action) == validate_e_axioms_by_scan(action)


def test_coherent_swaps_keep_the_linear_checks_so_the_output_check_alone_refuses_some():
    tags, outcomes = set(), set()
    for entry in GROWN:
        for ca in entry.actions:
            for _, swapped in coherent_swaps(ca.action):
                report = validate_p_axioms_by_scan(swapped)
                assert report.tags() <= {"P3-domain", "P3-value"}
                tags |= report.tags()
                outcomes.add(refused_as_the_scan_rejects(swapped))
    assert tags == {"P3-domain", "P3-value"}
    assert outcomes == {"built", "refused for P3 alone"}


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
    assert parse_structure(structure_text).table == entry.structure


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


def test_closure_matches_the_pairwise_oracle_off_the_axioms(four_point_bad_range):
    # theta[a] leaves its declared domain here, so the domain test in the
    # relation is not implied by theta being defined
    _assert_closure_matches_the_pairwise_oracle(four_point_bad_range)


@pytest.mark.parametrize(
    "action",
    [ca.action for entry in GROWN for ca in entry.actions],
    ids=[f"{entry.name}/{ca.name}" for entry in GROWN for ca in entry.actions],
)
def test_closure_matches_the_pairwise_oracle_on_corruptions_and_swaps_with_shuffled_seeds(action):
    # off the axioms the relation's domain test is not implied by theta being defined, nor is the relation symmetric
    for index, broken in enumerate(_corruptions_and_swaps(action)):
        seed_list = build_seed_set(broken)
        random.Random(index).shuffle(seed_list)
        quotient = close_equivalence(seed_list, broken)
        assert list(quotient.edges) == pairwise_edges(seed_list, broken)
        assert quotient.classes == pairwise_closure(seed_list, broken).classes


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
    class_of = dict(zip(glob.quotient.seeds, glob.quotient._label))
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
    with _maps_built_from_positions() as built:
        _assert_uniqueness_audit_matches_the_enumeration_oracle(slot, seed, perturb, rank, kind, over)
    # the canonical embedding, the mediating map and the audit's forced map: each is the map the
    # name constructor gives for its mapping, which lists the source carrier in order
    assert built
    for f in built:
        assert list(f.mapping) == list(f.source.carrier)
        assert f._image == ActionMap(f.source, f.target, f.mapping)._image


@contextlib.contextmanager
def _maps_built_from_positions():
    """A list that collects every ActionMap the library builds with ``_from_image`` inside the block."""
    built, original = [], ActionMap._from_image.__func__

    def recording(cls, *args):
        built.append(original(cls, *args))
        return built[-1]

    with mock.patch.object(ActionMap, "_from_image", classmethod(recording)):
        yield built


def _assert_uniqueness_audit_matches_the_enumeration_oracle(slot, seed, perturb, rank, kind, over):
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



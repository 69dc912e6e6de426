import pytest

from isgact import (
    GlobalizationTriple,
    PartialAction,
    Seed,
    StructuralError,
    WellDefinednessError,
    build_globalization,
    build_seed_set,
    check_fiber_injectivity,
    close_equivalence,
    compose,
    fiber_classes,
    identity_map,
    inclusion_map,
    infer_inverses,
    is_embedding,
    is_global,
    mediating,
    restrict,
    validate_e_axioms,
    verify_universal,
)
from isgact.core import SemigroupoidTable
from isgact.catalog import four_point_action

from pairwise_oracle import seed_domain, seeds_related
from worked_data import (
    CLASSES_A,
    CLASSES_B,
    EMBED_A,
    EMBED_B,
    ETA_A,
    ETA_B,
    FAMILIES_A,
    FAMILIES_B,
    SEED_DOMAIN_A,
    SIGMA_B,
    audit_equivalence_lemmas,
    assert_exact_composites,
    check_globalization_against,
    match_classes,
)


@pytest.fixture()
def two_point(three_point):
    return restrict(three_point, {"1", "2"})


def test_seed_set_of_the_four_point_action(four_point):
    seeds = build_seed_set(four_point)
    assert len(seeds) == 14
    assert set(seeds) == {
        ("b", "1"), ("b", "2"), ("b*b", "1"), ("b*b", "2"),
        ("b*", "1"), ("b*", "4"), ("bb*", "1"), ("bb*", "4"),
        ("a", "1"), ("a*a", "1"), ("a*", "3"), ("a*", "4"),
        ("aa*", "3"), ("aa*", "4"),
    }


def test_seed_set_of_the_restriction_is_the_full_product(two_point):
    seeds = build_seed_set(two_point)
    assert len(seeds) == 16
    arrows = two_point.semigroupoid.arrows
    assert set(seeds) == {(s, x) for s in arrows for x in ("1", "2")}


def test_one_point_action_has_one_seed():
    table = SemigroupoidTable(("o",), ("e",), {"e": "o"}, {"e": "o"}, {("e", "e"): "e"})
    isg = infer_inverses(table)
    tiny = PartialAction(isg, ("x",), {"e": {"x"}}, {"e": {"x": "x"}})
    assert build_seed_set(tiny) == [Seed("e", "x")]


def test_relation_is_not_transitive_on_the_four_point_action(four_point):
    assert seeds_related(four_point, Seed("a", "1"), Seed("aa*", "4"))
    assert seeds_related(four_point, Seed("aa*", "4"), Seed("bb*", "4"))
    assert not seeds_related(four_point, Seed("a", "1"), Seed("bb*", "4"))


def test_relation_is_reflexive_and_symmetric(four_point, two_point):
    for action in (four_point, two_point):
        seeds = build_seed_set(action)
        for p in seeds:
            assert seeds_related(action, p, p)
        for p in seeds:
            for q in seeds:
                assert seeds_related(action, p, q) == seeds_related(action, q, p)


def test_quotient_of_the_four_point_action(four_point):
    seeds = build_seed_set(four_point)
    quotient = close_equivalence(seeds, four_point)
    assert quotient.n_classes == 5
    match_classes(quotient, CLASSES_A)
    for c in range(quotient.n_classes):
        assert quotient.class_of[quotient.representatives[c]] == c


def test_quotient_of_the_restriction(two_point):
    quotient = close_equivalence(build_seed_set(two_point), two_point)
    assert quotient.n_classes == 4
    match_classes(quotient, CLASSES_B)


def test_global_input_has_one_class_per_point(three_point):
    quotient = close_equivalence(build_seed_set(three_point), three_point)
    assert quotient.n_classes == len(three_point.carrier)


def test_seed_domains_match_the_worked_tables(four_point):
    glob = build_globalization(four_point)
    for s, expected in SEED_DOMAIN_A.items():
        assert set(seed_domain(four_point, s)) == expected, s
        # the library's class map of s is defined on exactly these seeds' classes
        assert set(glob.global_action.theta[s]) == {glob.quotient.class_of[seed] for seed in expected}, s
    # idempotent seeds always lie in their own arrow's seed domain
    isg = four_point.semigroupoid
    for e in isg.idempotent_set():
        for seed in build_seed_set(four_point):
            if seed.arrow == e:
                assert seed in seed_domain(four_point, e)


def test_seed_domains_of_the_restriction_need_only_composability(two_point):
    isg = two_point.semigroupoid
    all_seeds = build_seed_set(two_point)
    for s in isg.arrows:
        expected = [seed for seed in all_seeds if isg.composable(s, seed.arrow)]
        assert seed_domain(two_point, s) == expected


def test_globalization_of_the_four_point_action(four_point):
    glob = build_globalization(four_point)
    check_globalization_against(glob, CLASSES_A, FAMILIES_A, ETA_A, EMBED_A)
    assert is_global(glob.global_action)
    assert validate_e_axioms(glob.global_action).ok
    assert_exact_composites(glob.global_action)
    assert is_embedding(glob.canonical_embedding).ok


def test_globalization_of_the_restriction(two_point):
    glob = build_globalization(two_point)
    check_globalization_against(glob, CLASSES_B, FAMILIES_B, ETA_B, EMBED_B)


def test_globalization_of_a_one_point_action():
    table = SemigroupoidTable(("o",), ("e",), {"e": "o"}, {"e": "o"}, {("e", "e"): "e"})
    isg = infer_inverses(table)
    tiny = PartialAction(isg, ("x",), {"e": {"x"}}, {"e": {"x": "x"}})
    glob = build_globalization(tiny)
    assert glob.quotient.n_classes == 1
    assert glob.global_action.theta["e"] == {0: 0}


def test_globalization_rejects_invalid_input(hybrid):
    with pytest.raises(StructuralError):
        build_globalization(four_point_action(hybrid, bad_range=True))


def test_mediating_map_of_the_restriction(three_point, two_point):
    glob = build_globalization(two_point)
    label = match_classes(glob.quotient, CLASSES_B)
    j = inclusion_map(two_point, three_point)
    sigma = mediating(glob, GlobalizationTriple(j))
    assert sigma.mapping == {label[c]: z for c, z in SIGMA_B.items()}
    assert compose(sigma, glob.canonical_embedding) == j
    # globally not injective, yet injective on each codomain fiber
    assert len(set(sigma.mapping.values())) < len(sigma.mapping)
    assert check_fiber_injectivity(sigma, glob).ok


def test_mediating_toward_itself_is_the_identity(four_point):
    glob = build_globalization(four_point)
    sigma = mediating(glob, GlobalizationTriple(glob.canonical_embedding))
    assert sigma == identity_map(glob.global_action)


def test_mediating_accepts_a_plain_action_map_target(three_point, two_point):
    glob = build_globalization(two_point)
    j = inclusion_map(two_point, three_point)
    assert mediating(glob, j) == mediating(glob, GlobalizationTriple(j))


def test_mediating_rejects_foreign_or_non_global_targets(three_point, two_point, four_point):
    glob = build_globalization(two_point)
    with pytest.raises(StructuralError):
        mediating(glob, identity_map(two_point))  # target is not global
    other = build_globalization(four_point)
    with pytest.raises(StructuralError):
        mediating(glob, other.canonical_embedding)  # built over a different action


def test_mediating_flags_an_unusable_target(three_point, two_point):
    # a constant map into the global action is not equivariant; smuggle it past
    # the constructor checks to exercise the well-definedness audit
    glob = build_globalization(two_point)
    bad = object.__new__(GlobalizationTriple)
    bad.embedding = inclusion_map(two_point, three_point)
    bad.embedding = type(bad.embedding)(two_point, three_point, {"1": "1", "2": "1"})
    with pytest.raises(WellDefinednessError):
        mediating(glob, bad)


def test_uniqueness_by_exhaustive_enumeration(three_point, two_point):
    glob = build_globalization(two_point)
    j = inclusion_map(two_point, three_point)
    sigma = mediating(glob, j)
    report = verify_universal(glob, j, sigma, exhaustive_bound=100)
    assert report.ok and not report.notes
    skipped = verify_universal(glob, j, sigma, exhaustive_bound=10)
    assert skipped.ok and any("uniqueness skipped (bound)" in n for n in skipped.notes)


def test_uniqueness_against_itself(four_point):
    glob = build_globalization(four_point)
    triple = GlobalizationTriple(glob.canonical_embedding)
    sigma = mediating(glob, triple)
    report = verify_universal(glob, triple, sigma)  # 5**5 candidates, within default bound
    assert report.ok and not report.notes


def test_fiber_classes(two_point, four_point):
    glob = build_globalization(two_point)
    label = match_classes(glob.quotient, CLASSES_B)
    # the left object u carries the loops; a runs u -> v
    assert fiber_classes(glob, "u") == {label["1"], label["2"], label["4"]}
    assert fiber_classes(glob, "v") == {label["1"], label["2"], label["3"]}
    union = fiber_classes(glob, "u") | fiber_classes(glob, "v")
    assert union == set(range(glob.quotient.n_classes))

    glob_a = build_globalization(four_point)
    label_a = match_classes(glob_a.quotient, CLASSES_A)
    # (aa*, 3) and (a, 1) share the right-hand fiber
    assert {label_a["3"], label_a["4"]} <= fiber_classes(glob_a, "v")
    with pytest.raises(StructuralError):
        fiber_classes(glob_a, "w")


def test_lemma_audits_on_the_fixtures(four_point, three_point):
    for action in (four_point, three_point, restrict(three_point, {"1", "2"})):
        glob = build_globalization(action)
        audit_equivalence_lemmas(action, glob.quotient)

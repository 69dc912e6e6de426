import pytest

from isgact import (
    ActionMap,
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
    globalization,
    identity_map,
    inclusion_map,
    infer_inverses,
    is_embedding,
    is_global,
    is_globalization_triple,
    mediating,
    restrict,
    validate_e_axioms,
    validate_p_axioms,
    verify_universal,
)
from isgact.core import SemigroupoidTable, ValidationReport, Violation
from isgact.catalog import catalog_entry, four_point_action, three_point_action

from pairwise_oracle import seed_domain, seeds_related
from universal_oracle import verify_universal_by_enumeration
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
    # classes are numbered in the order of their first seeds
    firsts = [quotient.seeds.index(members[0]) for members in quotient.classes]
    assert firsts == sorted(firsts)


def test_quotient_of_the_restriction(two_point):
    quotient = close_equivalence(build_seed_set(two_point), two_point)
    assert quotient.n_classes == 4
    match_classes(quotient, CLASSES_B)


def test_global_input_has_one_class_per_point(three_point):
    quotient = close_equivalence(build_seed_set(three_point), three_point)
    assert quotient.n_classes == len(three_point.carrier)


def test_seed_domains_match_the_worked_tables(four_point):
    glob = build_globalization(four_point)
    class_of = dict(zip(glob.quotient.seeds, glob.quotient._label))
    for s, expected in SEED_DOMAIN_A.items():
        assert set(seed_domain(four_point, s)) == expected, s
        # the library's class map of s is defined on exactly these seeds' classes
        assert set(glob.global_action.theta[s]) == {class_of[seed] for seed in expected}, s
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


def test_globalization_rejects_invalid_input(four_point_bad_range):
    with pytest.raises(StructuralError):
        build_globalization(four_point_bad_range)


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
    with pytest.raises(StructuralError) as refused:
        mediating(glob, identity_map(two_point))  # target is not global
    assert str(refused.value) == (
        "mediating requires an action map into a valid global action:\n"
        + ValidationReport((Violation("target-not-global", "target action is not global", ()),)).render()
    )
    other = build_globalization(four_point)
    with pytest.raises(StructuralError):
        mediating(glob, other.canonical_embedding)  # built over a different action


def test_verify_universal_refuses_a_sigma_between_other_actions_by_name(hybrid, three_point, two_point):
    glob = build_globalization(two_point)
    j = inclusion_map(two_point, three_point)
    with pytest.raises(StructuralError, match="^sigma must start at the global action of the globalization$"):
        verify_universal(glob, j, identity_map(three_point))
    with pytest.raises(StructuralError, match="^sigma must land in the target action of j$"):
        verify_universal(glob, j, identity_map(glob.global_action))
    # equal actions built apart are accepted at both ends
    sigma = mediating(glob, j)
    assert verify_universal(build_globalization(two_point), inclusion_map(two_point, three_point_action(hybrid)), sigma).ok


def test_check_fiber_injectivity_refuses_a_sigma_from_another_action_by_name(three_point, two_point):
    glob = build_globalization(two_point)
    with pytest.raises(StructuralError, match="^sigma must start at the global action of the globalization$"):
        check_fiber_injectivity(identity_map(three_point), glob)
    # an equal global action built apart is accepted
    sigma = mediating(glob, inclusion_map(two_point, three_point))
    assert check_fiber_injectivity(sigma, build_globalization(two_point)).ok


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


def _one_point_of_cyclic_3():
    """The regular action of Z_3, its restriction to one point, and that restriction's globalization."""
    base = catalog_entry("cyclic-3").actions[0].action
    action = restrict(base, [base.carrier[0]], trim=True)
    return base, action, build_globalization(action)


def test_uniqueness_reports_a_class_off_the_embedding():
    # the construction plus a disjoint copy of its one orbit: no class of the copy is one move from
    # the embedding, and the copy can land on any of the three rotations of the target
    base, action, built = _one_point_of_cyclic_3()
    n = len(built.global_action.carrier)
    rows = [row + [d + n if d >= 0 else -1 for d in row] for row in built.global_action.rows]
    doubled = PartialAction._from_rows(action.semigroupoid, tuple(range(2 * n)), rows, [m + m for m in built.global_action.masks])
    assert validate_p_axioms(doubled).ok and is_global(doubled)
    glob = globalization.Globalization(action, built.quotient, doubled, ActionMap(action, doubled, built.canonical_embedding.mapping))
    j = inclusion_map(action, base)
    first = mediating(built, j).mapping
    sigma = ActionMap(doubled, base, {**first, **{c + n: z for c, z in first.items()}})
    report = verify_universal(glob, j, sigma)
    assert report.violations == (Violation("uniqueness", f"class {n} is not one move from the embedding, so its value is not forced", (n,)),)
    assert verify_universal_by_enumeration(glob, j, sigma).violations == (
        Violation("uniqueness", "3 commuting action maps found, expected exactly one", ()),
    )
    with pytest.raises(WellDefinednessError) as err:
        mediating(glob, j)
    assert str(err.value) == f"class {n} is not one move from the embedding, so its value is not forced"


def test_uniqueness_checks_the_forced_map():
    # a smuggled triple into the target with one point cut from a domain: every class still has
    # its forced value, but the forced map breaks the family condition, so no map commutes
    base, action, glob = _one_point_of_cyclic_3()
    masks = [m.copy() for m in base.masks]
    masks[1][0] = False
    cut = PartialAction._from_rows(base.semigroupoid, base.carrier, base.rows, masks)
    bad = object.__new__(GlobalizationTriple)
    bad.embedding = ActionMap(action, cut, {x: x for x in action.carrier})
    sigma = ActionMap(glob.global_action, cut, mediating(glob, inclusion_map(action, base)).mapping)
    report = verify_universal(glob, bad, sigma)
    assert report == verify_universal_by_enumeration(glob, bad, sigma)
    assert report.violations[-1] == Violation("uniqueness", "0 commuting action maps found, expected exactly one", ())


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


@pytest.mark.parametrize("planted", ["moved", "dropped"])
def test_a_wrong_class_map_entry_trips_the_output_check(monkeypatch, two_point, planted):
    home = build_globalization(two_point).canonical_embedding._image  # the classes the points embed into
    built = []

    from_rows = PartialAction._from_rows.__func__

    def with_a_wrong_entry(cls, isg, carrier, rows, masks):
        a = isg.arrows.index("a")
        moves = list(rows[a])  # over class ids, which are the output's carrier positions
        c = next(c for c, d in enumerate(moves) if d >= 0)
        if planted == "moved":
            moves[c] = next(d for d in range(len(carrier)) if d != moves[c])
        else:
            moves[c] = -1
        built.append(from_rows(cls, isg, carrier, [*rows[:a], moves, *rows[a + 1 :]], masks))
        return built[-1]

    monkeypatch.setattr(PartialAction, "_from_rows", classmethod(with_a_wrong_entry))
    with pytest.raises(RuntimeError) as failure:
        build_globalization(two_point)
    # the report is the globalization check's on the canonical map into the planted output
    report = is_globalization_triple(ActionMap._from_image(two_point, built[0], home))
    assert any(v.tag == "target-invalid" for v in report.violations)
    assert str(failure.value) == "constructed output is not a globalization of the input:\n" + report.render()


def test_a_class_sent_to_two_classes_trips_the_class_map_audit(monkeypatch, hybrid):
    # a fresh action, so the session fixture's held decisions stay those of the real partition
    action = four_point_action(hybrid)

    def planted(blocks, action, images):
        # generator a moves seed 1 to seed 8, then seed 2 to seed 9: all seeds in class 0 but seed 9
        assert images[0][1:3] == [8, 9]
        label = [0] * len(images[0])
        label[9] = 1
        return label, 2

    monkeypatch.setattr(globalization, "_congruence_labels", planted)
    with pytest.raises(RuntimeError) as failure:
        build_globalization(action)
    # the first image recorded for class 0 is class 0 itself, so the audit must count an image of 0 as recorded
    assert str(failure.value) == "class map for arrow a is not well defined: class 0 sent to both 0 and 1"


def test_an_injective_canonical_map_does_not_certify_p3():
    # semilattice-2 on three points, bot the identity on all three and top empty: the linear checks pass and P3 fails
    isg = catalog_entry("semilattice-2").structure
    action = PartialAction(isg, ("1", "2", "3"), {"top": (), "bot": ("1", "2", "3")}, {"top": {}, "bot": {x: x for x in "123"}})
    assert action._linear == ()
    # the canonical map is injective, so the output check fails on the preimage equation alone
    refusal = globalization._construct(action)
    head, count, *lines = refusal.splitlines()
    assert (head, count) == ("constructed output is not a globalization of the input:", "FAIL (3 violation(s))")
    assert [line.split("]")[0] for line in lines] == ["  [embedding-domain"] * 3
    report = validate_p_axioms(action)
    assert [v.tag for v in report.violations] == ["P3-domain"] * 3 + ["P3-value"] * 3
    with pytest.raises(StructuralError) as refused:
        build_globalization(action)
    assert str(refused.value) == "input fails the partial-action axioms:\n" + report.render()

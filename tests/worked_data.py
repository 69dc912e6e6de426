"""Frozen golden values for the two worked constructions, plus audit helpers.

Class labels follow the hand-worked tables; tests translate them to the
library's canonical labels by matching member sets, so any relabeling
bijection is accepted.
"""

from isgact import PartialAction, Seed, restrict


# Globalization of the four-point action: 14 seeds, 5 classes.
CLASSES_A = {
    "1": {("b", "1"), ("a*", "4"), ("b*", "1"), ("a*a", "1"), ("b*b", "1"), ("bb*", "1")},
    "2": {("b*b", "2"), ("b*", "4")},
    "3": {("aa*", "3")},
    "4": {("b", "2"), ("bb*", "4"), ("a", "1"), ("aa*", "4")},
    "5": {("a*", "3")},
}

FAMILIES_A = {
    "a*": {"1", "5"}, "a*a": {"1", "5"},
    "a": {"3", "4"}, "aa*": {"3", "4"},
    "b*": {"1", "2", "5"}, "b*b": {"1", "2", "5"},
    "b": {"1", "4", "5"}, "bb*": {"1", "4", "5"},
}

ETA_A = {
    "a": {"1": "4", "5": "3"},
    "b": {"1": "1", "2": "4", "5": "5"},
}

EMBED_A = {"1": "1", "2": "2", "3": "3", "4": "4"}

SEED_DOMAIN_A = {
    # the oracle seed_domain(action, s) of pairwise_oracle lists the seeds on
    # which the class map of s acts
    "a": {("a*", "3"), ("a*", "4"), ("b", "1"), ("b*", "1"), ("a*a", "1"), ("bb*", "1"), ("b*b", "1")},
    "a*": {("a", "1"), ("aa*", "3"), ("aa*", "4")},
    "b": {("a*", "3"), ("a*", "4"), ("a*a", "1"), ("b", "1"), ("b*b", "1"), ("b*b", "2"), ("b*", "1"), ("b*", "4"), ("bb*", "1")},
    "b*": {("a*", "3"), ("a*", "4"), ("b", "1"), ("b", "2"), ("b*", "1"), ("a*a", "1"), ("bb*", "1"), ("bb*", "4"), ("b*b", "1")},
}
SEED_DOMAIN_A.update({"a*a": SEED_DOMAIN_A["a"], "aa*": SEED_DOMAIN_A["a*"],
                      "b*b": SEED_DOMAIN_A["b"], "bb*": SEED_DOMAIN_A["b*"]})


# Globalization of the three-point action restricted to {1, 2}: 16 seeds, 4 classes.
CLASSES_B = {
    "1": {("b*b", "1"), ("bb*", "1"), ("a*a", "1"), ("aa*", "1"), ("b", "1"), ("b*", "1"), ("a*", "2")},
    "2": {("b*b", "2"), ("bb*", "2"), ("a*a", "2"), ("aa*", "2"), ("b", "2"), ("b*", "2"), ("a", "1")},
    "3": {("a", "2")},
    "4": {("a*", "1")},
}

FAMILIES_B = {
    "a*": {"1", "2", "4"}, "a*a": {"1", "2", "4"},
    "a": {"1", "2", "3"}, "aa*": {"1", "2", "3"},
    "b*": {"1", "2", "4"}, "b*b": {"1", "2", "4"},
    "b": {"1", "2", "4"}, "bb*": {"1", "2", "4"},
}

ETA_B = {
    "a": {"1": "2", "2": "3", "4": "1"},
    "b": {"1": "1", "2": "2", "4": "4"},
}

EMBED_B = {"1": "1", "2": "2"}

SIGMA_B = {"1": "1", "2": "2", "3": "3", "4": "3"}


def match_classes(quotient, expected: dict) -> dict:
    """Map golden labels to canonical class ids by exact member sets."""
    ours = {frozenset(members): c for c, members in enumerate(quotient.classes)}
    assert len(ours) == len(expected), f"{len(ours)} classes, expected {len(expected)}"
    label = {}
    for name, members in expected.items():
        key = frozenset(Seed(a, p) for a, p in members)
        assert key in ours, f"no class with members {sorted(members)}"
        label[name] = ours[key]
    return label


def check_globalization_against(glob, classes, families, eta, embed):
    """Assert that a built globalization matches golden tables up to relabeling."""
    label = match_classes(glob.quotient, classes)
    for s, fam in families.items():
        assert glob.global_action.dom_of[s] == {label[c] for c in fam}, f"family of {s}"
    for s, moves in eta.items():
        expected = {label[c]: label[d] for c, d in moves.items()}
        assert glob.global_action.theta[s] == expected, f"class map of {s}"
    assert glob.canonical_embedding.mapping == {x: label[c] for x, c in embed.items()}
    return label


def audit_equivalence_lemmas(action: PartialAction, quotient):
    """Exhaustively re-check the two coherence facts behind the construction.

    For equivalent seeds (s, x) and (t, y): membership of x in dom_of[inv(s)]
    matches membership of y in dom_of[inv(t)] and the theta values agree; and
    for every arrow p composable with both, the conjugated memberships match
    and left-multiplied seeds stay equivalent.
    """
    isg = action.semigroupoid
    for members in quotient.classes:
        for s, x in members:
            for t, y in members:
                in_s = x in action.dom_of[isg.inv(s)]
                in_t = y in action.dom_of[isg.inv(t)]
                assert in_s == in_t, (s, x, t, y)
                if in_s:
                    assert action.theta[s][x] == action.theta[t][y], (s, x, t, y)
                for p in isg.arrows:
                    if not (isg.composable(p, s) and isg.composable(p, t)):
                        continue
                    conj_s = isg.mul(isg.inv(s), isg.mul(isg.inv(p), isg.mul(p, s)))
                    conj_t = isg.mul(isg.inv(t), isg.mul(isg.inv(p), isg.mul(p, t)))
                    mem_s = x in action.dom_of[conj_s]
                    mem_t = y in action.dom_of[conj_t]
                    assert mem_s == mem_t, (p, s, x, t, y)
                    if mem_s:
                        ps, pt = isg.mul(p, s), isg.mul(p, t)
                        assert quotient.class_of[Seed(ps, x)] == quotient.class_of[Seed(pt, y)], (p, s, x, t, y)


def assert_exact_composites(action: PartialAction):
    """For a global action the composite of two arrow maps IS the product map."""
    isg = action.semigroupoid
    for s, t in isg.composable_pairs():
        st = isg.mul(s, t)
        allowed = action.dom_of[t] & action.dom_of[isg.inv(s)]
        composite = {x: action.theta[s][y] for x, y in action.theta[t].items() if y in allowed}
        assert composite == action.theta[st], (s, t)


def transported_copy(action: PartialAction, mapping: dict) -> PartialAction:
    """The same action with every carrier element renamed through an injection."""
    isg = action.semigroupoid
    carrier = [mapping[x] for x in action.carrier]
    dom_of = {s: {mapping[x] for x in action.dom_of[s]} for s in isg.arrows}
    theta = {s: {mapping[x]: mapping[y] for x, y in action.theta[s].items()} for s in isg.arrows}
    return PartialAction(isg, carrier, dom_of, theta)

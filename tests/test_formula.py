import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clbk.formula import (
    And,
    Chand,
    Chor,
    Elementary,
    EnvAnn,
    FormulaError,
    General,
    Hybrid,
    Implies,
    NEGATIVE,
    Not,
    Or,
    ParseError,
    POSITIVE,
    Truth,
    child_at,
    children,
    elementarize,
    is_elementary,
    parse_formula,
    polarity,
    print_formula,
    rebuild,
    resolve_spec,
    skeleton,
    specification,
    substitute_at,
    surface_occurrences,
    transform,
)
from genlib import random_ast

p, q, r = Elementary("p"), Elementary("q"), Elementary("r")
C = General("C")


def test_parse_annotated_implication():
    f = parse_formula("(C /\\ C) -> (C \\/ C) @ w")
    assert f == EnvAnn(Implies(And(C, C), Or(C, C)), "w")


def test_parse_single_atom():
    assert parse_formula("p") == p


def test_parse_rejects_env_switching():
    with pytest.raises(FormulaError, match="env-switching"):
        parse_formula("((p & (q & r)) @ w) @ u")


def test_parse_rejects_annotation_on_elementary():
    with pytest.raises(ParseError, match="general atoms"):
        parse_formula("p{h=x}")


def test_parse_rejects_mixed_operators():
    with pytest.raises(ParseError, match="parenthesize"):
        parse_formula("p & q /\\ r")
    with pytest.raises(ParseError, match="parenthesize"):
        parse_formula("p | q \\/ r")


def test_parse_chand_nary_and_nested():
    assert parse_formula("p & q & r") == Chand((p, q, r))
    assert parse_formula("p & (q & r)") == Chand((p, Chand((q, r))))


def test_parse_reports_position():
    with pytest.raises(ParseError, match="line 1"):
        parse_formula("p -> ->")


def test_print_simple_implication():
    assert print_formula(Implies(p, p)) == "p -> p"


def test_print_chand_under_annotation():
    assert print_formula(EnvAnn(Chand((p, q, r)), "w")) == "(p & q & r) @ w"


def test_print_hybrid():
    assert print_formula(Hybrid("C", "p")) == "C_p"


def test_print_quotes_starred_agents():
    assert print_formula(EnvAnn(p, "*1")) == 'p @ "*1"'


def test_skeleton_removes_annotation():
    f = parse_formula("(p & (q & r)) @ w")
    assert skeleton(f) == parse_formula("p & (q & r)")


def test_skeleton_identity_on_unannotated():
    assert skeleton(p) == p


def test_skeleton_two_wrappers():
    f = parse_formula("(P @ w) /\\ (Q @ u)")
    assert skeleton(f) == parse_formula("P /\\ Q")


def test_polarity_antecedent_is_negative():
    f = parse_formula("P -> Q")
    assert polarity(f, (1,)) == NEGATIVE
    assert polarity(f, (2,)) == POSITIVE


def test_polarity_double_negation():
    f = parse_formula("~~p")
    assert polarity(f, (1, 1)) == POSITIVE


def test_polarity_nested_antecedents():
    f = parse_formula("(p -> q) -> r")
    assert polarity(f, (1, 1)) == POSITIVE


def test_surface_generals_in_example():
    f = parse_formula("(C /\\ C) -> (C \\/ C)")
    occs = surface_occurrences(f, "general")
    assert [(o.spec, o.polarity) for o in occs] == [
        ("1.1.", NEGATIVE),
        ("1.2.", NEGATIVE),
        ("2.1.", POSITIVE),
        ("2.2.", POSITIVE),
    ]


def test_surface_choice_single():
    f = parse_formula("(p & q) -> p")
    occs = surface_occurrences(f, "choice")
    assert [(o.spec, o.polarity) for o in occs] == [("1.", NEGATIVE)]


def test_surface_choice_root_only():
    f = parse_formula("p | (q & r)")
    occs = surface_occurrences(f, "choice")
    assert [o.spec for o in occs] == [""]
    assert isinstance(occs[0].node, Chor)


def test_surface_matching_environment():
    f = parse_formula("((C /\\ C) -> (C \\/ C)) @ w")
    assert all(o.env == "w" for o in surface_occurrences(f, "general"))
    assert all(o.env is None for o in surface_occurrences(parse_formula("C -> C"), "general"))


def test_specification_examples():
    f = parse_formula("(p & q) -> r")
    occ = surface_occurrences(f, "choice")[0]
    assert specification(f, occ.path) == "1."

    g = parse_formula("~(P \\/ Q)")
    occs = surface_occurrences(g, "general")
    assert specification(g, occs[1].path) == "2."

    h = parse_formula("((C /\\ C) -> (C \\/ C)) @ w")
    occs = surface_occurrences(h, "general")
    assert specification(h, occs[3].path) == "2.2."


def test_specification_rejects_choice_crossing():
    f = parse_formula("p & q")
    with pytest.raises(FormulaError):
        specification(f, (1,))


def test_resolve_spec_examples():
    f = parse_formula("p -> q")
    assert child_at(f, resolve_spec(f, "2.")) == q

    g = parse_formula("(C /\\ C) -> (C \\/ C)")
    assert resolve_spec(g, "1.2.") == (1, 2)

    with pytest.raises(FormulaError):
        resolve_spec(parse_formula("p & q"), "1.")


def test_substitute_examples():
    f = parse_formula("p /\\ q")
    assert substitute_at(f, (2,), r) == parse_formula("p /\\ r")

    g = parse_formula("(p & q) -> p")
    occ = surface_occurrences(g, "choice")[0]
    assert substitute_at(g, occ.path, p) == parse_formula("p -> p")

    h = parse_formula("C -> C")
    h1 = substitute_at(h, (1,), Hybrid("C", "p"))
    h2 = substitute_at(h1, (2,), Hybrid("C", "p"))
    assert h2 == parse_formula("C_p -> C_p")


def test_is_elementary():
    assert is_elementary(parse_formula("p /\\ ~q"))
    assert not is_elementary(parse_formula("P"))
    assert not is_elementary(parse_formula("C_p"))
    assert is_elementary(Truth(True))


def test_elementarize_choice_and_generals():
    assert elementarize(parse_formula("(p & q) -> p")) == Implies(Truth(True), p)
    assert elementarize(parse_formula("P -> P")) == Implies(Truth(True), Truth(False))
    got = elementarize(parse_formula("(C_p /\\ C_q) -> (C_p \\/ C_q)"))
    assert got == parse_formula("(p /\\ q) -> (p \\/ q)")


def test_elementarize_respects_polarity_of_generals():
    f = parse_formula("~P \\/ P")
    assert elementarize(f) == Or(Not(Truth(True)), Truth(False))
    assert elementarize(parse_formula("C{h=m}")) == Truth(False)
    assert elementarize(f, backed=lambda g: True) == Or(Not(Truth(True)), Truth(True))


# --- properties over generated formulas --------------------------------------


def test_round_trip_seeded_thousand():
    rng = random.Random(20260808)
    for _ in range(1000):
        f = random_ast(rng, depth=6)
        assert parse_formula(print_formula(f)) == f


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**63))
def test_round_trip_hypothesis(seed):
    f = random_ast(random.Random(seed), depth=5)
    assert parse_formula(print_formula(f)) == f


def test_specification_resolve_inverse():
    rng = random.Random(7)
    for _ in range(300):
        f = random_ast(rng, depth=5)
        for kind in ("choice", "general", "hybrid"):
            for occ in surface_occurrences(f, kind):
                assert specification(f, occ.path) == occ.spec
                assert resolve_spec(f, occ.spec) == occ.path


def _paths(f, path=()):
    yield path
    for i, c in enumerate(children(f), start=1):
        yield from _paths(c, path + (i,))


def test_transform_identity_returns_same_object():
    rng = random.Random(19)
    for _ in range(300):
        f = random_ast(rng, depth=5)
        assert transform(f, lambda n: n) is f


def test_rebuild_over_own_children_is_equal():
    rng = random.Random(23)
    for _ in range(300):
        f = random_ast(rng, depth=5)
        for path in _paths(f):
            node = child_at(f, path)
            assert rebuild(node, children(node)) == node


def test_substitute_own_subformula_is_identity():
    rng = random.Random(29)
    for _ in range(300):
        f = random_ast(rng, depth=5)
        for path in _paths(f):
            assert substitute_at(f, path, child_at(f, path)) == f


def test_elementarize_always_elementary():
    rng = random.Random(11)
    for _ in range(400):
        f = random_ast(rng, depth=5)
        assert is_elementary(elementarize(f))


def test_skeleton_idempotent_and_clean():
    rng = random.Random(13)

    def has_env(g):
        if isinstance(g, EnvAnn):
            return True
        from clbk.formula import children

        return any(has_env(c) for c in children(g))

    for _ in range(300):
        f = random_ast(rng, depth=5)
        s = skeleton(f)
        assert not has_env(s)
        assert skeleton(s) == s


def test_polarity_flips_under_negation_and_antecedent():
    rng = random.Random(17)
    for _ in range(200):
        f = random_ast(rng, depth=4)
        for occ in surface_occurrences(f, "general"):
            wrapped = Not(f)
            assert polarity(wrapped, (1,) + occ.path) == -occ.polarity
            ante = Implies(f, q)
            assert polarity(ante, (1,) + occ.path) == -occ.polarity

import random
import re

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
    Note,
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
    substitute_paths,
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


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("p /\\\n  ?q", "unexpected character '?'", 2, 3),
        ("(p", "expected ')', found ''", 1, 3),
        ("(p -> \n\n q) )", "unexpected trailing input ')'", 3, 5),
        ("p @ ~", "expected an agent id, found '~'", 1, 5),
        ("p{h=x}", "strategy annotations are only allowed on general atoms", 1, 1),
        ("T{h=x}", "truth constants take no annotation", 1, 1),
        ("C{q=x}", "annotation kind must be 'h' or 's'", 1, 3),
        ("C{h=}", "annotation needs a name", 1, 5),
        ("p /\\ q & r", "cannot mix /\\ and & at one level; parenthesize", 1, 8),
        ("p \\/ q | r", "cannot mix \\/ and | at one level; parenthesize", 1, 8),
        ("p -> ->", "expected an atom, found '->'", 1, 6),
    ],
)
def test_parse_error_message_and_position(text, message, line, col):
    with pytest.raises(ParseError) as info:
        parse_formula(text)
    assert str(info.value) == f"{message} (line {line}, column {col})"
    assert (info.value.line, info.value.col) == (line, col)


def test_print_simple_implication():
    assert print_formula(Implies(p, p)) == "p -> p"


def test_print_chand_under_annotation():
    assert print_formula(EnvAnn(Chand((p, q, r)), "w")) == "(p & q & r) @ w"


def test_print_hybrid():
    assert print_formula(Hybrid("C", "p")) == "C_p"


def test_print_quotes_starred_agents():
    assert print_formula(EnvAnn(p, "*1")) == 'p @ "*1"'


# Each operand printed as the left and the right operand of ->, /\ and \/, as a choice part,
# negated and annotated: the exact text, so that a change of parentheses that still parses shows.
PRINTER_STYLE = {
    "p": ["p -> r", "r -> p", "p /\\ r", "r /\\ p", "p \\/ r", "r \\/ p", "p & r", "~p", "p @ w"],
    "~p": ["~p -> r", "r -> ~p", "~p /\\ r", "r /\\ ~p", "~p \\/ r", "r \\/ ~p", "~p & r", "~~p", "~p @ w"],
    "p -> q": [
        "(p -> q) -> r", "r -> p -> q", "(p -> q) /\\ r", "r /\\ (p -> q)", "(p -> q) \\/ r", "r \\/ (p -> q)",
        "(p -> q) & r", "~(p -> q)", "p -> q @ w",
    ],
    "p /\\ q": [
        "(p /\\ q) -> r", "r -> (p /\\ q)", "p /\\ q /\\ r", "r /\\ (p /\\ q)", "p /\\ q \\/ r", "r \\/ p /\\ q",
        "(p /\\ q) & r", "~(p /\\ q)", "(p /\\ q) @ w",
    ],
    "p \\/ q": [
        "(p \\/ q) -> r", "r -> (p \\/ q)", "(p \\/ q) /\\ r", "r /\\ (p \\/ q)", "p \\/ q \\/ r", "r \\/ (p \\/ q)",
        "(p \\/ q) & r", "~(p \\/ q)", "(p \\/ q) @ w",
    ],
    "p & q": [
        "(p & q) -> r", "r -> (p & q)", "(p & q) /\\ r", "r /\\ (p & q)", "(p & q) \\/ r", "r \\/ (p & q)",
        "(p & q) & r", "~(p & q)", "(p & q) @ w",
    ],
    "p | q": [
        "(p | q) -> r", "r -> (p | q)", "(p | q) /\\ r", "r /\\ (p | q)", "(p | q) \\/ r", "r \\/ (p | q)",
        "(p | q) & r", "~(p | q)", "(p | q) @ w",
    ],
}


@pytest.mark.parametrize("text", PRINTER_STYLE)
def test_printer_style_table(text):
    x = parse_formula(text)
    places = [Implies(x, r), Implies(r, x), And(x, r), And(r, x), Or(x, r), Or(r, x), Chand((x, r)), Not(x), EnvAnn(x, "w")]
    assert [print_formula(f) for f in places] == PRINTER_STYLE[text]


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


def test_substitute_paths_matches_one_at_a_time():
    rng = random.Random(31)
    for _ in range(300):
        f = random_ast(rng, depth=5)
        leaves = [path for path in _paths(f) if not children(child_at(f, path))]
        chosen = {path: Truth(rng.random() < 0.5) for path in leaves if rng.random() < 0.5}
        expected = f
        for path, g in chosen.items():
            expected = substitute_at(expected, path, g)
        assert substitute_paths(f, chosen) == expected
        assert substitute_paths(f, {}) is f


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


# --- the surface walk against the generator walk it replaced -----------------


def _reference_surface_walk(node, path=(), spec="", sign=POSITIVE, env=None):
    """The leaf occurrences (atoms, truth constants and choices) not under a choice operator,
    as a chain of generators: the plain recursive statement of the walk."""
    match node:
        case EnvAnn(c, agent):
            yield from _reference_surface_walk(c, path + (1,), spec, sign, agent)
        case Not(c):
            yield from _reference_surface_walk(c, path + (1,), spec, -sign, env)
        case Implies(l, r):
            yield from _reference_surface_walk(l, path + (1,), spec + "1.", -sign, env)
            yield from _reference_surface_walk(r, path + (2,), spec + "2.", sign, env)
        case And(l, r) | Or(l, r):
            yield from _reference_surface_walk(l, path + (1,), spec + "1.", sign, env)
            yield from _reference_surface_walk(r, path + (2,), spec + "2.", sign, env)
        case _:
            yield node, path, spec, sign, env


_REFERENCE_KINDS = {
    "choice": (Chand, Chor),
    "general": General,
    "hybrid": Hybrid,
    "atom": (General, Hybrid),
    "leaf": object,
}


def assert_walk_matches_reference(f):
    for kind, cls in _REFERENCE_KINDS.items():
        expected = [occ for occ in _reference_surface_walk(f) if isinstance(occ[0], cls)]
        got = surface_occurrences(f, kind)
        assert [(o.node, o.path, o.spec, o.polarity, o.env) for o in got] == expected, (kind, print_formula(f))
        assert all(o.node is e[0] for o, e in zip(got, expected))


def test_surface_walk_matches_reference_on_random_formulas():
    rng = random.Random(20261018)
    for _ in range(500):
        assert_walk_matches_reference(random_ast(rng, depth=rng.randint(0, 7)))


_LEAVES = st.one_of(
    st.sampled_from([p, q, r, C, Truth(True), Truth(False), General("D"), Hybrid("C", "q")]),
    st.builds(General, st.sampled_from(["C", "D"]), st.builds(Note, st.sampled_from("hs"), st.just("hx"))),
)


def _extend(sub):
    return st.one_of(
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(EnvAnn, sub, st.sampled_from(["w", "God", "*1"])),
        st.builds(lambda parts: Chand(tuple(parts)), st.lists(sub, min_size=2, max_size=3)),
        st.builds(lambda parts: Chor(tuple(parts)), st.lists(sub, min_size=2, max_size=3)),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_LEAVES, _extend, max_leaves=30))
def test_surface_walk_matches_reference_on_hypothesis_formulas(f):
    assert_walk_matches_reference(f)


def test_surface_walk_matches_reference_on_deep_chains():
    right = C
    for i in range(199):
        right = Implies(General("D") if i % 2 else C, right)
    left = C
    for _ in range(199):
        left = And(left, General("D"))
    for f in (right, left, EnvAnn(Not(right), "w")):
        assert_walk_matches_reference(f)
    assert len(surface_occurrences(right, "atom")) == 200
    assert [o.spec for o in surface_occurrences(left, "leaf")][:2] == ["1." * 199, "1." * 198 + "2."]


ERROR_FORMULA = parse_formula("(p /\\ C) -> (p & q)")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda f: child_at(f, (3,)), "path step 3 does not resolve in (p /\\ C) -> (p & q)"),
        (lambda f: substitute_at(f, (1, 3), Truth(True)), "path step 3 does not resolve in p /\\ C"),
        (lambda f: polarity(f, (2, 3)), "path step 3 does not resolve in p & q"),
        (lambda f: specification(f, (4,)), "path step 4 does not resolve in (p /\\ C) -> (p & q)"),
        (lambda f: specification(f, (2, 1)), "path crosses a choice operator; not a surface occurrence"),
        (lambda f: resolve_spec(f, "1.x"), "malformed specification string '1.x'"),
        (lambda f: resolve_spec(f, "3."), "specification '3.' does not address an occurrence"),
        (lambda f: resolve_spec(f, "1.1.1."), "specification '1.1.1.' does not address an occurrence"),
        (lambda f: resolve_spec(f, "2.1."), "specification '2.1.' crosses a choice operator"),
    ],
    ids=["child_at", "substitute_at", "polarity", "specification", "specification-choice",
         "resolve-malformed", "resolve-past-end", "resolve-below-atom", "resolve-choice"],
)
def test_paths_and_specs_that_do_not_resolve_name_the_step(call, message):
    with pytest.raises(FormulaError, match=f"^{re.escape(message)}$"):
        call(ERROR_FORMULA)

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clbk.formula import (
    ATOM_KINDS,
    SYMBOLS,
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
    _agent_str,
    atom_text,
    children,
    note_names,
    occurrence_at,
    parse_formula,
    print_formula,
    rebuild,
    substitute_at,
    surface_leaves,
    surface_occurrences,
    transform,
)
from clbk.prover import _paired
from genlib import (
    child_at,
    elementarize,
    is_elementary,
    leaf_paths,
    polarity,
    random_ast,
    replace_at,
    skeleton,
    spec_strings,
    specification,
    trail,
)

p, q, r = Elementary("p"), Elementary("q"), Elementary("r")
C = General("C")


def test_parse_annotated_implication():
    f = parse_formula("(C /\\ C) -> (C \\/ C) @ w")
    assert f == EnvAnn(Implies(And(C, C), Or(C, C)), "w")


def test_parse_single_atom():
    assert parse_formula("p") == p


def test_parse_rejects_env_switching():
    """A nested ``@`` is a parse error placed at the outer ``@``; annotations side by side are fine."""
    with pytest.raises(ParseError, match="env-switching") as exc:
        parse_formula("((p & (q & r)) @ w) @ u")
    assert (exc.value.line, exc.value.col) == (1, 21)
    with pytest.raises(ParseError, match=r"env-switching.*\(line 1, column 16\)"):
        parse_formula("((p @ b) -> p) @ a")
    parse_formula("(p @ a) /\\ (q @ b)")  # side by side, not nested


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


def test_a_choice_needs_two_branches():
    for kind in (Chand, Chor):
        with pytest.raises(FormulaError, match="at least two branches"):
            kind((Elementary("p"),))


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
        # letters are ASCII, and a bad character anywhere is reported before any syntax error
        ("p /\\ é", "unexpected character 'é'", 1, 6),
        ("É -> C", "unexpected character 'É'", 1, 1),
        ("p @ é", "unexpected character 'é'", 1, 5),
        ("C{h=é}", "unexpected character 'é'", 1, 5),
        ("p -> -> é", "unexpected character 'é'", 1, 9),
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


# The printer as first written, one helper frame per operand: the oracle that the one-frame
# ``print_formula`` is checked against.
_ORACLE_OPEN_KINDS = {Implies: ((), (Implies,)), And: ((And,), ()), Or: ((Or, And), (And,))}


def _oracle_operand(node, open_kinds):
    text = _oracle_print(node)
    return text if isinstance(node, (*ATOM_KINDS, Not, *open_kinds)) else f"({text})"


def _oracle_print(f):
    kind = type(f)
    if kind in _ORACLE_OPEN_KINDS:
        left, right = _ORACLE_OPEN_KINDS[kind]
        return f"{_oracle_operand(f.left, left)} {SYMBOLS[kind]} {_oracle_operand(f.right, right)}"
    if kind in (Chand, Chor):
        return f" {SYMBOLS[kind]} ".join(_oracle_operand(p, ()) for p in f.parts)
    if kind is Not:
        return "~" + _oracle_operand(f.child, ())
    if kind is EnvAnn:
        return f"{_oracle_operand(f.child, (Implies,))} @ {_agent_str(f.agent)}"
    return atom_text(f)


def test_print_formula_agrees_with_the_operand_printer():
    """On random formulas with negations, choices and annotations against quoted and bare
    agents, and on the printer style table's places, the one-frame printer writes exactly
    what the operand-helper printer writes."""
    rng = random.Random(20261020)
    formulas = [random_ast(rng, depth=6) for _ in range(1500)]
    for text in PRINTER_STYLE:
        x = parse_formula(text)
        formulas += [Not(Chor((x, r))), EnvAnn(Not(x), "*1"), EnvAnn(Implies(x, Chand((x, Not(x)))), "kiosk9")]
    kinds = {type(node) for f in formulas for node in _nodes(f)}
    assert kinds == {Truth, Elementary, General, Hybrid, Not, And, Or, Implies, Chand, Chor, EnvAnn}
    agents = {node.agent for f in formulas for node in _nodes(f) if isinstance(node, EnvAnn)}
    assert {"*1", "w"} <= agents
    for f in formulas:
        assert print_formula(f) == _oracle_print(f)


def _nodes(f):
    yield f
    for k in children(f):
        yield from _nodes(k)


def test_occurrences_refuse_assignment():
    occ = surface_occurrences(parse_formula("(C /\\ p) -> C"), "leaf")[0]
    with pytest.raises(AttributeError):
        occ.node = p
    with pytest.raises(TypeError):
        occ[0] = p
    assert occ.node == C
    assert occ._fields == ("node", "spec", "polarity", "env")


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
    assert leaf_paths(f)[0] == (1,) and specification(f, (1,)) == "1."

    g = parse_formula("~(P \\/ Q)")
    assert leaf_paths(g)[1] == (1, 2) and specification(g, (1, 2)) == "2."

    h = parse_formula("((C /\\ C) -> (C \\/ C)) @ w")
    assert leaf_paths(h)[3] == (1, 2, 2) and specification(h, (1, 2, 2)) == "2.2."


def test_specification_rejects_choice_crossing():
    f = parse_formula("p & q")
    with pytest.raises(FormulaError):
        specification(f, (1,))


def test_occurrence_at_examples():
    f = parse_formula("p -> q")
    assert occurrence_at(f, "2.") == (q, "2.", POSITIVE, None)

    g = parse_formula("~(C /\\ C) -> (C \\/ C) @ w")
    assert occurrence_at(g, "1.2.") == (C, "1.2.", POSITIVE, "w")

    # no step enters a choice: the read stops at it
    assert occurrence_at(parse_formula("p & q"), "1.").spec == ""

    # a spec that ends at a binary connective addresses it
    assert occurrence_at(parse_formula("p /\\ q"), "") == (And(p, q), "", POSITIVE, None)
    assert occurrence_at(parse_formula("(P /\\ Q) -> R"), "1.").node == parse_formula("P /\\ Q")


def test_substitute_examples():
    f = parse_formula("p /\\ q")
    assert substitute_at(f, "2.", r) == parse_formula("p /\\ r")

    g = parse_formula("(p & q) -> p")
    occ = surface_occurrences(g, "choice")[0]
    assert substitute_at(g, occ.spec, p) == parse_formula("p -> p")

    h = parse_formula("C -> C")
    h1 = substitute_at(h, "1.", Hybrid("C", "p"))
    h2 = substitute_at(h1, "2.", Hybrid("C", "p"))
    assert h2 == parse_formula("C_p -> C_p")

    # negations and annotations on the way are kept, as occurrence_at passes them
    k = parse_formula("~(p /\\ ~C) @ w")
    assert substitute_at(k, "2.", q) == parse_formula("~(p /\\ ~q) @ w")
    assert substitute_at(k, "", r) == parse_formula("~r @ w")


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
    """Each surface leaf's spec is the ``specification`` of its path, and ``occurrence_at``
    reads that spec back to the node at the path."""
    rng = random.Random(7)
    for _ in range(300):
        f = random_ast(rng, depth=5)
        for occ, path in zip(surface_leaves(f), leaf_paths(f), strict=True):
            assert specification(f, path) == occ.spec
            assert occurrence_at(f, occ.spec).node is child_at(f, path)


def test_occurrence_at_finds_every_surface_leaf():
    """``occurrence_at`` along a leaf's spec gives that leaf as ``surface_leaves`` does: the
    same node, spec, polarity and agent, on random formulas with negations, choices and
    annotations."""
    rng = random.Random(20261021)
    checked = 0
    for _ in range(400):
        f = random_ast(rng, depth=5)
        for occ in surface_leaves(f):
            assert occurrence_at(f, occ.spec) == occ, print_formula(f)
            checked += 1
    assert checked > 1000


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**63))
def test_occurrence_at_reads_the_longest_prefix_that_addresses_a_node(seed):
    """On leaf specs and their prefixes, specs past a leaf or into a choice, steps ``0.``,
    ``3.`` and ``01.``, a missing final dot and non-ASCII digits (``spec_strings``):
    ``occurrence_at`` reads a prefix of the spec that addresses a node, and gives that node
    with its polarity; it reads the whole spec exactly when the spec addresses a node."""
    f = random_ast(random.Random(seed), depth=5)
    addressed = _addressed(f)
    for spec in spec_strings(f):
        occ = occurrence_at(f, spec)
        assert spec.startswith(occ.spec)
        path = addressed[occ.spec]
        assert child_at(f, path) is occ.node and polarity(f, path) == occ.polarity
        assert (occ.spec == spec) == (spec in addressed), (print_formula(f), spec)


def _paths(f, path=()):
    yield path
    for i, c in enumerate(children(f), start=1):
        yield from _paths(c, path + (i,))


def _addressed(f):
    """Each spec that addresses a node of ``f``, mapped to that node's path: the paths that
    cross no choice, by their ``specification``, less those that end at a negation or an
    annotation, which a spec passes."""
    out = {}
    for path in _paths(f):
        try:
            spec = specification(f, path)
        except FormulaError:
            continue
        if not isinstance(child_at(f, path), (Not, EnvAnn)):
            assert spec not in out
            out[spec] = path
    return out


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
        for spec, path in _addressed(f).items():
            assert substitute_at(f, spec, child_at(f, path)) == f


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**63))
def test_substitute_at_agrees_with_the_path_reference(seed):
    """On random formulas with negations, annotations and choices: at every surface leaf (an
    atom, a truth constant or a choice), ``substitute_at`` along the leaf's spec equals the
    reference replacement along its path, and keeps every child off the way as the same
    object; and the prover's ``_paired`` at two leaves equals two ``substitute_at`` calls."""
    rng = random.Random(seed)
    marker = Elementary("zz")
    for _ in range(5):
        f = random_ast(rng, depth=rng.randint(1, 5))
        leaves = list(zip(surface_leaves(f), leaf_paths(f), strict=True))
        for occ, path in leaves:
            got = substitute_at(f, occ.spec, marker)
            assert got == replace_at(f, path, marker), (print_formula(f), occ.spec)
            for node, new, step in zip(trail(f, path), trail(got, path), path):
                kept = [a is b for i, (a, b) in enumerate(zip(children(node), children(new)), 1) if i != step]
                assert all(kept), (print_formula(f), occ.spec)
        for (a, _), (b, _) in zip(leaves, leaves[1:]):
            want = substitute_at(substitute_at(f, a.spec, marker), b.spec, marker)
            assert _paired(f, a.spec, b.spec, marker) == want == _paired(f, b.spec, a.spec, marker)


def test_note_names_matches_recursive_definition():
    def reference(f, kind):
        noted = isinstance(f, (General, Hybrid)) and f.note is not None and f.note.kind == kind
        own = {f.note.name} if noted else set()
        return own.union(*(reference(c, kind) for c in children(f)))

    rng = random.Random(41)
    for _ in range(300):
        f = random_ast(rng, depth=5)
        for kind in "hs":
            assert note_names(f, kind) == reference(f, kind)
    assert note_names(parse_formula("C{s=a} /\\ (D_p{s=b} & E{h=c})"), "s") == {"a", "b"}


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
        for occ, path in zip(surface_leaves(f), leaf_paths(f)):
            wrapped = Not(f)
            assert polarity(wrapped, (1,) + path) == -occ.polarity
            ante = Implies(f, q)
            assert polarity(ante, (1,) + path) == -occ.polarity


# --- the surface walk against the generator walk it replaced -----------------


def _reference_surface_walk(node, spec="", sign=POSITIVE, env=None):
    """The leaf occurrences (atoms, truth constants and choices) not under a choice operator,
    as a chain of generators: the plain recursive statement of the walk."""
    match node:
        case EnvAnn(c, agent):
            yield from _reference_surface_walk(c, spec, sign, agent)
        case Not(c):
            yield from _reference_surface_walk(c, spec, -sign, env)
        case Implies(l, r):
            yield from _reference_surface_walk(l, spec + "1.", -sign, env)
            yield from _reference_surface_walk(r, spec + "2.", sign, env)
        case And(l, r) | Or(l, r):
            yield from _reference_surface_walk(l, spec + "1.", sign, env)
            yield from _reference_surface_walk(r, spec + "2.", sign, env)
        case _:
            yield node, spec, sign, env


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
        assert [tuple(o) for o in got] == expected, (kind, print_formula(f))
        assert all(o.node is e[0] for o, e in zip(got, expected))


def test_surface_walk_is_kept_on_a_non_leaf_formula():
    """Every call on one non-leaf formula, whatever its kind, returns Occurrence objects of its
    first walk; the kept walk leaves the formula's equality, hash and repr alone."""
    text = "(C{h=hx} /\\ (p & D_q)) -> ~(C \\/ T) @ w"
    f, twin = parse_formula(text), parse_formula(text)
    first = surface_occurrences(f, "leaf")
    for kind in _REFERENCE_KINDS:
        again = surface_occurrences(f, kind)
        assert [o for o in first if any(o is a for a in again)] == again, kind
        assert all(a is b for a, b in zip(again, surface_occurrences(f, kind))), kind
    assert len(first) == 4 and surface_occurrences(twin, "leaf")[0] is not first[0]
    assert f == twin and hash(f) == hash(twin) and repr(f) == repr(twin)


def test_surface_walk_of_a_leaf_formula_is_not_kept():
    """A leaf's walk holds the leaf itself, so keeping it would make a reference cycle."""
    for text in ("C", "p | q", "T"):
        f = parse_formula(text)
        first, again = surface_occurrences(f, "leaf"), surface_occurrences(f, "leaf")
        assert first == again and first[0].node is f and first[0] is not again[0], text
        assert f._surface is None and not hasattr(f, "__dict__"), text


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
    "spec, read",
    [
        ("1.x", "1."),
        ("3.", ""),
        ("1.1.1.", "1.1."),
        ("2.1.", "2."),
        ("01.", ""),
        ("\u0661.\u0662.", ""),
    ],
    ids=["resolve-malformed", "resolve-past-end", "resolve-below-atom", "resolve-choice", "resolve-leading-zero",
         "resolve-non-ascii-digit"],
)
def test_paths_and_specs_that_do_not_resolve_name_the_step(spec, read):
    """A spec that addresses no node is read up to the step that does not resolve: a step
    that is no ``1.`` or ``2.``, a step past an atom, or a step into a choice."""
    occ = occurrence_at(ERROR_FORMULA, spec)
    assert occ.spec == read != spec
    assert occ.node is occurrence_at(ERROR_FORMULA, read).node

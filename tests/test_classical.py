import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clbk.classical import countermodel, evaluate, is_valid, satisfiable
from clbk.formula import (
    And,
    Elementary,
    EnvAnn,
    FormulaError,
    Implies,
    Not,
    Or,
    Truth,
    elementary_names,
    parse_formula,
)
from genlib import AGENTS, random_elementary


def test_valid_examples():
    assert is_valid(parse_formula("(p /\\ q) -> (p \\/ q)"))
    assert not is_valid(Implies(Truth(True), Elementary("p")))
    assert is_valid(parse_formula("p \\/ ~p"))


def test_constants():
    assert is_valid(Truth(True))
    assert not is_valid(Truth(False))
    assert not satisfiable(Truth(False))


def test_annotation_is_transparent():
    assert is_valid(EnvAnn(parse_formula("p -> p"), "w"))


def test_rejects_non_elementary():
    with pytest.raises(FormulaError):
        is_valid(parse_formula("P -> P"))
    with pytest.raises(FormulaError):
        satisfiable(parse_formula("p & q"))


def ev(g, val):
    """Independent evaluator for the oracles below: one case per connective."""
    match g:
        case Truth(v):
            return v
        case Elementary(name):
            return val[name]
        case Not(c):
            return not ev(c, val)
        case And(l, rr):
            return ev(l, val) and ev(rr, val)
        case Or(l, rr):
            return ev(l, val) or ev(rr, val)
        case Implies(l, rr):
            return ev(rr, val) if ev(l, val) else True
        case EnvAnn(c, _):
            return ev(c, val)
    raise AssertionError(g)


def _reference_valid(f):
    """Independent oracle: recursive valuation enumeration with ``ev``."""
    names = sorted(elementary_names(f))

    def go(i, val):
        if i == len(names):
            return ev(f, val)
        return go(i + 1, {**val, names[i]: False}) and go(i + 1, {**val, names[i]: True})

    return go(0, {})


def test_agreement_with_truth_table_oracle():
    rng = random.Random(99)
    for _ in range(500):
        f = random_elementary(rng, depth=4)
        assert is_valid(f) == _reference_valid(f)


def test_validity_dual_to_satisfiability():
    rng = random.Random(101)
    for _ in range(200):
        f = random_elementary(rng, depth=4)
        assert is_valid(f) == (not satisfiable(Not(f)))


def test_evaluate_requires_total_valuation():
    f = parse_formula("p -> q")
    assert evaluate(f, {"p": True, "q": True})
    with pytest.raises(KeyError):
        evaluate(f, {"p": True})


def test_evaluate_reads_even_an_atom_the_value_does_not_depend_on():
    with pytest.raises(KeyError):
        evaluate(parse_formula("T \\/ p"), {})


def test_evaluate_rejects_non_elementary():
    for text in ("P -> p", "C_p", "p & q", "p | q"):
        with pytest.raises(FormulaError):
            evaluate(parse_formula(text), {"p": True, "q": True})


def _annotated_elementary(seed, atom_count):
    atoms = tuple(f"p{i}" for i in range(atom_count))
    return random_elementary(random.Random(seed), depth=6, atoms=atoms, agents=AGENTS)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=1, max_value=8))
def test_countermodel_exactly_when_the_oracle_finds_a_false_row(seed, atom_count):
    f = _annotated_elementary(seed, atom_count)
    assert (countermodel(f) is None) == _reference_valid(f)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=1, max_value=8), st.randoms())
def test_evaluate_agrees_with_the_oracle_evaluator(seed, atom_count, rng):
    f = _annotated_elementary(seed, atom_count)
    valuation = {name: rng.random() < 0.5 for name in sorted(elementary_names(f))}
    assert evaluate(f, valuation) is ev(f, valuation)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=1, max_value=8))
def test_countermodel_is_total_and_falsifies(seed, atom_count):
    f = _annotated_elementary(seed, atom_count)
    model = countermodel(f)
    if model is not None:
        assert set(model) == elementary_names(f)
        assert evaluate(f, model) is False


def test_countermodel_examples():
    assert countermodel(parse_formula("(p /\\ q) -> (p \\/ q)")) is None
    assert countermodel(parse_formula("(p /\\ q) -> (p /\\ r)")) == {"p": True, "q": True, "r": False}
    # q folds away with F, yet the model still gives it a value
    assert countermodel(parse_formula("(q /\\ F) \\/ p")) == {"p": False, "q": False}
    assert countermodel(Truth(False)) == {}
    with pytest.raises(FormulaError):
        countermodel(parse_formula("P -> P"))

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clbk import classical
from clbk.classical import countermodel, is_valid
from clbk.formula import (
    Elementary,
    EnvAnn,
    FormulaError,
    Implies,
    Not,
    Truth,
    elementary_names,
    parse_formula,
)
from genlib import AGENTS, evaluate, random_elementary, satisfiable


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


def _reference_valid(f):
    """Independent oracle: recursive valuation enumeration with ``evaluate``."""
    names = sorted(elementary_names(f))

    def go(i, val):
        if i == len(names):
            return evaluate(f, val)
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


def _random_folded(rng, names):
    """A random folded formula over exactly ``names``: each name once and some again, each
    leaf and some inner nodes negated, joined by ``&`` and ``|`` at random."""
    leaves = list(names) + [rng.choice(names) for _ in range(rng.randint(0, len(names)))]
    rng.shuffle(leaves)
    parts = [("~", name) if rng.random() < 0.3 else name for name in leaves]
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        node = (rng.choice("&|"), parts[i], parts[i + 1])
        parts[i : i + 2] = [("~", node) if rng.random() < 0.2 else node]
    return parts[0]


def test_truth_tables_agree_with_quine_up_to_sixteen_atoms(monkeypatch):
    """On folded formulas of 12 to 16 atoms, the bit-parallel table decides validity as
    ``_falsify`` does, and never calls it. The valid ones are ``a | g | ~a`` with ``a`` the
    most frequent atom, on which ``_falsify`` ends after one split."""
    rng = random.Random(107)
    formulas = []
    for _ in range(150):
        names = [f"p{i}" for i in range(rng.randint(12, 16))]
        g = _random_folded(rng, names)
        formulas.append(g)
        formulas.append(("|", ("|", names[0], _random_folded(rng, names + names[:1] * 40)), ("~", names[0])))
    expected = [classical._falsify(g) is None for g in formulas]
    assert set(expected) == {True, False}
    quine = []
    original = classical._falsify
    monkeypatch.setattr(classical, "_falsify", lambda g: quine.append(g) or original(g))
    assert [classical._valid(g) for g in formulas] == expected
    assert quine == []


def test_seventeen_atoms_and_more_take_quine(monkeypatch):
    """Above 16 atoms no table is built: ``_falsify`` decides, called first on the whole
    folded formula."""
    rng = random.Random(109)
    formulas = [_random_folded(rng, [f"p{i}" for i in range(size)]) for size in (17, 18, 24)]
    expected = [classical._falsify(g) is None for g in formulas]
    calls, tables = [], []
    original = classical._falsify
    monkeypatch.setattr(classical, "_falsify", lambda g: calls.append(g) or original(g))
    monkeypatch.setattr(classical, "_table", lambda *args: tables.append(args))
    for g, valid in zip(formulas, expected):
        calls.clear()
        assert classical._valid(g) == valid
        assert calls[0] is g
    assert tables == []

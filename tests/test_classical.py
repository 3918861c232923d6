import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clbk import classical
from clbk.classical import countermodel, is_valid
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


def _wide_elementary(seed, atom_count):
    """An annotated elementary formula in which each of ``atom_count`` atoms occurs: small
    random formulas over them, one per atom and each holding it, joined at random."""
    rng = random.Random(seed)
    atoms = tuple(f"p{i}" for i in range(atom_count))
    parts = [random_elementary(rng, depth=2, atoms=atoms, agents=AGENTS) for _ in atoms]
    parts = [(Or if rng.random() < 0.5 else And)(part, Elementary(name)) for part, name in zip(parts, atoms)]
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i : i + 2] = [rng.choice((And, Or, Implies))(parts[i], parts[i + 1])]
    return parts[0]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=17, max_value=24))
def test_countermodel_is_total_and_falsifies_above_sixteen_atoms(seed, atom_count):
    """Above 16 atoms, where splits lead to tables, the countermodel is still total and
    falsifies, and there is one exactly when the formula is not valid."""
    f = _wide_elementary(seed, atom_count)
    model = countermodel(f)
    assert (model is None) == is_valid(f)
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


def _split_only(monkeypatch, g):
    """``_falsify(g)`` by Quine's splits alone: with no table at any size, the oracle for
    the tables."""
    with monkeypatch.context() as m:
        m.setattr(classical, "_TABLE_ATOMS", 0)
        return classical._falsify(g)


def _folds_to(g, valuation):
    """The folded formula g with every atom of ``valuation`` assigned, folded again."""
    for name, value in valuation.items():
        if type(g) is not bool:
            g = classical._assign(g, name, value)
    return g


def _agrees_with_splitting(monkeypatch, g):
    """Whether ``_falsify(g)`` finds a falsifying valuation exactly when splitting alone
    does, and the one it finds folds g to F. Returns whether g is valid."""
    found = classical._falsify(g)
    assert (found is None) == (_split_only(monkeypatch, g) is None)
    assert found is None or _folds_to(g, found) is False
    return found is None


def test_truth_tables_agree_with_quine_up_to_sixteen_atoms(monkeypatch):
    """On folded formulas of 12 to 16 atoms, the bit-parallel table finds a falsifying row
    exactly when Quine's splits alone find a falsifying branch, and the row it returns folds
    the formula to F. The valid ones are ``a | g | ~a`` with ``a`` the most frequent atom, on
    which splitting ends after one split."""
    rng = random.Random(107)
    formulas = []
    for _ in range(150):
        names = [f"p{i}" for i in range(rng.randint(12, 16))]
        formulas.append(_random_folded(rng, names))
        formulas.append(("|", ("|", names[0], _random_folded(rng, names + names[:1] * 40)), ("~", names[0])))
    assert {_agrees_with_splitting(monkeypatch, g) for g in formulas} == {True, False}


def test_seventeen_atoms_and_more_take_quine(monkeypatch):
    """Above 16 atoms ``_falsify`` splits first, on the whole folded formula, and decides as
    Quine's splits alone do."""
    rng = random.Random(109)
    formulas = [_random_folded(rng, [f"p{i}" for i in range(size)]) for size in (17, 18, 24)]
    for g in formulas:
        splits = []
        original = classical._assign
        with monkeypatch.context() as m:
            m.setattr(classical, "_assign", lambda h, *rest: splits.append(h) or original(h, *rest))
            _agrees_with_splitting(monkeypatch, g)
        assert splits[0] is g


def _record_tables(monkeypatch):
    """The atom count of every truth table ``_falsify`` builds from now on, in order."""
    sizes = []
    original = classical._masks
    monkeypatch.setattr(classical, "_masks", lambda n: sizes.append(n) or original(n))
    return sizes


def test_countermodel_up_to_sixteen_atoms_is_one_table(monkeypatch):
    """Up to 16 atoms, ``countermodel`` and ``is_valid`` build one table over every atom of
    the folded formula and never split."""
    rng = random.Random(113)
    atom_sets = [tuple(f"p{i}" for i in range(n)) for n in range(1, 17) for _ in range(4)]
    formulas = [random_elementary(rng, depth=6, atoms=atoms) for atoms in atom_sets]
    formulas += [parse_formula(" \\/ ".join(f"p{i}" for i in range(16)) + " \\/ ~p3")]
    sizes = _record_tables(monkeypatch)
    monkeypatch.setattr(classical, "_assign", lambda *args: pytest.fail("split at most 16 atoms"))
    verdicts = set()
    for f in formulas:
        g = classical._fold(f)
        if type(g) is bool:
            continue
        count = {}
        classical._count(g, count)
        for decide in (countermodel, is_valid):
            sizes.clear()
            decide(f)
            assert sizes == [len(count)]
        verdicts.add(countermodel(f) is None)
    assert verdicts == {True, False}


def test_above_sixteen_atoms_every_table_has_at_most_sixteen(monkeypatch):
    """Above 16 atoms, splits lead to tables: every table built has at most 16 atoms. The
    40-atom ``G \\/ ~G``, with G a disjunction of 20 two-atom conjunctions, is decided too."""
    rng = random.Random(127)
    formulas = [_random_folded(rng, [f"p{i}" for i in range(size)]) for size in range(17, 25) for _ in range(5)]
    sizes = _record_tables(monkeypatch)
    for g in formulas:
        classical._falsify(g)
    assert sizes and max(sizes) <= 16
    g = " \\/ ".join(f"(p{2 * i} /\\ p{2 * i + 1})" for i in range(20))
    sizes.clear()
    assert is_valid(parse_formula(f"({g}) \\/ ~({g})"))
    assert sizes and max(sizes) <= 16

"""Classical propositional validity of elementary formulas, by Quine's truth-value analysis:
split on an atom, fold the constants, and stop at the first branch that folds to F."""

from __future__ import annotations

from .formula import (
    And,
    Elementary,
    EnvAnn,
    Formula,
    FormulaError,
    Implies,
    Not,
    Or,
    Truth,
    elementary_names,
)

Valuation = dict[str, bool]


def evaluate(f: Formula, valuation: Valuation) -> bool:
    """Truth value of an elementary formula under a total valuation of its atoms: every atom
    is read from ``valuation``, also one the value does not depend on."""
    folded = _fold(f)
    for name in elementary_names(f):
        value = valuation[name]
        if type(folded) is not bool:
            folded = _assign(folded, name, value)
    return folded


def countermodel(f: Formula) -> Valuation | None:
    """A valuation of every atom of f under which f is false, or None when f is valid;
    rejects non-elementary input."""
    found = _falsify(_fold(f))
    if found is None:
        return None
    return {name: found.get(name, False) for name in sorted(elementary_names(f))}


def is_valid(f: Formula) -> bool:
    """True iff f holds under every valuation of its atoms; rejects non-elementary input."""
    return _falsify(_fold(f)) is None


def satisfiable(f: Formula) -> bool:
    """True iff f holds under some valuation of its atoms; rejects non-elementary input."""
    return countermodel(Not(f)) is not None


# A folded formula is a bool, an atom name, or a tuple ("~", a), ("&", a, b) or ("|", a, b)
# over folded formulas that are not bools: a constant never survives below the root.
Folded = bool | str | tuple


def _fold(f: Formula) -> Folded:
    kind = type(f)  # a type test is cheaper than a match, and no subclasses exist
    if kind is And:
        return _and(_fold(f.left), _fold(f.right))
    if kind is Or:
        return _or(_fold(f.left), _fold(f.right))
    if kind is Implies:
        return _or(_not(_fold(f.left)), _fold(f.right))
    if kind is Not:
        return _not(_fold(f.child))
    if kind is Elementary:
        return f.name
    if kind is Truth:
        return f.value
    if kind is EnvAnn:
        return _fold(f.child)
    raise FormulaError("not an elementary formula")


def _not(a: Folded) -> Folded:
    if type(a) is bool:
        return not a
    if type(a) is tuple and a[0] == "~":
        return a[1]
    return ("~", a)


def _and(a: Folded, b: Folded) -> Folded:
    if a is False or b is False:
        return False
    if a is True:
        return b
    return a if b is True else ("&", a, b)


def _or(a: Folded, b: Folded) -> Folded:
    if a is True or b is True:
        return True
    if a is False:
        return b
    return a if b is False else ("|", a, b)


def _assign(g: Folded, name: str, value: bool) -> Folded:
    """g with ``name`` set to ``value``, folded again."""
    if type(g) is str:
        return value if g == name else g
    if g[0] == "~":
        return _not(_assign(g[1], name, value))
    left = _assign(g[1], name, value)
    if g[0] == "&":
        return False if left is False else _and(left, _assign(g[2], name, value))
    return True if left is True else _or(left, _assign(g[2], name, value))


def _count(g: Folded, count: dict[str, int]) -> None:
    """Add the atom occurrences of g to ``count``."""
    if type(g) is str:
        count[g] = count.get(g, 0) + 1
    else:
        for part in g[1:]:
            _count(part, count)


def _falsify(g: Folded) -> Valuation | None:
    """A partial valuation under which g folds to F, or None when there is none. Splits on
    the atom that occurs most often, trying True and then False for it."""
    if type(g) is bool:
        return None if g else {}
    count: dict[str, int] = {}
    _count(g, count)
    name = max(count, key=count.__getitem__)
    for value in (True, False):
        found = _falsify(_assign(g, name, value))
        if found is not None:
            found[name] = value
            return found
    return None

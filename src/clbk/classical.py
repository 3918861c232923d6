"""Classical propositional validity of elementary formulas. A formula is folded first, and the
elementarization of any formula is folded straight from the formula (see ``is_valid``). One
procedure, ``_falsify``, decides validity and finds countermodels: up to ``_TABLE_ATOMS``
atoms, one bit-parallel truth table (Knuth, TAOCP 4A, 7.1.3) whose lowest false row is the
countermodel; above that, Quine's truth-value analysis splits on atoms until a branch fits one."""

from __future__ import annotations

from collections.abc import Callable
from functools import cache

from .formula import (
    And,
    Chand,
    Chor,
    Elementary,
    EnvAnn,
    Formula,
    FormulaError,
    General,
    Hybrid,
    Implies,
    Not,
    Or,
    POSITIVE,
    Truth,
    elementary_names,
)

Valuation = dict[str, bool]


def countermodel(f: Formula) -> Valuation | None:
    """A valuation of every atom of f under which f is false, or None when f is valid;
    rejects non-elementary input. ``_falsify`` decides it, as it decides ``is_valid``; an
    atom the model does not need is false."""
    found = _falsify(_fold(f))
    return None if found is None else {name: found.get(name, False) for name in sorted(elementary_names(f))}


def is_valid(f: Formula, general: GeneralFold | None = None) -> bool:
    """True iff f holds under every valuation of its atoms; rejects non-elementary input.

    With ``general``, the validity of ``f``'s elementarization, folded straight from ``f``
    with no elementarized copy built: each general atom folds to ``general(atom, sign)``,
    its polarity in ``f`` being ``sign``, a hybrid atom to its elementary component, a choice
    conjunction to T and a choice disjunction to F. ``f`` is valid iff ``_false_row`` finds
    no row that makes it false."""
    return _false_row(_fold(f, POSITIVE, general)) is None


# A folded formula is a bool, an atom name, or a tuple ("~", a), ("&", a, b) or ("|", a, b)
# over folded formulas that are not bools: a constant never survives below the root.
Folded = bool | str | tuple

# What a general atom folds to, given the atom and its polarity: a bool or an atom name.
GeneralFold = Callable[[General, int], Folded]


def _fold(f: Formula, sign: int = POSITIVE, general: GeneralFold | None = None) -> Folded:
    """``f`` folded, ``sign`` being its polarity. An elementary ``f`` needs no ``general``;
    with one, ``f`` is read as its elementarization (see ``is_valid``), and without one
    anything else raises ``FormulaError``."""
    kind = type(f)  # a type test is cheaper than a match, and no subclasses exist
    if kind is And:
        return _and(_fold(f.left, sign, general), _fold(f.right, sign, general))
    if kind is Or:
        return _or(_fold(f.left, sign, general), _fold(f.right, sign, general))
    if kind is Implies:
        return _or(_not(_fold(f.left, -sign, general)), _fold(f.right, sign, general))
    if kind is Not:
        return _not(_fold(f.child, -sign, general))
    if kind is Elementary:
        return f.name
    if kind is Truth:
        return f.value
    if kind is EnvAnn:
        return _fold(f.child, sign, general)
    if general is not None:
        if kind is General:
            return general(f, sign)
        if kind is Hybrid:
            return f.elementary
        if kind is Chand or kind is Chor:
            return kind is Chand
    raise FormulaError("not an elementary formula")


# Above this many atoms the 2^n-bit masks of a table grow too large, and Quine's splits come first.
_TABLE_ATOMS = 16


@cache
def _masks(n: int) -> tuple[int, ...]:
    """The mask of all 2^n rows, then, for each i < n, the mask of the rows where bit i is
    set: 2^i clear bits and 2^i set bits, repeated, which is ``full // (2^(2^i) + 1)``
    shifted up by 2^i. Kept for each n up to ``_TABLE_ATOMS``."""
    full = (1 << (1 << n)) - 1
    return full, *(full // ((1 << (1 << i)) + 1) << (1 << i) for i in range(n))


def _table(g: Folded, masks: dict[str, int], full: int) -> int:
    """The rows of the truth table where g is true, given the rows ``masks`` of its atoms."""
    if type(g) is str:
        return masks[g]
    if g[0] == "~":
        return full ^ _table(g[1], masks, full)
    left, right = _table(g[1], masks, full), _table(g[2], masks, full)
    return left & right if g[0] == "&" else left | right


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
    """A valuation of some of g's atoms under which g folds to F, or None when there is none:
    the row ``_false_row`` finds, spelled out."""
    found = _false_row(g)
    if found is None:
        return None
    names, row, splits = found
    valuation = {name: row >> i & 1 == 1 for i, name in enumerate(names)}
    valuation.update(splits)
    return valuation


def _false_row(g: Folded) -> tuple | None:
    """A row under which g folds to F, or None when there is none. The row is no valuation,
    so that ``is_valid`` builds none: it is the table's atoms in order, the row's index in
    that table and the ``(atom, value)`` pairs of the splits that led there. A g of n <=
    ``_TABLE_ATOMS`` atoms is evaluated on all 2^n rows at once: atom i is the 2^n-bit mask
    of the rows where bit i is set, ``~``, ``&`` and ``|`` act on whole masks, and the lowest
    clear bit of the result is the row returned. Above that, split on the atom that occurs
    most often, trying True and then False for it."""
    if type(g) is bool:
        return None if g else ((), 0, ())
    count: dict[str, int] = {}
    _count(g, count)
    if len(count) <= _TABLE_ATOMS:
        full, *masks = _masks(len(count))
        rows = _table(g, dict(zip(count, masks)), full)
        row = (~rows & (rows + 1)).bit_length() - 1  # the lowest clear bit
        return None if rows == full else (count, row, ())
    name = max(count, key=count.__getitem__)
    for value in (True, False):
        found = _false_row(_assign(g, name, value))
        if found is not None:
            names, row, splits = found
            return names, row, (*splits, (name, value))
    return None

"""Classical propositional validity of elementary formulas, by exhaustive truth tables."""

from __future__ import annotations

from itertools import product

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
    Truth,
    elementary_names,
    is_elementary,
)

Valuation = dict[str, bool]


def evaluate(f: Formula, valuation: Valuation) -> bool:
    """Truth value of an elementary formula under a total valuation of its atoms."""
    match f:
        case Truth(v):
            return v
        case Elementary(name):
            return valuation[name]
        case EnvAnn(c, _):
            return evaluate(c, valuation)
        case Not(c):
            return not evaluate(c, valuation)
        case And(l, r):
            return evaluate(l, valuation) and evaluate(r, valuation)
        case Or(l, r):
            return evaluate(l, valuation) or evaluate(r, valuation)
        case Implies(l, r):
            return (not evaluate(l, valuation)) or evaluate(r, valuation)
        case General(_, _) | Hybrid(_, _, _) | Chand(_) | Chor(_):
            raise FormulaError("not an elementary formula")
    raise FormulaError(f"cannot evaluate {f!r}")


def is_valid(f: Formula) -> bool:
    """True iff f holds under every valuation of its atoms; rejects non-elementary input."""
    if not is_elementary(f):
        raise FormulaError("validity is defined for elementary formulas only")
    names = sorted(elementary_names(f))
    return all(evaluate(f, dict(zip(names, bits))) for bits in product((False, True), repeat=len(names)))


def satisfiable(f: Formula) -> bool:
    """True iff f holds under some valuation of its atoms; rejects non-elementary input."""
    return not is_valid(Not(f))

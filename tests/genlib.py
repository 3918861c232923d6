"""Seeded random formula generators shared by the property and acceptance tests, and the
flipped-run oracle for reading a game in swapped roles."""

import random

from clbk.formula import (
    And,
    Chand,
    Chor,
    Elementary,
    EnvAnn,
    General,
    Hybrid,
    Implies,
    Not,
    Note,
    Or,
    Truth,
    surface_leaves,
)

ELEMENTARY = ["p", "q", "r", "s"]
GENERAL = ["P", "Q", "C", "D"]
AGENTS = ["w", "u", "God", "*1", "kiosk9"]
NOTE_NAMES = ["hx", "mk", "req", "sy"]


def flip_run(run):
    """``run`` with every move's player flipped: a negated game's run in its local roles."""
    return tuple(lm.relabeled(lm.player.flip(), lm.spec) for lm in run)


def random_atom(rng: random.Random):
    roll = rng.random()
    if roll < 0.35:
        return Elementary(rng.choice(ELEMENTARY))
    if roll < 0.45:
        return Truth(rng.random() < 0.5)
    if roll < 0.8:
        note = None
        if rng.random() < 0.3:
            note = Note(rng.choice("hs"), rng.choice(NOTE_NAMES))
        return General(rng.choice(GENERAL), note)
    return Hybrid(rng.choice(GENERAL), rng.choice(ELEMENTARY))


# What each prefix is extended by: nothing, a step (past a leaf, or into a choice where the
# prefix names one), steps out of range or with a leading zero, a step without its final
# dot, and steps in Arabic-Indic digits.
_SPEC_TAILS = ("", "1.", "2.", "0.", "3.", "01.", "1", "2", "\u0661.", "\u0662.")


def spec_strings(f):
    """Spec strings to read along ``f``, sorted: each surface leaf's spec and every prefix of
    it that ends at a dot, each followed by every tail of ``_SPEC_TAILS``."""
    prefixes = {""}
    for occ in surface_leaves(f):
        prefixes.update(occ.spec[: i + 1] for i, ch in enumerate(occ.spec) if ch == ".")
    return sorted({prefix + tail for prefix in prefixes for tail in _SPEC_TAILS})


def random_ast(rng: random.Random, depth: int = 6, env_ok: bool = True):
    """Arbitrary well-formed AST (no nested annotations), exercising every constructor."""
    if depth <= 0:
        return random_atom(rng)
    roll = rng.random()
    sub = lambda: random_ast(rng, depth - 1, env_ok)
    if roll < 0.2:
        return random_atom(rng)
    if roll < 0.3:
        return Not(sub())
    if roll < 0.45:
        return And(sub(), sub())
    if roll < 0.6:
        return Or(sub(), sub())
    if roll < 0.72:
        return Implies(sub(), sub())
    if roll < 0.8:
        return Chand(tuple(sub() for _ in range(rng.randint(2, 3))))
    if roll < 0.88:
        return Chor(tuple(sub() for _ in range(rng.randint(2, 3))))
    if env_ok:
        return EnvAnn(random_ast(rng, depth - 1, False), rng.choice(AGENTS))
    return random_atom(rng)


def random_body(rng: random.Random, depth: int = 3, generals=("C", "D")):
    """Plain body over a couple of atoms, no annotations, for prover searches."""
    if depth <= 0:
        if rng.random() < 0.5:
            return Elementary(rng.choice(["p", "q"]))
        return General(rng.choice(generals))
    roll = rng.random()
    sub = lambda: random_body(rng, depth - 1, generals)
    if roll < 0.3:
        return random_body(rng, 0, generals)
    if roll < 0.4:
        return Not(sub())
    if roll < 0.55:
        return And(sub(), sub())
    if roll < 0.68:
        return Or(sub(), sub())
    if roll < 0.82:
        return Implies(sub(), sub())
    if roll < 0.91:
        return Chand((sub(), sub()))
    return Chor((sub(), sub()))


def random_elementary(rng: random.Random, depth: int = 4, atoms=("p", "q", "r"), agents=()):
    """Elementary formula over ``atoms`` with truth constants; when ``agents`` is given,
    some subformulas are wrapped in an annotation against one of them."""
    if depth <= 0:
        return Elementary(rng.choice(atoms))
    sub = lambda: random_elementary(rng, depth - 1, atoms, agents)
    if agents and rng.random() < 0.1:
        return EnvAnn(sub(), rng.choice(agents))
    roll = rng.random()
    if roll < 0.3:
        return Elementary(rng.choice(atoms))
    if roll < 0.35:
        return Truth(rng.random() < 0.5)
    if roll < 0.5:
        return Not(sub())
    if roll < 0.68:
        return And(sub(), sub())
    if roll < 0.86:
        return Or(sub(), sub())
    return Implies(sub(), sub())


def random_provable(rng: random.Random, count: int, need_pairing: bool = False, max_tries: int = 20_000):
    """Random provable annotated formulas, found by search; optionally only those whose
    proof pairs general atoms."""
    from clbk.prover import RuleC, prove

    found = []
    tries = 0
    while len(found) < count and tries < max_tries:
        tries += 1
        if rng.random() < 0.5:
            body = random_body(rng, rng.randint(1, 2))
            candidate = Implies(body, body)
        else:
            candidate = random_body(rng, rng.randint(2, 3))
        f = EnvAnn(candidate, rng.choice(["w", "u"]))
        tree = prove(f)
        if tree is None:
            continue
        if need_pairing and not any(isinstance(r, RuleC) for r in tree.rules_preorder()):
            continue
        found.append((f, tree))
    if len(found) < count:
        raise RuntimeError(f"generator exhausted: found {len(found)} of {count}")
    return found

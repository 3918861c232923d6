"""Seeded random formula generators shared by the property and acceptance tests, and the
reference definitions the tests check the package against: path queries and a path-based
replacement (the package addresses an occurrence by its spec alone), elementarization,
classical evaluation, the termination measure, the machine-choice premises, the flipped run
and the engine's former seat poll, which scans every binding. Each is written from its
definition by plain recursion over public ``clbk`` names, so that it stays independent of
the code it checks."""

import random
from itertools import product

from clbk.formula import (
    ATOM_KINDS,
    BINARY_KINDS,
    CHOICE_KINDS,
    NEGATIVE,
    POSITIVE,
    And,
    Chand,
    Chor,
    Elementary,
    EnvAnn,
    FormulaError,
    General,
    Hybrid,
    Implies,
    Not,
    Note,
    Or,
    Truth,
    children,
    elementary_names,
    env_chooses,
    rebuild,
    surface_leaves,
    transform,
)
from clbk.games import Labmove, Player
from clbk.prover import BranchPremise, RuleC, prove

ELEMENTARY = ["p", "q", "r", "s"]
GENERAL = ["P", "Q", "C", "D"]
AGENTS = ["w", "u", "God", "*1", "kiosk9"]
NOTE_NAMES = ["hx", "mk", "req", "sy"]


def flip_run(run):
    """``run`` with every move's player flipped: a negated game's run in its local roles."""
    return tuple(lm.relabeled(lm.player.flip(), lm.spec) for lm in run)


# --- reference definitions ----------------------------------------------------


def trail(f, path):
    """The nodes ``path`` passes through, from ``f`` to the node it addresses."""
    nodes = [f]
    for step in path:
        nodes.append(children(nodes[-1])[step - 1])
    return nodes


def child_at(f, path):
    return trail(f, path)[-1]


def replace_at(f, path, g):
    """``f`` with the node at ``path`` replaced by ``g``; every node off ``path`` is kept."""
    if not path:
        return g
    kids = list(children(f))
    kids[path[0] - 1] = replace_at(kids[path[0] - 1], path[1:], g)
    return rebuild(f, kids)


def leaf_paths(f, path=()):
    """The path of each surface leaf of ``f`` (an atom, a truth constant or a choice not under
    a choice operator), left to right: the order of ``surface_leaves``."""
    if isinstance(f, (*ATOM_KINDS, *CHOICE_KINDS)):
        return [path]
    return [leaf for i, kid in enumerate(children(f), start=1) for leaf in leaf_paths(kid, path + (i,))]


def path_to(f, spec):
    """The path of the surface leaf of ``f`` whose ``specification`` is ``spec``, or None."""
    return next((path for path in leaf_paths(f) if specification(f, path) == spec), None)


def polarity(f, path):
    """POSITIVE or NEGATIVE: the parity of the negations and implication antecedents the
    path enters."""
    steps = zip(trail(f, path), path)
    flips = sum(isinstance(node, Not) or (isinstance(node, Implies) and step == 1) for node, step in steps)
    return NEGATIVE if flips % 2 else POSITIVE


def specification(f, path):
    """The spec of the node at ``path``: one ``1.`` or ``2.`` per binary connective the path
    passes. A path through a choice has no spec and raises ``FormulaError``."""
    parts = []
    for node, step in zip(trail(f, path), path):
        if isinstance(node, CHOICE_KINDS):
            raise FormulaError("path crosses a choice operator")
        if isinstance(node, BINARY_KINDS):
            parts.append(f"{step}.")
    return "".join(parts)


def skeleton(f):
    """``f`` with every environment annotation stripped."""
    return transform(f, lambda n: n.child if isinstance(n, EnvAnn) else n)


def elementarize(f, backed=lambda g: False, names=False):
    """The elementarization of ``f``: a choice conjunction becomes T and a choice disjunction
    F, a hybrid its elementary component, and a general atom T when it is negative or a
    positive one ``backed`` holds for, else F. With ``names``, a general atom that is not a
    backed positive one becomes the elementary atom named after it instead."""

    def walk(node, sign):
        if isinstance(node, General):
            if sign == POSITIVE and backed(node):
                return Truth(True)
            return Elementary(node.name) if names else Truth(sign == NEGATIVE)
        if isinstance(node, Hybrid):
            return Elementary(node.elementary)
        if isinstance(node, CHOICE_KINDS):
            return Truth(isinstance(node, Chand))
        if isinstance(node, Not):
            return Not(walk(node.child, -sign))
        if isinstance(node, Implies):
            return Implies(walk(node.left, -sign), walk(node.right, sign))
        return rebuild(node, [walk(k, sign) for k in children(node)])

    return walk(f, POSITIVE)


def is_elementary(f):
    """No choice operator, general atom or hybrid atom anywhere in ``f``."""
    return not isinstance(f, (General, Hybrid, *CHOICE_KINDS)) and all(map(is_elementary, children(f)))


def evaluate(f, valuation):
    """The truth value of the elementary formula ``f`` under ``valuation``, which must give
    every atom of ``f``, also one the value does not depend on; any other formula raises
    ``FormulaError``."""
    if isinstance(f, Truth):
        return f.value
    if isinstance(f, Elementary):
        return valuation[f.name]
    if isinstance(f, (Not, EnvAnn)):
        value = evaluate(f.child, valuation)
        return not value if isinstance(f, Not) else value
    if isinstance(f, BINARY_KINDS):
        left, right = evaluate(f.left, valuation), evaluate(f.right, valuation)
        if isinstance(f, And):
            return left and right
        return left or right if isinstance(f, Or) else not left or right
    raise FormulaError("not an elementary formula")


def satisfiable(f):
    """Whether some valuation of the atoms of the elementary formula ``f`` makes it true."""
    names = sorted(elementary_names(f))
    return any(evaluate(f, dict(zip(names, row))) for row in product((False, True), repeat=len(names)))


def measure(f):
    """Choice operators plus general-atom occurrences: every rule's premise has fewer than its
    conclusion."""
    return isinstance(f, (General, *CHOICE_KINDS)) + sum(map(measure, children(f)))


def premises_B(f):
    """One premise per branch of each surface choice the machine picks: a negative choice
    conjunction or a positive choice disjunction."""
    return [
        BranchPremise(occ.spec, i, occ.env, replace_at(f, path, part))
        for occ, path in zip(surface_leaves(f), leaf_paths(f))
        if isinstance(occ.node, CHOICE_KINDS) and not env_chooses(occ)
        for i, part in enumerate(occ.node.parts, start=1)
    ]


def rules_preorder(tree):
    """The rules of a proof tree, each node's before its premises'."""
    return [tree.rule] + [rule for premise in tree.premises for rule in rules_preorder(premise)]


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
        if need_pairing and not any(isinstance(r, RuleC) for r in rules_preorder(tree)):
            continue
        found.append((f, tree))
    if len(found) < count:
        raise RuntimeError(f"generator exhausted: found {len(found)} of {count}")
    return found


def illegal_moves(session):
    """The moves filed at ``session``'s bindings that their games forbid, as ``(spec, str(move))``
    in binding and run order: each binding's ``local`` run is replayed move by move through
    ``GameDef.legal`` at the binding's machine seat. A move after an illegal one is judged on
    the run as filed, the illegal move included."""
    found = []
    for spec, binding in session.bindings.items():
        for i, lm in enumerate(binding.local):
            if not binding.game.legal(binding.local[:i], lm, binding.machine):
                found.append((spec, str(lm)))
    return found


def full_scan_seat_move(session, player):
    """The engine's former ``_seat_move``, kept as an oracle: each poll scans every binding in
    order for a seat of ``player`` with a strategy, where the engine polls only the bindings
    that hold one."""
    env = player is Player.ENVIRONMENT
    for binding in session.bindings.values():
        if player is not binding.machine:
            script = binding.script
            if script is not None and binding.script_pos < len(script.moves):
                move = script.moves[binding.script_pos].relabeled(player, binding.spec)
                if env or binding.game.legal(binding.local, move, binding.machine):
                    binding.script_pos += 1
                    return move
        elif binding.heuristic is not None and binding.heuristic_idle_at != len(binding.local):
            # a move was filed since it last passed
            payload = binding.heuristic(binding.local, binding.machine)
            if payload is not None:
                binding.heuristic_fired = True
                return Labmove(player, binding.spec, payload)
            binding.heuristic_idle_at = len(binding.local)
    return None

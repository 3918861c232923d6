"""Record semantics: every formula kind and every immutable record compares and hashes as the
tuple of its fields, tells kinds with equal fields apart, refuses assignment and deletion,
prints its fields, matches them positionally, and copies and pickles through them; mutable
records compare by field too."""

import copy
import os
import pickle
import subprocess
import sys
from math import inf
from pathlib import Path

import pytest

import clbk
from clbk.agents import HeuristicWin, MoveMsg
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
    children,
    parse_formula,
    surface_occurrences,
)
from clbk.games import GameDef, Labmove, Player, Script
from clbk.prover import BranchPremise, ProofTree, RuleA, RuleB, RuleC, format_proof, hybridize, prove

# one formula holding every formula kind, and a note
EVERY_KIND = "((p | C{h=x}) \\/ (C & D_q)) -> ~T /\\ (E @ w)"
EVERY_KIND_REPR = (
    "Implies(left=Or(left=Chor(parts=(Elementary(name='p'), General(name='C', note=Note(kind='h', name='x')))), "
    "right=Chand(parts=(General(name='C', note=None), Hybrid(name='D', elementary='q', note=None)))), "
    "right=And(left=Not(child=Truth(value=True)), right=EnvAnn(child=General(name='E', note=None), agent='w')))"
)


def _nodes(f):
    yield f
    for child in children(f):
        yield from _nodes(child)


def _game(name):
    return GameDef(name, (("v", 5),), "r", (0, inf), abs)


def _immutable_records():
    """Two instances of each immutable record class: the formula kinds and their note from
    ``EVERY_KIND`` and a variant of it, then the prover's, the games' and the bus's records."""
    f, g = parse_formula(EVERY_KIND), parse_formula(EVERY_KIND.replace("q", "r").replace("x", "y"))
    pairs = list(zip(_nodes(f), _nodes(g)))
    pairs.append((f.left.left.parts[1].note, g.left.left.parts[1].note))
    pairs += [
        (RuleA(), RuleA()),
        (RuleB("1.", 0, None), RuleB("1.", 1, "w")),
        (RuleC("1.", "2.", "c1"), RuleC("1.", "2.", "c2")),
        (BranchPremise("1.", 0, None, f), BranchPremise("1.", 0, None, g)),
        (Labmove(Player.MACHINE, "1.", "x=3"), Labmove(Player.ENVIRONMENT, "1.", "x=3")),
        (Script(("x=3",)), Script(("x=3", "y=1"))),
        (_game("dollar"), _game("cash")),
        (MoveMsg("a:1", Labmove(Player.MACHINE, "", "1")), MoveMsg("a:2", Labmove(Player.MACHINE, "", "1"))),
    ]
    return pairs


def _fields(x):
    return tuple(getattr(x, name) for name in type(x).__match_args__)


def _matched(x):
    """``x``'s fields as positional ``match`` patterns capture them."""
    match x:
        case Truth(value):
            return (value,)
        case Elementary(name):
            return (name,)
        case General(name, note):
            return (name, note)
        case Hybrid(name, elementary, note):
            return (name, elementary, note)
        case Not(child):
            return (child,)
        case And(left, right) | Or(left, right) | Implies(left, right):
            return (left, right)
        case Chand(parts) | Chor(parts):
            return (parts,)
        case EnvAnn(child, agent):
            return (child, agent)
        case Note(kind, name):
            return (kind, name)
        case RuleA():
            return ()
        case RuleB(spec, branch, env):
            return (spec, branch, env)
        case RuleC(pos_spec, neg_spec, name):
            return (pos_spec, neg_spec, name)
        case BranchPremise(spec, branch, env, formula):
            return (spec, branch, env, formula)
        case Labmove(player, spec, payload):
            return (player, spec, payload)
        case Script(payloads):
            return (payloads,)
        case GameDef(name, asks, answer, answer_range, correct):
            return (name, asks, answer, answer_range, correct)
        case MoveMsg(session_id, move):
            return (session_id, move)


def test_every_formula_kind_prints_as_before():
    f = parse_formula(EVERY_KIND)
    assert repr(f) == EVERY_KIND_REPR
    kinds = {type(node) for node in _nodes(f)}
    assert kinds == {Truth, Elementary, General, Hybrid, Not, And, Or, Implies, Chand, Chor, EnvAnn}


def test_immutable_records_compare_hash_and_match_by_their_fields():
    pairs = _immutable_records()
    assert len({type(x) for x, _ in pairs}) == 20
    for x, y in pairs:
        twin = type(x)(*_fields(x))
        assert x == twin and hash(x) == hash(twin) == hash(_fields(x)) and repr(x) == repr(twin), x
        assert (x == y) == (_fields(x) == _fields(y)) and (x != y) == (_fields(x) != _fields(y)), x
        assert hash(y) == hash(_fields(y)), y
        assert _matched(x) == _fields(x) and x != _fields(x), x
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(type(x).__match_args__, _fields(x)))
        assert repr(x) == f"{type(x).__name__}({fields})"


def test_kinds_with_equal_fields_are_unequal():
    a, b = Elementary("p"), General("C")
    binaries = [And(a, b), Or(a, b), Implies(a, b)]
    choices = [Chand((a, b)), Chor((a, b))]
    for group in (binaries, choices, [RuleB("1.", 0, None), RuleB("1.", 0, None)]):
        for x in group:
            for y in group:
                assert (x == y) == (type(x) is type(y)), (x, y)
    assert Not(a) != EnvAnn(a, "w") and Elementary("C") != General("C") and Note("h", "x") != ("h", "x")


def test_immutable_records_refuse_assignment_and_deletion():
    for x, _ in _immutable_records():
        for name in (*type(x).__match_args__, "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert not hasattr(x, "__dict__"), x


def test_mutable_records_compare_by_field_and_are_unhashable():
    f = parse_formula("p -> p")
    win = HeuristicWin("f", "C", "m:1", "1.", ("x=2",))
    assert win == HeuristicWin("f", "C", "m:1", "1.", ("x=2",)) != HeuristicWin("f", "C", "m:2", "1.", ("x=2",))
    assert ProofTree(f, RuleA()) == ProofTree(parse_formula("p -> p"), RuleA(), ())
    assert ProofTree(f, RuleA()) != ProofTree(f, RuleB("", 0, None))
    assert repr(ProofTree(f, RuleA())).startswith("ProofTree(conclusion=Implies(") and repr(win) == (
        "HeuristicWin(agent='f', atom='C', session_id='m:1', spec='1.', payloads=('x=2',))"
    )
    for record in (win, ProofTree(f, RuleA())):
        with pytest.raises(TypeError):
            hash(record)


def test_importing_the_command_line_generates_no_code():
    """Importing ``clbk.cli`` in a fresh interpreter loads neither ``dataclasses`` nor
    ``inspect``: no record class has methods generated and ``exec``-ed at import."""
    src = Path(clbk.__file__).resolve().parent.parent
    probe = "import sys, clbk.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout == "[]\n"


def _copies(x):
    return copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))


def test_immutable_records_and_proofs_copy_and_pickle_through_their_fields():
    proof = hybridize(prove(parse_formula("(((p | C) \\/ (C & D)) -> ((p | C) \\/ (C & D))) @ w")))
    assert "C_q" in format_proof(proof)  # its leaves hold hybrid atoms
    for x in [*(x for pair in _immutable_records() for x in pair), proof]:
        for clone in _copies(x):
            assert type(clone) is type(x) and clone == x and repr(clone) == repr(x), x


def test_a_copied_record_derives_what_its_fields_give_and_keeps_no_cache():
    for move in _copies(Labmove(Player.MACHINE, "1.", "x=3")):
        assert (move.key, move.value) == ("x", 3)
    for script in _copies(Script(("x=3", "y=1"))):
        assert script.moves == Script(("x=3", "y=1")).moves
    f = parse_formula("(C -> C) @ w")
    surface_occurrences(f, "leaf")
    assert f._surface is not None
    for clone in _copies(f):
        assert clone._surface is None and clone == f


def test_a_shared_subtree_is_matched_by_identity_past_the_recursion_limit():
    shared = Elementary("p")
    for _ in range(5000):  # past the recursion limit, so only an identity match ends a comparison
        shared = Not(shared)
    builders = [
        lambda name: And(Not(shared), Elementary(name)),
        lambda name: EnvAnn(shared, name),
        *(lambda name, kind=kind: kind(shared, Elementary(name)) for kind in (And, Or, Implies)),
        *(lambda name, kind=kind: kind((Elementary(name), shared)) for kind in (Chand, Chor)),
    ]
    for build in builders:
        x, y, z = build("q"), build("q"), build("r")
        assert x is not y and x == y and not x != y, type(x)
        assert x != z and not x == z, type(x)

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

from clbk import engine
from clbk.engine import EngineError, Status
from clbk.formula import (
    And,
    Chand,
    Chor,
    Elementary,
    EnvAnn,
    General,
    Hybrid,
    Implies,
    NEGATIVE,
    Not,
    Or,
    POSITIVE,
    SPEC_RE,
    Truth,
    env_chooses,
    parse_formula,
    print_formula,
    surface_occurrences,
)
from clbk.games import Labmove, Player, Script, coffee_game, dollar_game
from clbk.prover import ProofTree, RuleA, RuleB, RuleC, hybridize, premises_A, prove
from genlib import flip_run, premises_B, random_ast, random_provable

T, B = Player.MACHINE, Player.ENVIRONMENT
COFFEE = coffee_game(10)


def coffee_session(src="(C /\\ C) -> (C \\/ C) @ w", **kwargs):
    tree = hybridize(prove(parse_formula(src)))
    return engine.new_session(tree, games={"C": COFFEE, "D": dollar_game(5)}, **kwargs)


def listen(s):
    """Collect every move the session plays from now on."""
    heard = []
    s.listener = lambda _session, lm: heard.append(str(lm))
    return heard


def test_new_session_binds_every_occurrence():
    s = coffee_session()
    assert sorted(s.bindings) == ["1.1.", "1.2.", "2.1.", "2.2."]


def test_new_session_without_atoms_needs_no_bindings():
    tree = prove(parse_formula("p -> p"))
    s = engine.new_session(tree)
    assert s.bindings == {}


def test_new_session_missing_game_errors():
    tree = hybridize(prove(parse_formula("(D -> D) @ w")))
    with pytest.raises(EngineError, match="no game bound"):
        engine.new_session(tree, games={"C": COFFEE})


def test_machine_turn_on_fresh_pairing_proof_emits_nothing():
    s = coffee_session()
    heard = listen(s)
    assert engine.machine_turn(s) is False
    assert heard == []
    assert isinstance(s.node.rule, RuleA)
    assert s.run == []


def test_machine_turn_replays_pending_subrun_on_pairing():
    s = coffee_session()
    s.append(Labmove(B, "1.1.", "x=3"))
    heard = listen(s)
    assert engine.machine_turn(s) is True
    assert heard == ["T2.1.x=3"]
    assert [str(lm) for lm in s.run] == ["B1.1.x=3", "T2.1.x=3"]


def test_machine_turn_choice_commitment():
    s = engine.new_session(prove(parse_formula("((p & q) -> p) @ w")))
    heard = listen(s)
    assert engine.machine_turn(s) is True
    assert heard == ["T1.1"]
    assert s.formula == parse_formula("(p -> p) @ w")


def test_machine_turn_second_branch_commitment():
    s = engine.new_session(prove(parse_formula("((p & q) -> q) @ w")))
    heard = listen(s)
    assert engine.machine_turn(s) is True
    assert heard == ["T1.2"]


def test_a_resolved_choices_atom_starts_with_an_empty_run():
    """The choice move stays in the session's run; the atom the choice resolves to is bound
    afresh, so its local run and the copy-cat replay from it hold only the game's own moves."""
    s = coffee_session("((C & D) -> C) @ w")
    s.bindings["2."].script = Script(("x=3", "y=1"))
    engine.run_to_quiescence(s)
    assert [str(lm) for lm in s.run] == ["T1.1", "B2.x=3", "T1.x=3", "B2.y=1", "T1.y=1"]
    assert [str(lm) for lm in s.local_run("1.")] == ["B1.x=3", "B1.y=1"]


def test_env_move_requires_environment_label():
    s = coffee_session()
    engine.machine_turn(s)
    heard = listen(s)
    assert engine.move_refusal(s, Labmove(T, "2.1.", "x=3")) == "not an environment move"
    engine.env_move(s, Labmove(T, "2.1.", "x=3"))
    assert heard == []
    assert s.run == []


def test_step_plays_a_script_before_a_standin_heuristic():
    s = coffee_session("(C -> C) @ w")
    for occ in surface_occurrences(s.formula, "atom"):
        binding = s.bindings[occ.spec]
        if occ.polarity == POSITIVE:
            binding.script = Script(("x=3",))
        else:
            binding.heuristic = binding.game.default_heuristic
    engine.machine_turn(s)
    heard = listen(s)
    assert engine.step(s) is True
    assert heard[0] == "B2.x=3"


def test_env_move_at_general_atom_is_recorded():
    s = engine.new_session(hybridize(prove(parse_formula("((C -> C) \\/ D) @ w"))), games={"C": COFFEE, "D": dollar_game(5)})
    engine.machine_turn(s)
    unpaired = [o.spec for o in surface_occurrences(s.formula, "general")]
    assert unpaired == ["2."]
    heard = listen(s)
    engine.env_move(s, Labmove(B, "2.", "v=1"))
    assert heard == ["B2.v=1"]
    assert [str(lm) for lm in s.run] == ["B2.v=1"]


def test_env_move_copycat_at_hybrid():
    s = coffee_session()
    engine.machine_turn(s)
    heard = listen(s)
    engine.env_move(s, Labmove(B, "2.1.", "x=3"))
    assert heard == ["B2.1.x=3", "T1.1.x=3"]
    assert [str(lm) for lm in s.run] == ["B2.1.x=3", "T1.1.x=3"]


def test_env_move_choice_triggers_machine_reply():
    s = engine.new_session(prove(parse_formula("((p & q) -> (p & q)) @ w")))
    engine.machine_turn(s)
    heard = listen(s)
    engine.env_move(s, Labmove(B, "2.", "1"))
    assert heard == ["B2.1", "T1.1"]
    assert s.formula == parse_formula("(p -> p) @ w")
    assert [str(lm) for lm in s.run] == ["B2.1", "T1.1"]


def test_env_move_ignores_unmatched_moves():
    s = coffee_session()
    engine.machine_turn(s)
    heard = listen(s)
    engine.env_move(s, Labmove(B, "9.9.", "x=1"))
    engine.env_move(s, Labmove(B, "1.", "7"))
    assert heard == []
    assert s.run == []


@pytest.mark.parametrize(
    "src, moves, reason",
    [
        ("(C /\\ C) -> (C \\/ C) @ w", ["9.9.x=1"], "no occurrence there"),
        ("(C /\\ C) -> (C \\/ C) @ w", ["1.7"], "no choice there"),
        ("(C /\\ C) -> (C \\/ C) @ w", ["1.x=1"], "no game there"),
        ("(C -> C) @ w", ["x=3"], "no game there"),
        ("((p & q) -> (p & q)) @ w", ["2.3"], "no branch 3"),
        ("((p & q) -> (p & q)) @ w", ["2.0"], "no branch 0"),
        ("((p & q) -> (p & q)) @ w", ["1.1"], "the machine's choice"),
        ("((p & q) -> (p & q)) @ w", ["2.1", "2.2"], "no choice there"),
        ("((p & q) -> (p & q)) @ w", ["2.1", "x=1"], "no game there"),
        ("C_p \\/ ~p", ["1.x=3"], "no copy-cat partner"),
    ],
    ids=["no-occurrence", "choice-at-a-connective", "move-at-a-connective", "move-at-the-root", "branch-3",
         "branch-0", "machine-choice", "resolved-choice", "move-at-a-resolved-root", "lone-hybrid"],
)
def test_move_refusal_names_why_env_move_ignores_a_move(src, moves, reason):
    """``env_move`` applies the moves before the last, for which ``move_refusal`` gives None,
    and ignores the last, for which it gives the reason: the session neither moves nor plays."""
    s = coffee_session(src)
    engine.machine_turn(s)
    *played, last = [Labmove(B, *_split(text)) for text in moves]
    for lm in played:
        assert engine.move_refusal(s, lm) is None
        engine.env_move(s, lm)
    node, run, heard = s.node, list(s.run), listen(s)
    assert engine.move_refusal(s, last) == reason
    engine.env_move(s, last)
    assert (heard, s.run, s.node) == ([], run, node)


def test_move_refusal_refuses_a_choice_before_play_reaches_a_closure_node():
    """Before ``machine_turn`` walks the pairing at the root, an environment choice has no
    closure premise to enter; once play rests at the closure node, it enters one."""
    s = coffee_session("((C -> C) /\\ ((p & q) -> (p & q))) @ w")
    lm = Labmove(B, "2.2.", "1")
    assert engine.move_refusal(s, lm) == "not at a closure node"
    engine.env_move(s, lm)
    assert s.run == [] and isinstance(s.node.rule, RuleC)
    engine.machine_turn(s)
    assert engine.move_refusal(s, lm) is None
    engine.env_move(s, lm)
    assert [str(m) for m in s.run] == ["B2.2.1", "T2.1.1"]


def _split(text):
    """A move line's (spec, payload), as ``clbk play --interactive`` splits it."""
    spec = SPEC_RE.match(text).group()
    return spec, text[len(spec):]


def test_env_choice_enters_the_premise_listed_by_premises_A(monkeypatch):
    """At the first closure node of a proof, each branch ``premises_A`` lists, chosen by the
    environment, enters the premise at that entry's position, whose conclusion is the entry's
    formula. An out-of-range branch, a machine-owned choice and a choice payload at an atom
    record no move."""
    entered = []
    enter = engine._enter
    monkeypatch.setattr(engine, "_enter", lambda session, node: entered.append(node) or enter(session, node))
    games = {"C": COFFEE, "D": dollar_game(5)}
    seen = Counter()
    rng = random.Random(37)
    for f, tree in random_provable(rng, 80):
        tree = hybridize(tree)

        def at_closure():
            s = engine.new_session(tree, games=games)
            engine.machine_turn(s)
            return s

        s = at_closure()
        node = s.node
        for k, entry in enumerate(premises_A(s.formula)):
            s = at_closure()
            entered.clear()
            assert engine.move_refusal(s, Labmove(B, entry.spec, str(entry.branch))) is None
            engine.env_move(s, Labmove(B, entry.spec, str(entry.branch)))
            assert entered[0] is node.premises[k], print_formula(f)
            assert entered[0].conclusion == entry.formula
            seen["routed"] += 1
        s = at_closure()
        branches = Counter(e.spec for e in premises_A(s.formula))
        refused = [("out of range", spec, str(n + 1)) for spec, n in branches.items()]
        refused += [("machine-owned", e.spec, str(e.branch)) for e in premises_B(s.formula)]
        refused += [("atom", spec, "1") for spec in s.atoms]
        reasons = {"machine-owned": "the machine's choice", "atom": "no choice there"}
        played = list(s.run)
        heard = listen(s)
        for kind, spec, payload in refused:
            assert engine.move_refusal(s, Labmove(B, spec, payload)) == reasons.get(kind, f"no branch {payload}")
            engine.env_move(s, Labmove(B, spec, payload))
            assert heard == [] and s.run == played and s.node is node, (kind, print_formula(f))
            seen[kind] += 1
    assert set(seen) == {"routed", "out of range", "machine-owned", "atom"}, seen


def test_step_plays_a_script_then_rests_quiescent():
    s = coffee_session("(C -> C) @ w", scripts={"req": Script(("x=3", "y=1"))})
    for occ in surface_occurrences(s.formula, "atom"):
        if occ.polarity == POSITIVE:
            s.bindings[occ.spec].script = Script(("x=3", "y=1"))
    engine.machine_turn(s)
    heard = listen(s)
    assert engine.step(s) is True
    assert heard == ["B2.x=3", "T1.x=3"]
    assert engine.step(s) is True
    assert heard[2:] == ["B2.y=1", "T1.y=1"]
    assert engine.step(s) is False
    assert s.status is Status.QUIESCENT


def test_step_plays_a_delivered_move_first():
    s = coffee_session("(C -> C) @ w")
    for occ in surface_occurrences(s.formula, "atom"):
        if occ.polarity == POSITIVE:
            s.bindings[occ.spec].script = Script(("x=9",))
    engine.machine_turn(s)
    s.deliver(Labmove(B, "2.", "x=1"))
    heard = listen(s)
    assert engine.step(s) is True
    assert heard[0] == "B2.x=1"


def _quiescent_session(src, games=None, run=()):
    """A session resting at an unchecked closure node over ``src`` after ``run`` was played:
    ``new_session`` checks every proof, so the check is patched to accept this leaf."""
    f = parse_formula(src)
    with mock.patch.object(engine, "verify_proof", return_value=True):
        s = engine.new_session(ProofTree(f, RuleA(), ()), games=games)
    for lm in run:
        s.append(lm)
    s.status = Status.QUIESCENT
    return s


def test_evaluate_requires_quiescence():
    s = coffee_session()
    with pytest.raises(EngineError, match="quiescence"):
        engine.evaluate_winner(s)


def test_a_finished_session_takes_no_step():
    """Once its winner is evaluated, a session plays nothing more, not even a delivered move."""
    s = coffee_session("(C -> C) @ w")
    s.bindings["2."].script = Script(("x=3",))
    engine.run_to_quiescence(s)
    engine.evaluate_winner(s)
    played = list(s.run)
    s.deliver(Labmove(B, "2.", "y=1"))
    assert engine.step(s) is False
    assert s.run == played and s.status is Status.FINISHED


def test_evaluate_completed_coffee_run():
    s = _quiescent_session("C", games={"C": COFFEE}, run=[Labmove(B, "", "x=3"), Labmove(B, "", "y=1"), Labmove(T, "", "z=4")])
    assert engine.evaluate_winner(s) is T


def test_evaluate_losing_coffee_run():
    s = _quiescent_session("C", games={"C": COFFEE}, run=[Labmove(B, "", "x=3"), Labmove(B, "", "y=1"), Labmove(T, "", "z=5")])
    assert engine.evaluate_winner(s) is B


def test_evaluate_elementary_default_interpretation():
    s = _quiescent_session("p -> p")
    assert engine.evaluate_winner(s) is T


def test_evaluate_unplayed_parallel_coffees_pin():
    s = _quiescent_session("C \\/ C", games={"C": COFFEE})
    assert engine.evaluate_winner(s) is T


def test_evaluate_unresolved_choices():
    assert engine.evaluate_winner(_quiescent_session("p & q")) is T
    assert engine.evaluate_winner(_quiescent_session("p | q")) is B
    assert engine.evaluate_winner(_quiescent_session("~(p & q)")) is B


def test_evaluate_flips_subrun_labels_in_antecedent():
    run = [
        Labmove(T, "1.", "x=3"),
        Labmove(T, "1.", "y=4"),
        Labmove(B, "1.", "z=10"),
        Labmove(B, "2.", "x=1"),
        Labmove(B, "2.", "y=1"),
    ]
    s = _quiescent_session("C -> C", games={"C": COFFEE}, run=run)
    assert engine.evaluate_winner(s) is T


def _drive_with_scripts(tree, rng):
    """Bind random challenge scripts on positive atoms and stand-in heuristics on negative
    ones, then play to quiescence, resolving environment choices at random."""
    session = engine.new_session(tree, games={"C": COFFEE, "D": dollar_game(5)})
    for binding in session.bindings.values():
        if binding.polarity == POSITIVE:
            roll = rng.random()
            if roll < 0.2:
                binding.script = Script(())
            elif roll < 0.4:
                binding.script = Script((f"x={rng.randint(1, 3)}",))
            else:
                binding.script = Script((f"x={rng.randint(1, 4)}", f"y={rng.randint(1, 3)}"))
        else:
            binding.heuristic = binding.game.default_heuristic
    for _ in range(200):
        engine.run_to_quiescence(session)
        choices = [
            occ
            for occ in surface_occurrences(session.formula, "choice")
            if (occ.polarity == POSITIVE) == (type(occ.node).__name__ == "Chand")
        ]
        if not choices:
            break
        occ = rng.choice(choices)
        session.deliver(Labmove(B, occ.spec, str(rng.randint(1, len(occ.node.parts)))))
    return session


def _assert_copycat(session):
    hybrids = {}
    for occ in surface_occurrences(session.formula, "hybrid"):
        hybrids.setdefault(occ.node.elementary, []).append(occ)
    for name, occs in hybrids.items():
        assert len(occs) == 2, name
        a = [m for m in engine.subrun(tuple(session.run), occs[0].spec) if not m.is_choice()]
        b = [m for m in engine.subrun(tuple(session.run), occs[1].spec) if not m.is_choice()]
        assert [m.payload for m in a] == [m.payload for m in b]
        assert all(x.player is y.player.flip() for x, y in zip(a, b))


def test_copycat_identity_game():
    s = coffee_session("(C -> C) @ w")
    for binding in s.bindings.values():
        if binding.polarity == POSITIVE:
            binding.script = Script(("x=3", "y=1"))
        else:
            binding.heuristic = COFFEE.default_heuristic
    engine.run_to_quiescence(s)
    _assert_copycat(s)
    assert engine.evaluate_winner(s) is T
    assert [str(lm) for lm in s.run] == ["B2.x=3", "T1.x=3", "B2.y=1", "T1.y=1", "B1.z=4", "T2.z=4"]


def assert_one_object_per_move(session):
    """Every move a binding holds, positive or negative, is an entry of the session run itself,
    not a copy."""
    played = {id(lm) for lm in session.run}
    for polarity in (POSITIVE, NEGATIVE):
        held = [lm for binding in session.bindings.values() if binding.polarity == polarity for lm in binding.local]
        assert held and all(id(lm) in played for lm in held), polarity


def test_each_move_is_one_object():
    s = coffee_session("(C -> C) @ w")
    for binding in s.bindings.values():
        if binding.polarity == POSITIVE:
            binding.script = Script(("x=3", "y=1"))
        else:
            binding.heuristic = COFFEE.default_heuristic
    engine.run_to_quiescence(s)
    assert_one_object_per_move(s)


def test_spent_step_budget_is_its_own_error():
    s = coffee_session("(C -> C) @ w")
    for binding in s.bindings.values():
        if binding.polarity == POSITIVE:
            binding.script = Script(("x=3", "y=1"))
    with pytest.raises(engine.StepBudgetExceeded, match="step budget exhausted"):
        engine.run_to_quiescence(s, 1)
    assert issubclass(engine.StepBudgetExceeded, EngineError)


def test_copycat_survives_unhelpful_heuristic_range():
    s = coffee_session("(C -> C) @ w")
    for binding in s.bindings.values():
        if binding.polarity == POSITIVE:
            binding.script = Script(("x=3", "y=4"))
        else:
            binding.heuristic = binding.game.default_heuristic
    engine.run_to_quiescence(s)
    assert engine.evaluate_winner(s) is T


def test_copycat_random_scripts_sound():
    rng = random.Random(31)
    for f, tree in random_provable(rng, 30, need_pairing=True):
        session = _drive_with_scripts(hybridize(tree), rng)
        engine.run_to_quiescence(session)
        _assert_copycat(session)
        assert engine.evaluate_winner(session) is T, str(f)


def test_emitted_machine_moves_are_legal():
    s = coffee_session("(C -> C) @ w")
    for binding in s.bindings.values():
        if binding.polarity == POSITIVE:
            binding.script = Script(("x=2", "y=2"))
        else:
            binding.heuristic = binding.game.default_heuristic
    engine.run_to_quiescence(s)
    for spec in sorted({lm.spec for lm in s.run}):
        binding = s.bindings[spec]
        local = s.local_run(spec)
        for i, mv in enumerate(local):
            assert binding.game.legal(local[:i], Labmove(mv.player, "", mv.payload))


def _reference_winner(session, node, spec, sign):
    """The engine's former recursive composition of the winner, kept as an oracle: each
    atom's local run is rebuilt from the whole session run, not read from its binding."""
    match node:
        case Truth(v):
            return T if v else B
        case Elementary(name):
            return T if session.interpretation.get(name, False) else B
        case General(_, _) | Hybrid(_, _, _):
            sub = engine.subrun(tuple(session.run), spec)
            return session.games[node.name].verdict(flip_run(sub) if sign == NEGATIVE else sub).winner
        case Chand(_):
            return T
        case Chor(_):
            return B
        case Not(c):
            return _reference_winner(session, c, spec, -sign).flip()
        case EnvAnn(c, _):
            return _reference_winner(session, c, spec, sign)
        case And(l, r):
            lw = _reference_winner(session, l, spec + "1.", sign)
            rw = _reference_winner(session, r, spec + "2.", sign)
            return T if lw is rw is T else B
        case Or(l, r):
            lw = _reference_winner(session, l, spec + "1.", sign)
            rw = _reference_winner(session, r, spec + "2.", sign)
            return T if T in (lw, rw) else B
        case Implies(l, r):
            lw = _reference_winner(session, l, spec + "1.", -sign).flip()
            rw = _reference_winner(session, r, spec + "2.", sign)
            return T if T in (lw, rw) else B
    raise AssertionError(f"cannot evaluate {node!r}")


# Environment payloads per game, legal and illegal, and a machine answer that always loses.
PAYLOADS = {"coffee": ("x=1", "x=3", "y=1", "y=2", "z=4", "v=1"), "dollar": ("v=1", "v=2", "r=2", "x=1")}
WRONG = {"coffee": "z=9", "dollar": "r=9"}


def test_evaluate_winner_agrees_with_reference_recursion():
    """Random environment moves (choices with in- and out-of-range branches, legal and
    illegal atom payloads, stand-in answers) and, so that both winners occur, stray
    machine moves."""
    rng = random.Random(47)
    outcomes = Counter()
    for _, tree in random_provable(rng, 40) + random_provable(rng, 40, need_pairing=True):
        for _ in range(3):
            valuation = {name: rng.random() < 0.5 for name in "pqrs"}
            s = engine.new_session(hybridize(tree), games={"C": COFFEE, "D": dollar_game(5)}, interpretation=valuation)
            for binding in s.bindings.values():
                if binding.polarity == NEGATIVE and rng.random() < 0.5:
                    binding.heuristic = binding.game.default_heuristic
            for _ in range(rng.randint(0, 16)):
                engine.run_to_quiescence(s)
                choices = [o for o in surface_occurrences(s.formula, "choice") if env_chooses(o)]
                roll = rng.random()
                if choices and roll < 0.3:
                    occ = rng.choice(choices)
                    s.deliver(Labmove(B, occ.spec, str(rng.randint(0, len(occ.node.parts) + 1))))
                elif s.atoms:
                    occ = rng.choice(list(s.atoms.values()))
                    game = s.bindings[occ.spec].game.name
                    if roll < 0.7 or occ.polarity == NEGATIVE:
                        s.deliver(Labmove(B, occ.spec, rng.choice(PAYLOADS[game])))
                    else:
                        s.append(Labmove(T, occ.spec, WRONG[game]))
            engine.run_to_quiescence(s)
            expected = _reference_winner(s, s.formula, "", POSITIVE)
            assert engine.evaluate_winner(s) is expected
            outcomes[expected] += 1
    assert outcomes[T] > 0 and outcomes[B] > 0, outcomes


def test_evaluate_winner_agrees_with_reference_on_arbitrary_runs():
    """Any formula at a closure node, after any moves at its atoms by either player."""
    rng = random.Random(48)
    games = {"C": COFFEE, "D": dollar_game(5), "P": coffee_game(3), "Q": dollar_game(2)}
    outcomes = Counter()
    for _ in range(300):
        s = _quiescent_session(print_formula(random_ast(rng, 4)), games=games)
        s.interpretation = {name: rng.random() < 0.5 for name in rng.sample("pqrs", 2)}  # the rest are false
        for _ in range(rng.randint(0, 8) if s.atoms else 0):
            spec = rng.choice(list(s.atoms))
            s.append(Labmove(rng.choice((T, B)), spec, rng.choice(PAYLOADS[s.bindings[spec].game.name] + ("z=9", "r=9"))))
        expected = _reference_winner(s, s.formula, "", POSITIVE)
        assert engine.evaluate_winner(s) is expected
        outcomes[expected] += 1
    assert min(outcomes[T], outcomes[B]) > 50, outcomes


def test_listener_is_the_only_output():
    """Driven by ``step`` and random environment moves, with strategies on random seats, a
    session hands every move of its run to the listener once and in order. A machine move
    is played at a bound occurrence or is the choice its ``RuleB`` commits."""
    rng = random.Random(53)
    games = {"C": COFFEE, "D": dollar_game(5)}
    seen = Counter()
    for f, tree in random_provable(rng, 30) + random_provable(rng, 30, need_pairing=True):
        s = engine.new_session(hybridize(tree), games=games)
        for binding in s.bindings.values():
            roll = rng.random()
            if roll < 0.3:
                binding.heuristic = binding.game.default_heuristic
            elif roll < 0.6:
                binding.script = Script(tuple(rng.sample(PAYLOADS[binding.game.name], 2)))
        heard = []

        def listener(session, lm):
            heard.append(lm)
            if lm.player is T and lm.is_choice():
                rule = session.node.rule
                assert isinstance(rule, RuleB) and rule.spec == lm.spec, print_formula(f)
                seen["choice"] += 1
            elif lm.player is T:
                assert lm.spec in session.bindings, print_formula(f)
                seen["atom"] += 1
            else:
                seen["environment"] += 1

        s.listener = listener
        for _ in range(rng.randint(0, 12)):
            while engine.step(s):
                pass
            choices = [o for o in surface_occurrences(s.formula, "choice") if env_chooses(o)]
            if choices and rng.random() < 0.4:
                occ = rng.choice(choices)
                s.deliver(Labmove(B, occ.spec, str(rng.randint(1, len(occ.node.parts)))))
            elif s.atoms:
                spec = rng.choice(list(s.atoms))
                s.deliver(Labmove(B, spec, rng.choice(PAYLOADS[s.bindings[spec].game.name])))
        while engine.step(s):
            pass
        assert engine.step(s) is False
        assert [id(lm) for lm in heard] == [id(lm) for lm in s.run], print_formula(f)
    assert min(seen.values()) > 10 and len(seen) == 3, seen


def _answer_once(after: int, payload: str):
    """A pure heuristic that plays ``payload`` once the run has ``after`` moves, until the
    player on the local machine seat has played it."""

    def heuristic(run, machine):
        if len(run) < after or any(lm.player is machine and lm.payload == payload for lm in run):
            return None
        return payload

    return heuristic


def assert_local_runs_ready_made(session):
    """Each binding holds the session's own move objects at its spec other than the choice that
    resolved it, and ``local_run`` is those moves in local roles, flipped at a negative
    occurrence, with the keys and values of the moves it stands for."""
    for spec, binding in session.bindings.items():
        moves = tuple(lm for lm in session.run if lm.spec == spec and not lm.is_choice())
        assert [id(lm) for lm in binding.local] == [id(lm) for lm in moves]
        expected = flip_run(moves) if binding.polarity == NEGATIVE else moves
        got = session.local_run(spec)
        assert got == expected
        assert [(lm.key, lm.value) for lm in got] == [(lm.key, lm.value) for lm in expected]


def test_quiescence_leaves_no_heuristic_or_environment_script_with_a_move():
    """With random heuristics and scripts on random seats and random environment moves
    between runs, a quiescent session has no heuristic that would answer its local run and
    no unplayed script at a positive occurrence: a heuristic left unpolled since its last
    None never hides a move."""
    rng = random.Random(1018)
    games = {"C": COFFEE, "D": dollar_game(5)}
    woken = 0  # heuristics that first answered after a rest, woken by a delivered move
    for f, tree in random_provable(rng, 30) + random_provable(rng, 30, need_pairing=True):
        s = engine.new_session(hybridize(tree), games=games)
        for binding in s.bindings.values():
            roll = rng.random()
            if roll < 0.2:
                binding.heuristic = binding.game.default_heuristic
            elif roll < 0.3:
                binding.heuristic = rng.choice([COFFEE, dollar_game(5)]).default_heuristic
            elif roll < 0.45:
                binding.heuristic = _answer_once(rng.randint(0, 3), rng.choice(PAYLOADS[binding.game.name]))
            elif roll < 0.7:
                binding.script = Script(tuple(rng.sample(PAYLOADS[binding.game.name], rng.randint(0, 3))))
        s.listener = lambda session, lm: assert_local_runs_ready_made(session)
        resting: set[str] = set()  # specs whose heuristic had not fired at the last rest
        for _ in range(rng.randint(1, 12)):
            engine.run_to_quiescence(s, max_steps=500)
            assert_local_runs_ready_made(s)
            woken += sum(s.bindings[spec].heuristic_fired for spec in resting if spec in s.bindings)
            resting = {spec for spec, b in s.bindings.items() if b.heuristic is not None and not b.heuristic_fired}
            for spec, binding in s.bindings.items():
                if binding.heuristic is not None:
                    assert binding.heuristic(binding.local, binding.machine) is None, (print_formula(f), spec)
                if binding.script is not None and binding.polarity == POSITIVE:
                    assert binding.script_pos == len(binding.script.payloads), (print_formula(f), spec)
            choices = [o for o in surface_occurrences(s.formula, "choice") if env_chooses(o)]
            if choices and rng.random() < 0.4:
                occ = rng.choice(choices)
                s.deliver(Labmove(B, occ.spec, str(rng.randint(1, len(occ.node.parts)))))
            elif s.atoms:
                spec = rng.choice(list(s.atoms))
                s.deliver(Labmove(B, spec, rng.choice(PAYLOADS[s.bindings[spec].game.name])))
    assert woken > 10, woken


def test_readme_library_example_runs():
    """The README's one Python block, run as a script in a fresh interpreter over ``src``."""
    root = Path(__file__).resolve().parent.parent
    blocks = (root / "README.md").read_text(encoding="utf-8").split("```python\n")
    assert len(blocks) == 2
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", blocks[1].split("```", 1)[0]], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "['B2.x=3', 'T1.x=3', 'B2.y=1', 'T1.y=1', 'B1.z=4', 'T2.z=4']\nT\n"

import random
from collections import Counter

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
    Truth,
    atom_name,
    env_chooses,
    parse_formula,
    print_formula,
    surface_occurrences,
)
from clbk.games import Labmove, Player, Script, coffee_game, dollar_game, flip_run
from clbk.prover import ProofTree, RuleA, hybridize, premises_A, premises_B, prove
from genlib import random_ast, random_provable

T, B = Player.MACHINE, Player.ENVIRONMENT
COFFEE = coffee_game(10)


def coffee_session(src="(C /\\ C) -> (C \\/ C) @ w", **kwargs):
    tree = hybridize(prove(parse_formula(src)))
    return engine.new_session(tree, games={"C": COFFEE, "D": dollar_game(5)}, **kwargs)


def test_new_session_binds_every_occurrence():
    s = coffee_session()
    assert sorted(s.bindings) == ["1.1.", "1.2.", "2.1.", "2.2."]
    assert s.counterparties == ["w"]


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
    out = engine.machine_turn(s)
    assert out == []
    assert isinstance(s.node.rule, RuleA)
    assert s.run == []


def test_machine_turn_replays_pending_subrun_on_pairing():
    s = coffee_session()
    s.append(Labmove(B, "1.1.", "x=3"))
    out = engine.machine_turn(s)
    assert [str(lm) for _, lm in out] == ["T2.1.x=3"]
    assert [str(lm) for lm in s.run] == ["B1.1.x=3", "T2.1.x=3"]


def test_machine_turn_choice_commitment_addressed_to_env():
    s = engine.new_session(prove(parse_formula("((p & q) -> p) @ w")))
    out = engine.machine_turn(s)
    assert [(target, str(lm)) for target, lm in out] == [("w", "T1.1")]
    assert s.formula == parse_formula("(p -> p) @ w")


def test_machine_turn_second_branch_commitment():
    s = engine.new_session(prove(parse_formula("((p & q) -> q) @ w")))
    out = engine.machine_turn(s)
    assert [(target, str(lm)) for target, lm in out] == [("w", "T1.2")]


def test_env_move_requires_environment_label():
    s = coffee_session()
    engine.machine_turn(s)
    assert engine.env_move(s, Labmove(T, "2.1.", "x=3")) == []
    assert s.run == []


def test_pump_environment_script_before_standin_heuristic():
    s = coffee_session("(C -> C) @ w")
    for occ in surface_occurrences(s.formula, "atom"):
        binding = s.bindings[occ.spec]
        if occ.polarity == POSITIVE:
            binding.script = Script(("x=3",))
        else:
            binding.heuristic = binding.game.default_heuristic
    engine.machine_turn(s)
    assert str(engine.pump_environment(s)) == "B2.x=3"


def test_env_move_at_general_atom_is_recorded():
    s = engine.new_session(hybridize(prove(parse_formula("((C -> C) \\/ D) @ w"))), games={"C": COFFEE, "D": dollar_game(5)})
    engine.machine_turn(s)
    unpaired = [o.spec for o in surface_occurrences(s.formula, "general")]
    assert unpaired == ["2."]
    out = engine.env_move(s, Labmove(B, "2.", "v=1"))
    assert out == []
    assert [str(lm) for lm in s.run] == ["B2.v=1"]


def test_env_move_copycat_at_hybrid():
    s = coffee_session()
    engine.machine_turn(s)
    out = engine.env_move(s, Labmove(B, "2.1.", "x=3"))
    assert [(t, str(lm)) for t, lm in out] == [("w", "T1.1.x=3")]
    assert [str(lm) for lm in s.run] == ["B2.1.x=3", "T1.1.x=3"]


def test_env_move_choice_triggers_machine_reply():
    s = engine.new_session(prove(parse_formula("((p & q) -> (p & q)) @ w")))
    engine.machine_turn(s)
    out = engine.env_move(s, Labmove(B, "2.", "1"))
    assert [str(lm) for _, lm in out] == ["T1.1"]
    assert s.formula == parse_formula("(p -> p) @ w")
    assert [str(lm) for lm in s.run] == ["B2.1", "T1.1"]


def test_env_move_ignores_unmatched_moves():
    s = coffee_session()
    engine.machine_turn(s)
    assert engine.env_move(s, Labmove(B, "9.9.", "x=1")) == []
    assert engine.env_move(s, Labmove(B, "1.", "7")) == []
    assert s.run == []


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
            s = engine.new_session(tree, games=games, check=False)
            engine.machine_turn(s)
            return s

        s = at_closure()
        node = s.node
        for k, entry in enumerate(premises_A(s.formula)):
            s = at_closure()
            entered.clear()
            engine.env_move(s, Labmove(B, entry.spec, str(entry.branch)))
            assert entered[0] is node.premises[k], print_formula(f)
            assert entered[0].conclusion == entry.formula
            seen["routed"] += 1
        s = at_closure()
        branches = Counter(e.spec for e in premises_A(s.formula))
        refused = [("out of range", spec, str(n + 1)) for spec, n in branches.items()]
        refused += [("machine-owned", e.spec, str(e.branch)) for e in premises_B(s.formula)]
        refused += [("atom", spec, "1") for spec in s.atoms]
        played = list(s.run)
        for kind, spec, payload in refused:
            assert engine.env_move(s, Labmove(B, spec, payload)) == []
            assert s.run == played and s.node is node, (kind, print_formula(f))
            seen[kind] += 1
    assert set(seen) == {"routed", "out of range", "machine-owned", "atom"}, seen


def test_pump_environment_script_then_exhaustion():
    s = coffee_session("(C -> C) @ w", scripts={"req": Script(("x=3", "y=1"))})
    for occ in surface_occurrences(s.formula, "atom"):
        if occ.polarity == POSITIVE:
            s.bindings[occ.spec].script = Script(("x=3", "y=1"))
    engine.machine_turn(s)
    mv = engine.pump_environment(s)
    assert str(mv) == "B2.x=3"
    engine.env_move(s, mv)
    mv = engine.pump_environment(s)
    assert str(mv) == "B2.y=1"
    engine.env_move(s, mv)
    assert engine.pump_environment(s) is None
    assert s.status is Status.QUIESCENT


def test_pump_environment_prefers_delivered_moves():
    s = coffee_session("(C -> C) @ w")
    for occ in surface_occurrences(s.formula, "atom"):
        if occ.polarity == POSITIVE:
            s.bindings[occ.spec].script = Script(("x=9",))
    engine.machine_turn(s)
    s.deliver(Labmove(B, "2.", "x=1"))
    assert str(engine.pump_environment(s)) == "B2.x=1"


def _quiescent_session(src, games=None, run=()):
    """A session resting at an unchecked closure node over ``src`` after ``run`` was played."""
    f = parse_formula(src)
    s = engine.new_session(ProofTree(f, RuleA(), ()), owner="m", games=games, check=False)
    for lm in run:
        s.append(lm)
    s.status = Status.QUIESCENT
    return s


def test_evaluate_requires_quiescence():
    s = coffee_session()
    with pytest.raises(EngineError, match="quiescence"):
        engine.evaluate_winner(s)


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
            return session.games[atom_name(node)].winner(flip_run(sub) if sign == NEGATIVE else sub)
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

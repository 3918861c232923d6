"""Acceptance suite: one test per criterion, each printing a pass line with its budget."""

import random
import subprocess
import sys
import time

from clbk.agents import Simulation
from clbk.cli import main
from clbk.formula import (
    POSITIVE,
    is_elementary,
    elementarize,
    parse_formula,
    print_formula,
    resolve_spec,
    specification,
    surface_occurrences,
)
from clbk.games import Labmove, Player, Script, coffee_game, dollar_game
from clbk import engine
from clbk.prover import (
    ProofTree,
    RuleA,
    RuleB,
    RuleC,
    format_proof,
    hybridize,
    measure,
    premises_A,
    premises_B,
    premises_C,
    prove,
    verify_proof,
)
from clbk.scenario import builtin_scenario, parse_scenario
from genlib import random_ast, random_elementary, random_provable

T, B = Player.MACHINE, Player.ENVIRONMENT


def _report(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nacceptance {name}: PASS{suffix}")


def test_criterion_1_example_proof_reproduction(capsys):
    start = time.perf_counter()
    tree = prove(parse_formula("(C /\\ C) -> (C \\/ C) @ w"))
    assert tree is not None
    assert tree.node_count() == 3
    assert [type(r) for r in tree.rules_preorder()] == [RuleC, RuleC, RuleA]
    converted = hybridize(tree)
    leaf = converted.premises[0].premises[0]
    assert print_formula(leaf.conclusion) == "(C_p /\\ C_q) -> (C_p \\/ C_q) @ w"
    assert format_proof(converted).splitlines()[0] == "1. (C_p /\\ C_q) -> (C_p \\/ C_q) @ w, rule A, 0"
    assert main(["prove", "(C /\\ C) -> (C \\/ C) @ w", "--tree"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("1 example-proof reproduction", f"{elapsed:.3f}s")


FIXTURES = [
    ("(p /\\ q) -> (p \\/ q)", True),
    ("((p & q) -> (p & q)) @ w", True),
    ("((p & q) -> p) @ w", True),
    ("((p & q) -> q) @ w", True),
    ("(C -> C) @ w", True),
    ("P -> (P /\\ P)", False),
    ("C \\/ C", False),
    ("p | ~p", False),
]


def test_criterion_2_provability_fixtures():
    start = time.perf_counter()
    for src, want in FIXTURES:
        got = prove(parse_formula(src)) is not None
        assert got == want, src
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("2 provability fixtures", f"{len(FIXTURES)} verdicts, {elapsed:.3f}s")


def _tree_nodes(t, path=()):
    yield path, t
    for i, premise in enumerate(t.premises):
        yield from _tree_nodes(premise, path + (i,))


def _replace_node(t, path, rule=None, index=None):
    if not path:
        return ProofTree(
            t.conclusion,
            rule if rule is not None else t.rule,
            t.premises,
            index if index is not None else t.premise_index,
        )
    premises = list(t.premises)
    premises[path[0]] = _replace_node(premises[path[0]], path[1:], rule, index)
    return ProofTree(t.conclusion, t.rule, tuple(premises), t.premise_index)


def _mutations(tree, rng, count=5):
    nodes = list(_tree_nodes(tree))
    out = []
    while len(out) < count:
        path, node = nodes[rng.randrange(len(nodes))]
        rule = node.rule
        if isinstance(rule, RuleB):
            if rng.random() < 0.5:
                mutated = RuleB(rule.spec, rule.branch + 99, rule.env)
            else:
                mutated = RuleB(rule.spec + "9.", rule.branch, rule.env)
            out.append(_replace_node(tree, path, rule=mutated))
        elif isinstance(rule, RuleC):
            if rng.random() < 0.5:
                mutated = RuleC(rule.neg_spec, rule.pos_spec, rule.name)
            else:
                mutated = RuleC(rule.pos_spec, rule.neg_spec + "9.", rule.name)
            out.append(_replace_node(tree, path, rule=mutated))
        else:
            if node.premise_index and len(node.premises) >= 2:
                items = list(node.premise_index.items())
                scrambled = dict(items)
                scrambled[items[0][0]], scrambled[items[1][0]] = items[1][1], items[0][1]
                out.append(_replace_node(tree, path, index=scrambled))
            else:
                out.append(_replace_node(tree, path, rule=RuleB("", 1, None)))
    return out


def test_criterion_3_checker_adversarial():
    rng = random.Random(42)
    found = random_provable(rng, 100)
    mutants = 0
    for f, tree in found:
        assert verify_proof(tree), print_formula(f)
        for mutated in _mutations(tree, rng, 5):
            assert not verify_proof(mutated), print_formula(f)
            mutants += 1
    _report("3 checker adversarial", f"100 proofs verified, {mutants} mutations all rejected")


def _play_random(session, rng):
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
        live = [
            occ
            for occ in surface_occurrences(session.formula, "choice")
            if (occ.polarity == POSITIVE) == (type(occ.node).__name__ == "Chand")
        ]
        if not live:
            break
        occ = live[rng.randrange(len(live))]
        session.deliver(Labmove(B, occ.spec, str(rng.randint(1, len(occ.node.parts)))))
    return session


def _check_copycat(session):
    pairs = {}
    for occ in surface_occurrences(session.formula, "hybrid"):
        pairs.setdefault(occ.node.elementary, []).append(occ)
    for name, occs in pairs.items():
        assert len(occs) == 2, name
        a = [m for m in engine.subrun(tuple(session.run), occs[0].spec) if not m.is_choice()]
        b = [m for m in engine.subrun(tuple(session.run), occs[1].spec) if not m.is_choice()]
        assert [m.payload for m in a] == [m.payload for m in b]
        assert all(x.player is y.player.flip() for x, y in zip(a, b))


def test_criterion_4_copycat_soundness():
    games = {"C": coffee_game(10), "D": dollar_game(5)}
    identity = engine.new_session(hybridize(prove(parse_formula("(C -> C) @ w"))), games=games)
    for binding in identity.bindings.values():
        if binding.polarity == POSITIVE:
            binding.script = Script(("x=3", "y=1"))
        else:
            binding.heuristic = binding.game.default_heuristic
    engine.run_to_quiescence(identity)
    _check_copycat(identity)
    assert engine.evaluate_winner(identity) is T

    rng = random.Random(4242)
    found = random_provable(rng, 100, need_pairing=True)
    for f, tree in found:
        session = engine.new_session(hybridize(tree), games=games)
        _play_random(session, rng)
        engine.run_to_quiescence(session)
        _check_copycat(session)
        assert engine.evaluate_winner(session) is T, print_formula(f)
    _report("4 copy-cat soundness", "identity game plus 100 random script assignments")


def test_criterion_5_starbucks_end_to_end(tmp_path):
    scenario = tmp_path / "starbucks.clbk"
    scenario.write_text(builtin_scenario("starbucks"), encoding="utf-8")
    start = time.perf_counter()
    runs = []
    for sub in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, "-m", "clbk.cli", "simulate", str(scenario), "--trace-dir", str(tmp_path / sub)],
            capture_output=True,
            text=True,
        )
        runs.append(proc)
    elapsed = time.perf_counter() - start
    assert all(proc.returncode == 0 for proc in runs), runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert "u: 2/2 won; o: 2/2 won; *C: 1/1 won; *1: 1/1 won" in runs[0].stdout
    bytes_a = (tmp_path / "a" / "trace.txt").read_bytes()
    bytes_b = (tmp_path / "b" / "trace.txt").read_bytes()
    assert bytes_a == bytes_b and bytes_a

    report = Simulation(parse_scenario(builtin_scenario("starbucks"))).run(10_000)
    assert report.quiescent
    assert report.all_won()
    coffee_wins = [w for w in report.heuristic_wins if w.atom == "C"]
    dollar_wins = [w for w in report.heuristic_wins if w.atom == "D"]
    assert len(coffee_wins) == 10
    assert len(dollar_wins) == 10
    assert all(w.agent == "*C" for w in coffee_wins)
    assert all(w.agent == "*1" for w in dollar_wins)
    for w in coffee_wins:
        fields = dict(p.split("=") for p in w.payloads)
        assert int(fields["z"]) == int(fields["x"]) * int(fields["y"]) + 1
    assert ("x=3", "y=1", "z=4") in {w.payloads for w in coffee_wins}
    assert ("x=4", "y=2", "z=9") in {w.payloads for w in coffee_wins}
    for w in dollar_wins:
        fields = dict(p.split("=") for p in w.payloads)
        assert int(fields["r"]) == 2 * int(fields["v"])
    assert report.ledgers["u"]["received"]["C"] == 2
    assert report.ledgers["u"]["paid"]["D"] == 2
    assert elapsed < 5.0
    _report("5 starbucks end-to-end", f"deterministic, 10+10 wins, {elapsed:.2f}s")


def test_criterion_6_formula_calculus_properties():
    rng = random.Random(20260808)
    for _ in range(1000):
        f = random_ast(rng, depth=6)
        assert parse_formula(print_formula(f)) == f
    rng = random.Random(606)
    for _ in range(200):
        f = random_ast(rng, depth=5)
        for kind in ("choice", "general", "hybrid"):
            for occ in surface_occurrences(f, kind):
                assert specification(f, occ.path) == occ.spec
                assert resolve_spec(f, occ.spec) == occ.path
        assert is_elementary(elementarize(f))

    from clbk.classical import is_valid
    from test_classical import _reference_valid

    rng = random.Random(607)
    for _ in range(500):
        g = random_elementary(rng, depth=4)
        assert is_valid(g) == _reference_valid(g)
    _report("6 formula-calculus properties", "1000 round-trips, 500 oracle checks")


def test_criterion_7_termination_measure():
    rng = random.Random(7777)
    checked = 0
    battery = [src for src, _ in FIXTURES] + ["(C /\\ C) -> (C \\/ C) @ w"]
    formulas = [parse_formula(src) for src in battery]
    formulas += [f for f, _ in random_provable(rng, 50)]
    for f in formulas:
        stack = [f]
        seen = set()
        while stack:
            g = stack.pop()
            if g in seen or len(seen) > 500:
                continue
            seen.add(g)
            m = measure(g)
            for entry in premises_A(g) + premises_B(g):
                assert measure(entry.formula) < m
                stack.append(entry.formula)
            for pair in premises_C(g):
                assert measure(pair.formula) < m
                stack.append(pair.formula)
            checked += 1
        prove(f)
    _report("7 termination measure", f"{checked} rule frontiers, zero violations")

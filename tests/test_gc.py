import gc
import importlib
import sys
import weakref

from clbk import engine
from clbk.agents import Simulation
from clbk.formula import POSITIVE, parse_formula, surface_occurrences
from clbk.games import Player, Script, coffee_game
from clbk.prover import format_proof, hybridize, prove, verify_proof
from clbk.scenario import builtin_scenario, parse_scenario
from test_agents import MIDDLEMAN


def test_layers_leave_no_cyclic_garbage():
    """Every layer frees its temporaries by reference counting alone: with the cyclic
    collector off, a full pass over the layers leaves nothing for it to find. Walks of leaf
    formulas are made too, since a walk kept on a leaf would hold the leaf itself; the MIDDLEMAN
    query's body is a bare atom."""
    gc.collect()
    gc.disable()
    try:
        for src in ("C", "p | q", "(C -> C) @ w"):
            assert surface_occurrences(parse_formula(src), "leaf")
        for src in ("((C /\\ C) -> (C \\/ C)) @ w", "((p & q) -> (p & q)) @ w"):
            tree = prove(parse_formula(src))
            hybrid = hybridize(tree)
            assert verify_proof(hybrid)
            assert format_proof(hybrid)
        session = engine.new_session(hybridize(prove(parse_formula("(C -> C) @ w"))), games={"C": coffee_game(10)})
        for binding in session.bindings.values():
            if binding.polarity == POSITIVE:
                binding.script = Script(("x=3", "y=1"))
            else:
                binding.heuristic = binding.game.default_heuristic
        engine.run_to_quiescence(session)
        assert engine.evaluate_winner(session) is Player.MACHINE
        for text in (builtin_scenario("starbucks"), MIDDLEMAN):
            report = Simulation(parse_scenario(text)).run(10_000)
            assert report.all_won()
        del tree, hybrid, session, report  # a cycle among the results would now be garbage too
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_reimport_leaves_no_old_module_alive():
    """Importing the package afresh, as the benchmark's set-up does, leaves the old modules
    to the cyclic collector: no cache holds one of their classes, and so their module, alive."""
    original = {name: module for name, module in sys.modules.items() if name.split(".")[0] == "clbk"}
    try:
        for name in original:
            del sys.modules[name]
        importlib.import_module("clbk")
        fresh = [module for name, module in sys.modules.items() if name.split(".")[0] == "clbk"]
        classes = [
            weakref.ref(value)
            for module in fresh
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
        assert len(classes) > 20
        del fresh
        for name in [name for name in sys.modules if name.split(".")[0] == "clbk"]:
            del sys.modules[name]
        gc.collect()
        assert [ref() for ref in classes if ref() is not None] == []
    finally:
        sys.modules.update(original)

"""Toolkit for a propositional logic of interactive resources: a three-rule prover, a
proof-executing game engine with copy-cat, and a deterministic multi-agent simulator."""

from .agents import Agent, Bus, ResourceEntry, Simulation, SimulationReport
from .classical import countermodel, evaluate, is_valid, satisfiable
from .engine import (
    Binding,
    Session,
    Status,
    env_move,
    evaluate_winner,
    machine_turn,
    new_session,
    pump_environment,
    step,
)
from .formula import (
    Formula,
    FormulaError,
    ParseError,
    elementarize,
    is_elementary,
    parse_formula,
    polarity,
    print_formula,
    resolve_spec,
    skeleton,
    specification,
    substitute_at,
    surface_occurrences,
)
from .games import GameDef, Labmove, Player, Script, coffee_game, dollar_game, subrun
from .prover import (
    ProofTree,
    RuleA,
    RuleB,
    RuleC,
    SearchBudgetExceeded,
    format_proof,
    hybridize,
    is_stable,
    premises_A,
    premises_B,
    premises_C,
    prove,
    verify_proof,
)
from .scenario import load_scenario, parse_scenario

__all__ = [name for name in dir() if not name.startswith("_")]

"""Toolkit for a propositional logic of interactive resources: a three-rule prover, a
proof-executing game engine with copy-cat, and a deterministic multi-agent simulator.

The names below are the library surface the README documents and the command line uses;
everything else is reached through its module."""

from .agents import Agent, AgentError, Simulation
from .classical import countermodel, is_valid
from .engine import (
    EngineError, Session, Status, StepBudgetExceeded, env_move, evaluate_winner, machine_turn, move_refusal,
    new_session, read_verdicts, run_to_quiescence, step,
)
from .formula import SPEC_RE, FormulaError, occurrence_at, parse_formula, print_formula, surface_occurrences
from .games import GameDef, Labmove, Player, Script, coffee_game, dollar_game
from .prover import SearchBudgetExceeded, format_proof, hybridize, prove, verify_proof
from .scenario import ScenarioError, builtin_scenario, load_scenario, parse_scenario

__all__ = [
    "Agent", "AgentError", "Simulation",
    "countermodel", "is_valid",
    "EngineError", "Session", "Status", "StepBudgetExceeded", "env_move", "evaluate_winner", "machine_turn",
    "move_refusal", "new_session", "read_verdicts", "run_to_quiescence", "step",
    "SPEC_RE", "FormulaError", "occurrence_at", "parse_formula", "print_formula", "surface_occurrences",
    "GameDef", "Labmove", "Player", "Script", "coffee_game", "dollar_game",
    "SearchBudgetExceeded", "format_proof", "hybridize", "prove", "verify_proof",
    "ScenarioError", "builtin_scenario", "load_scenario", "parse_scenario",
]

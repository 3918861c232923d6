"""Command-line driver: prove formulas, play single games, run scenario simulations, format files.

Commands raise on failure, and ``main`` alone maps each error to its message and exit code.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import engine
from .agents import Agent, AgentError, Simulation
from .engine import EngineError, Status, StepBudgetExceeded
from .formula import SPEC_RE, FormulaError, ParseError, file_message, note_names, parse_formula, print_formula
from .games import GameDef, Labmove, Player, Script
from .prover import SearchBudgetExceeded, format_proof, hybridize, prove
from .scenario import (
    ScenarioError,
    builtin_scenario,
    load_scenario,
    parse_resource_directive,
    parse_scenario,
    resolve_heuristics,
    strip_comment,
    unique,
)

EXIT_OK = 0
EXIT_UNPROVABLE = 1
EXIT_INPUT = 2
EXIT_INCOMPLETE = 3


class InputError(Exception):
    """Input that one of the CLI's own checks rejects (exit 2)."""


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def cmd_prove(args) -> int:
    f = parse_formula(args.formula)
    if args.max_nodes is not None and args.max_nodes < 0:
        raise InputError("--max-nodes must not be negative")
    tree = prove(f, max_nodes=args.max_nodes)
    if tree is None:
        print("unprovable")
        return EXIT_UNPROVABLE
    if args.hybrid:
        tree = hybridize(tree)
    print(format_proof(tree))
    return EXIT_OK


_BIND_RE = re.compile(rf"^bind\s+(?P<spec>{SPEC_RE.pattern})\s*(?P<kind>script|heuristic)\s+(?P<name>[a-zA-Z][a-zA-Z0-9]*)$")
_LET_RE = re.compile(r"^let\s+(?P<name>[a-z][a-z0-9]*)\s*=\s*(?P<value>true|false)$")


def _load_bind_file(path: str):
    """A bind file's games, scripts, heuristics, binds and interpretation. ``binds`` maps each
    bound seat, ``(spec, kind)``, to the strategy name bound there. A second ``bind`` of one
    kind at one spec, or a second ``let`` of one atom, is an error at its line; a script and a
    heuristic at one spec fill different seats."""
    games: dict[str, GameDef] = {}
    scripts: dict[str, Script] = {}
    heuristics: list[tuple[str, str]] = []
    binds: dict[tuple[str, str], str] = {}
    interpretation: dict[str, bool] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = strip_comment(raw)
            if not line:
                continue
            if parse_resource_directive(line, lineno, games, scripts, heuristics):
                continue
            if m := _BIND_RE.match(line):
                spec, kind = m.group("spec", "kind")
                binds[unique((spec, kind), binds, lineno, f"the {kind} at {spec!r}", "bound")] = m.group("name")
            elif m := _LET_RE.match(line):
                name, value = m.group("name", "value")
                interpretation[unique(name, interpretation, lineno, f"atom {name!r}", "bound")] = value == "true"
            else:
                raise ScenarioError(f"line {lineno}: cannot parse {line!r}")
    return games, scripts, resolve_heuristics(games, heuristics), binds, interpretation


def cmd_play(args) -> int:
    f = parse_formula(args.formula)
    games, scripts, heuristics, binds, interpretation = (
        _load_bind_file(args.scripts) if args.scripts else ({}, {}, {}, {}, {})
    )
    if args.max_steps < 0:
        raise InputError("--max-steps must not be negative")
    for kind, defined in (("script", scripts), ("heuristic", heuristics)):
        if unknown := sorted(note_names(f, kind[0]) - defined.keys()):
            raise InputError(f"unknown {kind} {unknown[0]!r}")
    tree = prove(f)
    if tree is None:
        print("unprovable")
        return EXIT_UNPROVABLE
    session = engine.new_session(
        hybridize(tree), games=games, scripts=scripts, heuristics=heuristics, interpretation=interpretation
    )
    for (spec, kind), name in binds.items():
        binding = session.bindings.get(spec)
        if binding is None:
            raise InputError(f"bind target {spec!r} is not a surface atom occurrence")
        strategies = scripts if kind == "script" else heuristics
        if name not in strategies:
            raise InputError(f"unknown {kind} {name!r}")
        setattr(binding, kind, strategies[name])
    sink = open(args.trace, "w", encoding="utf-8") if args.trace else None

    def show(session: engine.Session, lm: Labmove) -> None:
        mover = "m" if lm.player is Player.MACHINE else "env"
        line = f"{len(session.run)} {mover} {lm.player._value_} {lm.spec}{lm.payload}"
        print(line)
        if sink:
            print(line, file=sink)

    session.listener = show
    try:
        if args.max_steps == 0:
            session.status = Status.QUIESCENT
        elif args.interactive:
            engine.machine_turn(session)
            for raw in sys.stdin:
                text = raw.strip()
                if not text:
                    continue
                spec = SPEC_RE.match(text).group()  # Labmove judges the payload after it
                try:
                    lm = Labmove(Player.ENVIRONMENT, spec, text[len(spec):])
                except ValueError:
                    print(f"ignored malformed move {text!r}")
                    continue
                if (reason := engine.move_refusal(session, lm)) is not None:
                    print(f"ignored move at {spec!r}: {reason}")
                    continue
                session.deliver(lm)
                engine.run_to_quiescence(session, args.max_steps)
            session.status = Status.QUIESCENT
        else:
            engine.run_to_quiescence(session, args.max_steps)
        print(f"winner: {engine.evaluate_winner(session).value}")
        return EXIT_OK
    finally:
        if sink:
            sink.close()


def _trace_files(agents: list[Agent]) -> dict[str, str]:
    """The agent trace files' names, each with its agent's id. Two ids that give one name
    are an input error, since one agent's trace would overwrite the other's."""
    owners: dict[str, str] = {}
    for aid in (agent.id for agent in agents):
        name = f"agent-{re.sub(r'[^A-Za-z0-9]', '_', aid)}.txt"
        if owners.setdefault(name, aid) != aid:
            raise InputError(f"agents {owners[name]!r} and {aid!r} would both write the trace file {name!r}")
    return owners


def _write_traces(directory: str, report, owners: dict[str, str]) -> None:
    """Write the global trace and one file per agent (see ``_trace_files``), one move line each."""
    os.makedirs(directory, exist_ok=True)
    files = {"trace.txt": report.trace} | {name: report.agent_traces[aid] for name, aid in owners.items()}
    for name, lines in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))


def _scenario_agents(name: str) -> list[Agent]:
    """Load a scenario file or, when no such file exists, the packaged scenario of that name."""
    if not os.path.exists(name):
        try:
            text = builtin_scenario(name)
        except OSError:
            pass
        else:
            return parse_scenario(text)
    return load_scenario(name)


def cmd_simulate(args) -> int:
    agents = _scenario_agents(args.scenario)
    if args.max_steps < 0:
        raise InputError("--max-steps must not be negative")
    owners = _trace_files(agents) if args.trace_dir else {}  # a duplicate id is left to Simulation
    report = Simulation(agents).run(args.max_steps)
    if args.trace_dir:
        _write_traces(args.trace_dir, report, owners)
    print(report.summary())
    for result in report.results:
        print(f"{result.qid} client={result.client} {print_formula(result.formula)}: {result.status}")
    for aid, ledger in report.ledgers.items():
        received = ", ".join(f"{k}={v}" for k, v in sorted(ledger["received"].items())) or "-"
        paid = ", ".join(f"{k}={v}" for k, v in sorted(ledger["paid"].items())) or "-"
        print(f"ledger {aid}: received {received}; paid {paid}")
    print(f"heuristic wins: {len(report.heuristic_wins)}")
    if not report.quiescent:
        print("step budget exhausted")
        return EXIT_INCOMPLETE
    print(f"quiescent in {report.steps} steps")
    return EXIT_OK if report.all_won() else EXIT_INCOMPLETE


def cmd_fmt(args) -> int:
    with open(args.path, encoding="utf-8") as fh:
        lines = fh.readlines()
    out = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            out.append(raw.rstrip("\n"))
            continue
        try:
            out.append(print_formula(parse_formula(text)))
        except ParseError as exc:
            raise InputError(file_message(exc, lineno, len(raw) - len(raw.lstrip()))) from exc
    sys.stdout.writelines(line + "\n" for line in out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="clbk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="search for a proof and print its listing")
    p.add_argument("formula")
    p.add_argument("--tree", action="store_true", help="print the proof listing (default on success)")
    p.add_argument("--hybrid", action="store_true", help="print the hybridized tree instead")
    p.add_argument("--max-nodes", type=int, help="give up, with exit code 3, after expanding this many search nodes")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("play", help="prove a formula and play it against scripts or stdin")
    p.add_argument("formula")
    p.add_argument("--scripts", help="bind file with games, scripts, heuristics and binds")
    p.add_argument("--interactive", action="store_true", help="read environment moves from stdin")
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--trace", help="write the trace to this file as well")
    p.set_defaults(fn=cmd_play)

    p = sub.add_parser("simulate", help="run a scenario file to quiescence")
    p.add_argument("scenario", help="scenario file, or the name of a built-in scenario such as starbucks")
    p.add_argument("--trace-dir", help="directory for global and per-agent traces")
    p.add_argument("--max-steps", type=int, default=10_000)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("fmt", help="reprint a file of formulas in canonical syntax")
    p.add_argument("path")
    p.set_defaults(fn=cmd_fmt)
    return parser


def _detach_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the flush at interpreter exit
    does not fail a second time on a closed pipe."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # a stand-in stream has no descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            return args.fn(args)
        except StepBudgetExceeded:  # before its base class EngineError
            print("step budget exhausted")
            return EXIT_INCOMPLETE
        finally:
            sys.stdout.flush()  # so that a closed pipe fails here, inside the mapping
    except SearchBudgetExceeded as exc:
        _err(str(exc))
        return EXIT_INCOMPLETE
    except BrokenPipeError as exc:  # before its base class OSError
        _detach_stdout()
        _err(str(exc))
        return EXIT_INPUT
    except (InputError, FormulaError, ScenarioError, AgentError, EngineError, OSError, UnicodeDecodeError) as exc:
        _err(str(exc))
        return EXIT_INPUT
    except RecursionError:  # the parser, the prover and the engine all recurse on nesting depth
        _err("input nests too deeply")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

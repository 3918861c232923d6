"""Command-line driver: prove formulas, play single games, run scenario simulations, format files."""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import engine
from .agents import Simulation
from .engine import Binding, Status
from .formula import FormulaError, atom_name, parse_formula, print_formula, surface_occurrences
from .games import GameDef, Labmove, Player, Script
from .prover import format_proof, hybridize, prove
from .scenario import ScenarioError, load_scenario, parse_resource_directive, resolve_heuristics

EXIT_OK = 0
EXIT_UNPROVABLE = 1
EXIT_INPUT = 2
EXIT_INCOMPLETE = 3


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def cmd_prove(args) -> int:
    try:
        f = parse_formula(args.formula)
    except FormulaError as exc:
        _err(str(exc))
        return EXIT_INPUT
    tree = prove(f)
    if tree is None:
        print("unprovable")
        return EXIT_UNPROVABLE
    if args.hybrid:
        tree = hybridize(tree)
    print(format_proof(tree))
    return EXIT_OK


_BIND_RE = re.compile(r"^bind\s+(?P<spec>(\d+\.)*)\s*(?P<kind>script|heuristic)\s+(?P<name>[a-zA-Z][a-zA-Z0-9]*)$")
_LET_RE = re.compile(r"^let\s+(?P<name>[a-z][a-z0-9]*)\s*=\s*(?P<value>true|false)$")


def _load_bind_file(path: str):
    games: dict[str, GameDef] = {}
    scripts: dict[str, Script] = {}
    heuristics: list[tuple[str, str]] = []
    binds: list[tuple[str, str, str]] = []
    interpretation: dict[str, bool] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#")[0].strip()
            if not line:
                continue
            if parse_resource_directive(line, games, scripts, heuristics):
                continue
            if m := _BIND_RE.match(line):
                binds.append((m.group("spec"), m.group("kind"), m.group("name")))
            elif m := _LET_RE.match(line):
                interpretation[m.group("name")] = m.group("value") == "true"
            else:
                raise ScenarioError(f"line {lineno}: cannot parse {line!r}")
    return games, scripts, resolve_heuristics(games, heuristics), binds, interpretation


_MOVE_RE = re.compile(r"^(?P<spec>(\d+\.)*)(?P<payload>[a-z][a-z0-9=]*|\d+)$")


def _print_move(seq: int, owner: str, lm: Labmove, sink) -> None:
    mover = owner if lm.player is Player.MACHINE else "env"
    print(f"{seq} {mover} {lm.player.value} {lm.spec}{lm.payload}", file=sink)


def cmd_play(args) -> int:
    try:
        f = parse_formula(args.formula)
        games, scripts, heuristics, binds, interpretation = (
            _load_bind_file(args.scripts) if args.scripts else ({}, {}, {}, [], {})
        )
    except FileNotFoundError as exc:
        _err(str(exc))
        return EXIT_INPUT
    except (FormulaError, ScenarioError) as exc:
        _err(str(exc))
        return EXIT_INPUT
    tree = prove(f)
    if tree is None:
        print("unprovable")
        return EXIT_UNPROVABLE
    occs = {occ.spec: occ for occ in surface_occurrences(f, "atom")}
    bindings: dict[str, Binding] = {}
    for spec, kind, name in binds:
        occ = occs.get(spec)
        if occ is None:
            _err(f"bind target {spec!r} is not a surface atom occurrence")
            return EXIT_INPUT
        atom = atom_name(occ.node)
        game = games.get(atom)
        if game is None:
            _err(f"unbound general atom {atom!r}")
            return EXIT_INPUT
        binding = bindings.setdefault(spec, Binding(spec, game, occ.polarity, occ.env))
        if kind == "script":
            if name not in scripts:
                _err(f"unknown script {name!r}")
                return EXIT_INPUT
            binding.script = scripts[name]
        else:
            if name not in heuristics:
                _err(f"unknown heuristic {name!r}")
                return EXIT_INPUT
            binding.heuristic = heuristics[name]
    try:
        session = engine.new_session(
            hybridize(tree),
            owner="m",
            games=games,
            scripts=scripts,
            heuristics=heuristics,
            bindings=bindings,
            interpretation=interpretation,
        )
    except engine.EngineError as exc:
        _err(str(exc))
        return EXIT_INPUT

    sink = open(args.trace, "w", encoding="utf-8") if args.trace else None

    def show(from_index: int) -> int:
        for i in range(from_index, len(session.run)):
            _print_move(i + 1, "m", session.run[i], sys.stdout)
            if sink:
                _print_move(i + 1, "m", session.run[i], sink)
        return len(session.run)

    shown = 0
    try:
        if args.max_steps == 0:
            session.status = Status.QUIESCENT
        elif args.interactive:
            engine.machine_turn(session)
            shown = show(shown)
            for raw in sys.stdin:
                text = raw.strip()
                if not text:
                    continue
                m = _MOVE_RE.match(text)
                if not m:
                    print(f"ignored malformed move {text!r}")
                    continue
                session.deliver(Labmove(Player.ENVIRONMENT, m.group("spec"), m.group("payload")))
                while True:
                    progress, _ = engine.step(session)
                    if not progress:
                        break
                shown = show(shown)
            session.status = Status.QUIESCENT
        else:
            steps = 0
            while steps < args.max_steps:
                progress, _ = engine.step(session)
                steps += 1
                if not progress:
                    break
            shown = show(shown)
            if session.status is Status.RUNNING:
                print("step budget exhausted")
                return EXIT_INCOMPLETE
        winner = engine.evaluate_winner(session)
        shown = show(shown)
        print(f"winner: {winner.value}")
        return EXIT_OK
    finally:
        if sink:
            sink.close()


def _safe_name(agent_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9]", "_", agent_id)


def cmd_simulate(args) -> int:
    try:
        agents = load_scenario(args.scenario)
    except FileNotFoundError as exc:
        _err(str(exc))
        return EXIT_INPUT
    except (ScenarioError, FormulaError) as exc:
        _err(str(exc))
        return EXIT_INPUT
    report = Simulation(agents).run(args.max_steps)
    print(report.summary())
    for result in report.results:
        print(f"{result.qid} client={result.client} {print_formula(result.formula)}: {result.status}")
    for aid in report.agent_order:
        ledger = report.ledgers[aid]
        received = ", ".join(f"{k}={v}" for k, v in sorted(ledger["received"].items())) or "-"
        paid = ", ".join(f"{k}={v}" for k, v in sorted(ledger["paid"].items())) or "-"
        print(f"ledger {aid}: received {received}; paid {paid}")
    print(f"heuristic wins: {len(report.heuristic_wins)}")
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        with open(os.path.join(args.trace_dir, "trace.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(report.trace) + ("\n" if report.trace else ""))
        for aid, lines in report.agent_traces.items():
            with open(os.path.join(args.trace_dir, f"agent-{_safe_name(aid)}.txt"), "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + ("\n" if lines else ""))
    if not report.quiescent:
        print("step budget exhausted")
        return EXIT_INCOMPLETE
    print(f"quiescent in {report.steps} steps")
    return EXIT_OK if report.all_won() else EXIT_INCOMPLETE


def cmd_fmt(args) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError as exc:
        _err(str(exc))
        return EXIT_INPUT
    out = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            out.append(raw.rstrip("\n"))
            continue
        try:
            out.append(print_formula(parse_formula(text)))
        except FormulaError as exc:
            _err(f"line {lineno}: {exc}")
            return EXIT_INPUT
    print("\n".join(out))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="clbk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="search for a proof and print its listing")
    p.add_argument("formula")
    p.add_argument("--tree", action="store_true", help="print the proof listing (default on success)")
    p.add_argument("--hybrid", action="store_true", help="print the hybridized tree instead")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("play", help="prove a formula and play it against scripts or stdin")
    p.add_argument("formula")
    p.add_argument("--scripts", help="bind file with games, scripts, heuristics and binds")
    p.add_argument("--interactive", action="store_true", help="read environment moves from stdin")
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--trace", help="write the trace to this file as well")
    p.set_defaults(fn=cmd_play)

    p = sub.add_parser("simulate", help="run a scenario file to quiescence")
    p.add_argument("scenario")
    p.add_argument("--trace-dir", help="directory for global and per-agent traces")
    p.add_argument("--max-steps", type=int, default=10_000)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("fmt", help="reprint a file of formulas in canonical syntax")
    p.add_argument("path")
    p.set_defaults(fn=cmd_fmt)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

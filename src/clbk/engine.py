"""Runs a converted proof as an interactive game: machine moves come from the proof, its
strategy annotations and copy-cat; environment moves come from peers, scripts and stand-ins."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .formula import (
    And,
    Chand,
    Chor,
    Elementary,
    EnvAnn,
    Formula,
    General,
    Hybrid,
    Implies,
    NEGATIVE,
    Not,
    Or,
    POSITIVE,
    Truth,
    agent_ids,
    atom_name,
    env_chooses,
    surface_occurrences,
)
from .games import GameDef, Heuristic, Labmove, Player, Run, Script, flip_run, subrun
from .prover import ProofTree, RuleB, RuleC, verify_proof

__all__ = [
    "Binding",
    "EngineError",
    "Session",
    "Status",
    "coffee_heuristic",
    "dollar_heuristic",
    "env_move",
    "evaluate_winner",
    "machine_turn",
    "new_session",
    "pump_environment",
    "pump_machine",
    "step",
    "subrun",
]

from .games import coffee_heuristic, dollar_heuristic  # re-exported with the engine API


class EngineError(RuntimeError):
    pass


class Status(Enum):
    RUNNING = "running"
    QUIESCENT = "quiescent"
    FINISHED = "finished"


@dataclass
class Binding:
    """Per-occurrence game wiring. The heuristic sits on the local machine seat, the script
    on the local environment seat; which session label that maps to depends on polarity."""

    spec: str
    game: GameDef
    polarity: int
    env: str | None
    heuristic: Heuristic | None = None
    script: Script | None = None
    script_pos: int = 0
    heuristic_fired: bool = False


Outgoing = list[tuple[Optional[str], Labmove]]


@dataclass
class Session:
    owner: str
    tree: ProofTree
    formula: Formula
    node: ProofTree
    run: list[Labmove] = field(default_factory=list)
    bindings: dict[str, Binding] = field(default_factory=dict)
    games: dict[str, GameDef] = field(default_factory=dict)
    heuristics: dict[str, Heuristic] = field(default_factory=dict)
    scripts: dict[str, Script] = field(default_factory=dict)
    interpretation: dict[str, bool] = field(default_factory=dict)
    inbox: deque[Labmove] = field(default_factory=deque)
    status: Status = Status.RUNNING
    winner: Player | None = None
    listener: Callable[["Session", Labmove], None] | None = None

    @property
    def counterparties(self) -> list[str]:
        """Agents named in the session formula; all of them take part in the play."""
        return agent_ids(self.formula)

    def deliver(self, lm: Labmove) -> None:
        self.inbox.append(lm)
        if self.status is Status.QUIESCENT:
            self.status = Status.RUNNING

    def append(self, lm: Labmove) -> None:
        self.run.append(lm)
        if self.listener:
            self.listener(self, lm)

    def local_run(self, spec: str, polarity: int) -> Run:
        sub = subrun(tuple(self.run), spec)
        return flip_run(sub) if polarity == NEGATIVE else sub


def _occurrence_binding(session: Session, occ) -> Binding:
    name = atom_name(occ.node)
    game = session.games.get(name)
    heuristic = None
    script = None
    note = occ.node.note
    if note is not None:
        if note.kind == "h":
            heuristic = session.heuristics.get(note.name)
            if heuristic is None and game is not None:
                heuristic = game.default_heuristic
        else:
            script = session.scripts.get(note.name)
    if game is None:
        raise EngineError(f"no game bound for atom {name!r} at occurrence {occ.spec!r}")
    return Binding(occ.spec, game, occ.polarity, occ.env, heuristic, script)


def _refresh_bindings(session: Session) -> None:
    fresh: dict[str, Binding] = {}
    for occ in surface_occurrences(session.formula, "atom"):
        old = session.bindings.get(occ.spec)
        if old is not None:
            fresh[occ.spec] = old
        else:
            fresh[occ.spec] = _occurrence_binding(session, occ)
    session.bindings = fresh


def new_session(
    tree: ProofTree,
    *,
    owner: str = "machine",
    games: dict[str, GameDef] | None = None,
    heuristics: dict[str, Heuristic] | None = None,
    scripts: dict[str, Script] | None = None,
    bindings: dict[str, Binding] | None = None,
    interpretation: dict[str, bool] | None = None,
    winnable: frozenset[str] = frozenset(),
    check: bool = True,
) -> Session:
    """Open a session on a converted proof; every general/hybrid occurrence must resolve a game."""
    if check and not verify_proof(tree, winnable=winnable):
        raise EngineError("proof tree does not verify")
    session = Session(
        owner=owner,
        tree=tree,
        formula=tree.conclusion,
        node=tree,
        games=dict(games or {}),
        heuristics=dict(heuristics or {}),
        scripts=dict(scripts or {}),
        interpretation=dict(interpretation or {}),
    )
    if bindings:
        session.bindings.update(bindings)
    _refresh_bindings(session)
    return session


def machine_turn(session: Session) -> Outgoing:
    """Walk choice and pairing nodes until the session rests at a closure node, emitting the
    committed choice moves and the copy-cat replay of already-played subruns."""
    out: Outgoing = []
    while True:
        rule = session.node.rule
        if isinstance(rule, RuleB):
            lm = Labmove(Player.MACHINE, rule.spec, str(rule.branch))
            session.append(lm)
            out.append((rule.env, lm))
        elif isinstance(rule, RuleC):
            pi, nu = rule.pos_spec, rule.neg_spec
            run = tuple(session.run)
            nu_payloads = [m.payload for m in subrun(run, nu) if m.player is Player.ENVIRONMENT and not m.is_choice()]
            pi_payloads = [m.payload for m in subrun(run, pi) if m.player is Player.ENVIRONMENT and not m.is_choice()]
            env_of = {occ.spec: occ.env for occ in surface_occurrences(session.formula, "atom")}
            for spec, payloads in ((pi, nu_payloads), (nu, pi_payloads)):
                for payload in payloads:
                    lm = Labmove(Player.MACHINE, spec, payload)
                    session.append(lm)
                    out.append((env_of.get(spec), lm))
        else:
            return out
        session.node = session.node.premises[0]
        session.formula = session.node.conclusion
        _refresh_bindings(session)


def env_move(session: Session, lm: Labmove) -> Outgoing:
    """Process one environment move at a closure node: record it at a general atom, copy-cat
    it at a hybrid atom, follow the chosen branch at a live choice; anything else is ignored."""
    if lm.player is not Player.ENVIRONMENT:
        return []
    atoms = {occ.spec: occ for occ in surface_occurrences(session.formula, "atom")}
    occ = atoms.get(lm.spec)
    if occ is not None and not lm.is_choice():
        if isinstance(occ.node, General):
            session.append(lm)
            return []
        partners = [
            o
            for o in surface_occurrences(session.formula, "hybrid")
            if o.node.elementary == occ.node.elementary and o.spec != occ.spec
        ]
        if not partners:
            return []
        sigma = partners[0]
        session.append(lm)
        reply = Labmove(Player.MACHINE, sigma.spec, lm.payload)
        session.append(reply)
        return [(sigma.env, reply)]
    if lm.is_choice():
        branch = int(lm.payload)
        for choice in surface_occurrences(session.formula, "choice"):
            if choice.spec != lm.spec:
                continue
            if not env_chooses(choice) or not 1 <= branch <= len(choice.node.parts):
                return []
            index = session.node.premise_index or {}
            k = index.get((lm.spec, branch))
            if k is None:
                return []
            session.append(lm)
            session.node = session.node.premises[k]
            session.formula = session.node.conclusion
            _refresh_bindings(session)
            return machine_turn(session)
    return []


def pump_machine(session: Session) -> Outgoing:
    """Emit at most one machine move from the session's own strategy seats: a script payload
    on a negated occurrence (the owner speaking for the counterpart it answers to) or a
    heuristic answer on a positive one."""
    for binding in session.bindings.values():
        if binding.script is not None and binding.polarity == NEGATIVE:
            if binding.script_pos < len(binding.script.payloads):
                payload = binding.script.payloads[binding.script_pos]
                lm = Labmove(Player.MACHINE, binding.spec, payload)
                local = Labmove(Player.ENVIRONMENT, "", payload)
                if binding.game.legal(session.local_run(binding.spec, NEGATIVE), local):
                    binding.script_pos += 1
                    session.append(lm)
                    return [(binding.env, lm)]
        if binding.heuristic is not None and binding.polarity == POSITIVE:
            payload = binding.heuristic(session.local_run(binding.spec, POSITIVE))
            if payload is not None:
                lm = Labmove(Player.MACHINE, binding.spec, payload)
                binding.heuristic_fired = True
                session.append(lm)
                return [(binding.env, lm)]
    return []


def pump_environment(session: Session) -> Labmove | None:
    """Next environment move, polling in fixed order: delivered peer moves, then bound
    scripts, then heuristics standing in for the environment. None marks quiescence."""
    if session.inbox:
        return session.inbox.popleft()
    for binding in session.bindings.values():
        if binding.script is not None and binding.polarity == POSITIVE:
            if binding.script_pos < len(binding.script.payloads):
                payload = binding.script.payloads[binding.script_pos]
                binding.script_pos += 1
                return Labmove(Player.ENVIRONMENT, binding.spec, payload)
        if binding.heuristic is not None and binding.polarity == NEGATIVE:
            payload = binding.heuristic(session.local_run(binding.spec, NEGATIVE))
            if payload is not None:
                return Labmove(Player.ENVIRONMENT, binding.spec, payload)
    session.status = Status.QUIESCENT
    return None


def step(session: Session) -> tuple[bool, Outgoing]:
    """One deterministic scheduling step; progress is False exactly at quiescence."""
    if session.status is Status.FINISHED:
        return False, []
    session.status = Status.RUNNING
    out = machine_turn(session)
    progress = bool(out)
    moved = pump_machine(session)
    if moved:
        out.extend(moved)
        return True, out
    lm = pump_environment(session)
    if lm is not None:
        out.extend(env_move(session, lm))
        return True, out
    if progress:
        session.status = Status.RUNNING
    return progress, out


def run_to_quiescence(session: Session, max_steps: int = 10_000) -> Outgoing:
    out: Outgoing = []
    for _ in range(max_steps):
        progress, emitted = step(session)
        out.extend(emitted)
        if not progress:
            return out
    raise EngineError("step budget exhausted before quiescence")


def evaluate_winner(session: Session) -> Player:
    """Compose the winner over the final formula: games judge their subruns (labels flipped in
    negated positions), unresolved choices default against their owner, negation swaps."""
    if session.status is Status.RUNNING:
        raise EngineError("evaluate_winner called before quiescence")

    def ev(node: Formula, spec: str, sign: int) -> Player:
        match node:
            case Truth(v):
                return Player.MACHINE if v else Player.ENVIRONMENT
            case Elementary(name):
                return Player.MACHINE if session.interpretation.get(name, False) else Player.ENVIRONMENT
            case General(_, _) | Hybrid(_, _, _):
                binding = session.bindings[spec]
                return binding.game.winner(session.local_run(spec, sign))
            case Chand(_):
                return Player.MACHINE
            case Chor(_):
                return Player.ENVIRONMENT
            case Not(c):
                return ev(c, spec, -sign).flip()
            case EnvAnn(c, _):
                return ev(c, spec, sign)
            case And(l, r):
                lw = ev(l, spec + "1.", sign)
                rw = ev(r, spec + "2.", sign)
                return Player.MACHINE if lw is rw is Player.MACHINE else Player.ENVIRONMENT
            case Or(l, r):
                lw = ev(l, spec + "1.", sign)
                rw = ev(r, spec + "2.", sign)
                return Player.MACHINE if Player.MACHINE in (lw, rw) else Player.ENVIRONMENT
            case Implies(l, r):
                lw = ev(l, spec + "1.", -sign).flip()
                rw = ev(r, spec + "2.", sign)
                return Player.MACHINE if Player.MACHINE in (lw, rw) else Player.ENVIRONMENT
        raise EngineError(f"cannot evaluate {node!r}")

    winner = ev(session.formula, "", POSITIVE)
    session.status = Status.FINISHED
    session.winner = winner
    return winner

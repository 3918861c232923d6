"""Runs a converted proof as an interactive game: machine moves come from the proof, its
strategy annotations and copy-cat; environment moves come from peers, scripts and stand-ins.

Sessions are built with ``new_session``, which binds every surface atom occurrence from the
formula's notes; a caller that adds strategies sets ``heuristic``/``script`` on
``session.bindings`` afterwards, before the first step. Two invariants keep the state small.
Moves enter a session only through ``Session.append`` (or ``Session.deliver`` and then
``env_move``), which also files each move with the binding at its spec, in the game's local
roles: a positive occurrence holds the run's own ``Labmove`` objects, a negative one each move
flipped once, so a binding's local run is always at hand, ready-made. One seat rule serves
both players: ``_seat_move`` polls the bindings in order for the seats a player holds (the
local environment seat is the environment's at a positive occurrence and the machine's at a
negative one), and a heuristic is polled again only after a move is filed at its occurrence.
Moves leave a session only through ``Session.listener``, called once per appended move; the
driving functions report only whether they moved. ``_enter`` is the only place that changes
``node``, ``formula``, ``atoms`` and ``bindings``: it walks each conclusion once, when play
reaches its proof node. An environment choice at a closure node enters the closure premise at
its branch's position in ``premises_A``, the order in which the checker holds closure
premises."""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .classical import evaluate
from .formula import (
    Formula,
    General,
    Hybrid,
    Occurrence,
    POSITIVE,
    Truth,
    elementarize,
    substitute_paths,
    surface_occurrences,
)
from .games import GameDef, Heuristic, Labmove, Player, Run, Script, subrun
from .prover import ProofTree, RuleB, RuleC, premises_A, verify_proof

__all__ = [
    "Binding",
    "EngineError",
    "Session",
    "Status",
    "StepBudgetExceeded",
    "env_move",
    "evaluate_winner",
    "machine_turn",
    "new_session",
    "noted_heuristic",
    "pump_environment",
    "step",
    "subrun",
]


class EngineError(RuntimeError):
    pass


class StepBudgetExceeded(EngineError):
    """``run_to_quiescence`` took its ``max_steps`` steps and the session still moves."""


class Status(Enum):
    RUNNING = "running"
    QUIESCENT = "quiescent"
    FINISHED = "finished"


@dataclass
class Binding:
    """Per-occurrence game wiring, made by ``new_session`` (or when play reaches the
    occurrence) from its atom's note. The heuristic sits on the local machine seat, the script
    on the local environment seat; which session label that maps to depends on polarity.
    ``heuristic_fired`` records that the heuristic has answered, on either seat: the machine's
    at a positive occurrence or, as the environment's stand-in, at a negative one. ``local``
    holds the moves played at the occurrence since it was bound (the choice move that resolved
    it stays in ``run`` only) in the game's local roles (``Session.local_run``): the session's
    own ``Labmove`` objects at a positive occurrence, each move flipped once, when it is filed,
    at a negative one. The game and the heuristic read only each move's ``player``, ``key`` and
    ``value``.

    A heuristic is a pure function of the local run, so ``heuristic_idle_at`` records
    ``len(local)`` when it last returned None, and it is not polled again until a move is
    filed here. Strategies are therefore set before the first step: by ``new_session`` from
    the notes, or by the caller on ``session.bindings`` right after it."""

    spec: str
    game: GameDef
    polarity: int
    env: str | None
    heuristic: Heuristic | None = None
    script: Script | None = None
    script_pos: int = 0
    heuristic_fired: bool = False
    heuristic_idle_at: int = -1
    local: list[Labmove] = field(default_factory=list)


@dataclass
class Session:
    formula: Formula
    node: ProofTree
    run: list[Labmove] = field(default_factory=list)
    atoms: dict[str, Occurrence] = field(default_factory=dict)
    bindings: dict[str, Binding] = field(default_factory=dict)
    games: dict[str, GameDef] = field(default_factory=dict)
    heuristics: dict[str, Heuristic] = field(default_factory=dict)
    scripts: dict[str, Script] = field(default_factory=dict)
    interpretation: dict[str, bool] = field(default_factory=dict)
    inbox: deque[Labmove] = field(default_factory=deque)
    status: Status = Status.RUNNING
    listener: Callable[["Session", Labmove], None] | None = None

    def deliver(self, lm: Labmove) -> None:
        self.inbox.append(lm)
        if self.status is Status.QUIESCENT:
            self.status = Status.RUNNING

    def append(self, lm: Labmove) -> None:
        self.run.append(lm)
        binding = self.bindings.get(lm.spec)
        if binding is not None:
            binding.local.append(lm if binding.polarity == POSITIVE else Labmove(lm.player.flip(), lm.spec, lm.payload))
        if self.listener:
            self.listener(self, lm)

    def local_run(self, spec: str) -> Run:
        """The moves at occurrence ``spec`` in its game's local roles: the session's own moves,
        flipped when the occurrence is negative."""
        return tuple(self.bindings[spec].local)


def noted_heuristic(heuristics: dict[str, Heuristic], name: str, game: GameDef | None) -> Heuristic | None:
    """The heuristic an ``h=name`` note binds: the one so named, else ``game``'s default."""
    heuristic = heuristics.get(name)
    if heuristic is None and game is not None:
        heuristic = game.default_heuristic
    return heuristic


def _occurrence_binding(session: Session, occ) -> Binding:
    name = occ.node.name
    game = session.games.get(name)
    heuristic = None
    script = None
    note = occ.node.note
    if note is not None:
        if note.kind == "h":
            heuristic = noted_heuristic(session.heuristics, note.name, game)
        else:
            script = session.scripts.get(note.name)
    if game is None:
        raise EngineError(f"no game bound for atom {name!r} at occurrence {occ.spec!r}")
    return Binding(occ.spec, game, occ.polarity, occ.env, heuristic, script)


def _enter(session: Session, node: ProofTree) -> None:
    """Move play to proof node ``node``: index its conclusion's surface atoms by spec, keep
    the bindings already made at those specs and bind the rest."""
    session.node = node
    session.formula = node.conclusion
    session.atoms = {occ.spec: occ for occ in surface_occurrences(node.conclusion, "atom")}
    old = session.bindings
    session.bindings = {
        spec: old[spec] if spec in old else _occurrence_binding(session, occ) for spec, occ in session.atoms.items()
    }


def new_session(
    tree: ProofTree,
    *,
    games: dict[str, GameDef] | None = None,
    heuristics: dict[str, Heuristic] | None = None,
    scripts: dict[str, Script] | None = None,
    interpretation: dict[str, bool] | None = None,
    winnable: frozenset[str] = frozenset(),
    check: bool = True,
) -> Session:
    """Open a session on a converted proof and bind every surface atom occurrence: its game by
    atom name, and the heuristic or script its note names. Every occurrence must resolve a game."""
    if check and not verify_proof(tree, winnable=winnable):
        raise EngineError("proof tree does not verify")
    session = Session(
        formula=tree.conclusion,
        node=tree,
        games=dict(games or {}),
        heuristics=dict(heuristics or {}),
        scripts=dict(scripts or {}),
        interpretation=dict(interpretation or {}),
    )
    _enter(session, tree)
    return session


def machine_turn(session: Session) -> bool:
    """Walk choice and pairing nodes until the session rests at a closure node, playing the
    committed choice moves and the copy-cat replay of already-played subruns; True if it moved."""
    moved = False
    while True:
        rule = session.node.rule
        if isinstance(rule, RuleB):
            session.append(Labmove(Player.MACHINE, rule.spec, str(rule.branch)))
            moved = True
        elif isinstance(rule, RuleC):
            # The environment's moves so far, in local roles: the machine's at the negative nu.
            pi, nu = session.bindings[rule.pos_spec], session.bindings[rule.neg_spec]
            replays = [
                (pi, [m.payload for m in nu.local if m.player is Player.MACHINE]),
                (nu, [m.payload for m in pi.local if m.player is Player.ENVIRONMENT]),
            ]
            for to, payloads in replays:
                for payload in payloads:
                    session.append(Labmove(Player.MACHINE, to.spec, payload))
                    moved = True
        else:
            return moved
        _enter(session, session.node.premises[0])


def env_move(session: Session, lm: Labmove) -> None:
    """Process one environment move at a closure node: record it at a general atom, copy-cat it
    at a hybrid atom, enter the premise of a branch ``premises_A`` lists; ignore anything else."""
    if lm.player is not Player.ENVIRONMENT:
        return
    occ = session.atoms.get(lm.spec)
    if occ is not None and not lm.is_choice():
        if isinstance(occ.node, General):
            session.append(lm)
            return
        partners = (
            o
            for o in session.atoms.values()
            if isinstance(o.node, Hybrid) and o.node.elementary == occ.node.elementary and o.spec != occ.spec
        )
        sigma = next(partners, None)
        if sigma is not None:
            session.append(lm)
            session.append(Labmove(Player.MACHINE, sigma.spec, lm.payload))
        return
    if lm.is_choice():
        for entry, premise in zip(premises_A(session.formula), session.node.premises):
            if (entry.spec, entry.branch) == (lm.spec, int(lm.payload)):
                session.append(lm)
                _enter(session, premise)
                machine_turn(session)
                return


def _seat_move(session: Session, player: Player) -> Labmove | None:
    """The next move ``player`` plays from one of its strategy seats, polling the bindings in
    order. ``player`` holds an occurrence's local environment seat where it is the environment
    at a positive occurrence or the machine at a negative one, and plays the script there (the
    machine only a legal payload, speaking for the counterpart it answers to); on the local
    machine seat it plays the heuristic's answer. None if no seat of ``player`` has a move."""
    env = player is Player.ENVIRONMENT
    for binding in session.bindings.values():
        if (binding.polarity == POSITIVE) == env:
            script = binding.script
            if script is not None and binding.script_pos < len(script.payloads):
                payload = script.payloads[binding.script_pos]
                if env or binding.game.legal(session.local_run(binding.spec), Labmove(Player.ENVIRONMENT, "", payload)):
                    binding.script_pos += 1
                    return Labmove(player, binding.spec, payload)
        elif binding.heuristic is not None and binding.heuristic_idle_at != len(binding.local):
            # a move was filed since it last passed
            payload = binding.heuristic(session.local_run(binding.spec))
            if payload is not None:
                binding.heuristic_fired = True
                return Labmove(player, binding.spec, payload)
            binding.heuristic_idle_at = len(binding.local)
    return None


def pump_environment(session: Session) -> Labmove | None:
    """Next environment move: a delivered peer move, else one from the environment's strategy
    seats (a script, or a heuristic standing in for the environment). None marks quiescence."""
    if session.inbox:
        return session.inbox.popleft()
    lm = _seat_move(session, Player.ENVIRONMENT)
    if lm is None:
        session.status = Status.QUIESCENT
    return lm


def step(session: Session) -> bool:
    """One deterministic scheduling step; False exactly at quiescence."""
    if session.status is Status.FINISHED:
        return False
    session.status = Status.RUNNING
    progress = machine_turn(session)
    lm = _seat_move(session, Player.MACHINE)
    if lm is not None:
        session.append(lm)
        return True
    lm = pump_environment(session)
    if lm is not None:
        env_move(session, lm)
        return True
    if progress:
        session.status = Status.RUNNING
    return progress


def run_to_quiescence(session: Session, max_steps: int = 10_000) -> None:
    for _ in range(max_steps):
        if not step(session):
            return
    raise StepBudgetExceeded("step budget exhausted before quiescence")


def evaluate_winner(session: Session) -> Player:
    """Compose the winner over the final formula by classical evaluation: each surface atom
    becomes T exactly when its game's winner on the local run is the machine, surface choices
    elementarize (unresolved ones default against their owner), and elementary atoms take the
    interpretation, false where it is silent."""
    if session.status is Status.RUNNING:
        raise EngineError("evaluate_winner called before quiescence")
    f = substitute_paths(
        session.formula,
        {
            occ.path: Truth(session.bindings[spec].game.winner(session.local_run(spec)) is Player.MACHINE)
            for spec, occ in session.atoms.items()
        },
    )
    valuation = defaultdict(bool, session.interpretation)
    winner = Player.MACHINE if evaluate(elementarize(f), valuation) else Player.ENVIRONMENT
    session.status = Status.FINISHED
    return winner

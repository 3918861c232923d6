"""Runs a converted proof as an interactive game: machine moves come from the proof, its
strategy annotations and copy-cat; environment moves come from peers, scripts and stand-ins.

Sessions are built with ``new_session``, which binds every surface atom occurrence from the
formula's notes; a caller that adds strategies sets ``heuristic``/``script`` on
``session.bindings`` afterwards, before the first step. Two invariants keep the state small.
Moves enter a session only through ``Session.append`` (a delivered move, when ``step`` hands it
to ``env_move``), which also files each move with the binding at its spec, so a binding's run is
always at hand. A move exists once: every binding holds the run's own ``Labmove`` objects, and a
negated occurrence swaps the two players' roles by reading them through ``Binding.machine``, the
session player on its local machine seat, not by a flipped copy. Every copied or scripted move is
a ``Labmove.relabeled`` copy, so the engine parses a payload only where it enters play: a
heuristic's answer or a committed choice. One seat rule serves both players: ``_seat_move`` polls
the bindings in order for the seats a player holds (the local environment seat is the
environment's at a positive occurrence and the machine's at a negative one), and a heuristic is
polled again only after a move is filed at its occurrence.
Moves leave a session only through ``Session.listener``, called once per appended move; the
driving functions report only whether they moved. ``_enter`` is the only place that changes
``node`` (whose conclusion is ``formula``), ``atoms`` and ``bindings``, when play reaches a proof
node. It reads the conclusion's surface walk through ``surface_occurrences``, which keeps one
walk per formula, so ``_enter``, ``verify_proof``'s ``premises_A`` and the simulator's seat
pairing share one walk of a conclusion and its ``Occurrence`` objects. An environment
choice at a closure node enters the closure premise at its branch's position in ``premises_A``,
the order in which the checker holds closure premises. Once the session rests, the winner is
one fold over the final formula (``evaluate_winner``): each binding's game is read once for
its verdict (``read_verdicts``), straight from its run, and the connectives fold those
verdicts to one Boolean, as the winner of a parallel composition is a Boolean function of its
components' winners."""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Callable

from .formula import (
    CHOICE_KINDS,
    And,
    Chand,
    Elementary,
    EnvAnn,
    Formula,
    General,
    Hybrid,
    Implies,
    Not,
    Occurrence,
    Or,
    POSITIVE,
    Truth,
    env_chooses,
    occurrence_at,
    surface_occurrences,
)
from .games import GameDef, Heuristic, Labmove, Player, Run, Script, Verdict
from .games import subrun  # unused here; re-exported so that perfbench/tracing.py can wrap ``engine.subrun``
from .prover import ProofTree, RuleA, RuleB, RuleC, premises_A, verify_proof
from .records import Record


class EngineError(RuntimeError):
    pass


class StepBudgetExceeded(EngineError):
    """``run_to_quiescence`` took its ``max_steps`` steps and the session still moves."""


class Status(Enum):
    RUNNING = "running"
    QUIESCENT = "quiescent"
    FINISHED = "finished"


class Binding(Record):
    """Per-occurrence game wiring, made by ``new_session`` (or when play reaches the
    occurrence) from its atom's note. The heuristic sits on the local machine seat, the script
    on the local environment seat; which session label that maps to depends on polarity.
    ``machine`` is the session player on the local machine seat, set from ``polarity`` when made:
    ``MACHINE`` at a positive occurrence, ``ENVIRONMENT`` at a negative one.
    ``heuristic_fired`` records that the heuristic has answered, on either seat: the machine's
    at a positive occurrence or, as the environment's stand-in, at a negative one. ``local``
    holds the session's own ``Labmove`` objects played at the occurrence since it was bound
    (the choice move that resolved it stays in ``run`` only), at either polarity; the game and
    the heuristic read it through ``machine``, and only each move's ``player``, ``key`` and
    ``value``.

    A heuristic is a pure function of the run and ``machine``, so ``heuristic_idle_at`` records
    ``len(local)`` when it last returned None, and it is not polled again until a move is
    filed here. Strategies are therefore set before the first step: by ``new_session`` from
    the notes, or by the caller on ``session.bindings`` right after it."""

    __match_args__ = (
        "spec", "game", "polarity", "env", "heuristic", "script", "script_pos", "heuristic_fired",
        "heuristic_idle_at", "local",
    )
    __slots__ = (*__match_args__, "machine")

    def __init__(
        self,
        spec: str,
        game: GameDef,
        polarity: int,
        env: str | None,
        heuristic: Heuristic | None = None,
        script: Script | None = None,
    ):
        self.spec = spec
        self.game = game
        self.polarity = polarity
        self.env = env
        self.heuristic = heuristic
        self.script = script
        self.script_pos = 0
        self.heuristic_fired = False
        self.heuristic_idle_at = -1
        self.local: list[Labmove] = []
        self.machine = Player.MACHINE if polarity == POSITIVE else Player.ENVIRONMENT


class Session(Record):
    __slots__ = __match_args__ = (
        "node", "run", "atoms", "bindings", "games", "heuristics", "scripts", "interpretation", "inbox",
        "status", "listener",
    )

    def __init__(
        self,
        node: ProofTree,
        games: dict[str, GameDef],
        heuristics: dict[str, Heuristic],
        scripts: dict[str, Script],
        interpretation: dict[str, bool],
    ):
        self.node = node
        self.run: list[Labmove] = []
        self.atoms: dict[str, Occurrence] = {}
        self.bindings: dict[str, Binding] = {}
        self.games = games
        self.heuristics = heuristics
        self.scripts = scripts
        self.interpretation = interpretation
        self.inbox: deque[Labmove] = deque()
        self.status = Status.RUNNING
        self.listener: Callable[[Session, Labmove], None] | None = None

    @property
    def formula(self) -> Formula:  # the conclusion of the proof node play rests at
        return self.node.conclusion

    def deliver(self, lm: Labmove) -> None:
        self.inbox.append(lm)
        if self.status is Status.QUIESCENT:
            self.status = Status.RUNNING

    def append(self, lm: Labmove) -> None:
        self.run.append(lm)
        binding = self.bindings.get(lm.spec)
        if binding is not None:
            binding.local.append(lm)
        if self.listener:
            self.listener(self, lm)

    def local_run(self, spec: str) -> Run:
        """The moves at occurrence ``spec`` in its game's local roles: the session's own moves,
        copied with their players flipped when the occurrence is negative."""
        binding = self.bindings[spec]
        if binding.machine is Player.MACHINE:
            return tuple(binding.local)
        return tuple(lm.relabeled(lm.player.flip(), lm.spec) for lm in binding.local)


def _occurrence_binding(session: Session, occ) -> Binding:
    name = occ.node.name
    game = session.games.get(name)
    heuristic = None
    script = None
    note = occ.node.note
    if note is not None:
        if note.kind == "h":
            heuristic = session.heuristics.get(note.name)
        else:
            script = session.scripts.get(note.name)
    if game is None:
        raise EngineError(f"no game bound for atom {name!r} at occurrence {occ.spec!r}")
    return Binding(occ.spec, game, occ.polarity, occ.env, heuristic, script)


def _enter(session: Session, node: ProofTree) -> None:
    """Move play to proof node ``node``: index its conclusion's surface atoms by spec, keep
    the bindings already made at those specs and bind the rest."""
    session.node = node
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
) -> Session:
    """Open a session on a converted proof that ``verify_proof`` accepts and bind every surface
    atom occurrence: its game by atom name, and the heuristic or script its note names. Every
    occurrence must resolve a game."""
    if not verify_proof(tree, winnable=winnable):
        raise EngineError("proof tree does not verify")
    session = Session(
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
            # Each side takes the environment's moves so far at the other, both read before either is copied.
            pi, nu = session.bindings[rule.pos_spec], session.bindings[rule.neg_spec]
            env = Player.ENVIRONMENT
            replays = [(pi, [m for m in nu.local if m.player is env]), (nu, [m for m in pi.local if m.player is env])]
            for to, moves in replays:
                for m in moves:
                    session.append(m.relabeled(Player.MACHINE, to.spec))
                    moved = True
        else:
            return moved
        _enter(session, session.node.premises[0])


def move_refusal(session: Session, lm: Labmove) -> str | None:
    """Why ``env_move`` does not apply ``lm``, or None when it does: when ``lm`` picks a branch
    of a choice the environment owns at the closure node where the session rests, or is any
    other move at a general atom or at a hybrid atom with a copy-cat partner."""
    if lm.player is not Player.ENVIRONMENT:
        return "not an environment move"
    choice = lm.is_choice()
    occ = None if choice else session.atoms.get(lm.spec)
    if occ is not None:
        return None if type(occ.node) is General or _partner(session, occ) else "no copy-cat partner"
    occ = occurrence_at(session.formula, lm.spec)
    if occ.spec != lm.spec:
        return "no occurrence there"
    if not choice:
        return "no game there"
    if type(session.node.rule) is not RuleA:
        return "not at a closure node"
    if type(occ.node) not in CHOICE_KINDS:
        return "no choice there"
    if not env_chooses(occ):
        return "the machine's choice"
    return None if 1 <= int(lm.payload) <= len(occ.node.parts) else f"no branch {lm.payload}"


def _partner(session: Session, occ: Occurrence) -> Occurrence | None:
    """The other surface occurrence of the hybrid atom at ``occ``, where copy-cat answers."""
    for o in session.atoms.values():
        if type(o.node) is Hybrid and o.node.elementary == occ.node.elementary and o.spec != occ.spec:
            return o
    return None


def env_move(session: Session, lm: Labmove) -> None:
    """Process one environment move at a closure node: record it at a general atom, copy-cat it
    at a hybrid atom, enter the premise of a branch ``premises_A`` lists; ignore any move that
    ``move_refusal`` refuses."""
    if move_refusal(session, lm) is not None:
        return
    session.append(lm)
    if lm.is_choice():
        branches = [(entry.spec, entry.branch) for entry in premises_A(session.formula)]
        _enter(session, session.node.premises[branches.index((lm.spec, int(lm.payload)))])
        machine_turn(session)
    elif type((occ := session.atoms[lm.spec]).node) is Hybrid:
        session.append(lm.relabeled(Player.MACHINE, _partner(session, occ).spec))


def _seat_move(session: Session, player: Player) -> Labmove | None:
    """The next move ``player`` plays from one of its strategy seats, polling the bindings in
    order. ``player`` holds an occurrence's local environment seat where it is the environment
    at a positive occurrence or the machine at a negative one, and plays the script there (the
    machine only a legal payload, speaking for the counterpart it answers to); on the local
    machine seat it plays the heuristic's answer. None if no seat of ``player`` has a move."""
    env = player is Player.ENVIRONMENT
    for binding in session.bindings.values():
        if player is not binding.machine:
            script = binding.script
            if script is not None and binding.script_pos < len(script.moves):
                move = script.moves[binding.script_pos].relabeled(player, binding.spec)
                if env or binding.game.legal(binding.local, move, binding.machine):
                    binding.script_pos += 1
                    return move
        elif binding.heuristic is not None and binding.heuristic_idle_at != len(binding.local):
            # a move was filed since it last passed
            payload = binding.heuristic(binding.local, binding.machine)
            if payload is not None:
                binding.heuristic_fired = True
                return Labmove(player, binding.spec, payload)
            binding.heuristic_idle_at = len(binding.local)
    return None


def step(session: Session) -> bool:
    """One deterministic scheduling step: the machine's turn, then one machine seat move, else one
    environment move, a delivered one first. False, and the session quiescent, exactly when idle."""
    if session.status is Status.FINISHED:
        return False
    session.status = Status.RUNNING
    progress = machine_turn(session)
    lm = _seat_move(session, Player.MACHINE)
    if lm is not None:
        session.append(lm)
        return True
    lm = session.inbox.popleft() if session.inbox else _seat_move(session, Player.ENVIRONMENT)
    if lm is not None:
        env_move(session, lm)
        return True
    if not progress:
        session.status = Status.QUIESCENT
    return progress


def run_to_quiescence(session: Session, max_steps: int = 10_000) -> None:
    for _ in range(max_steps):
        if not step(session):
            return
    raise StepBudgetExceeded("step budget exhausted before quiescence")


def read_verdicts(session: Session) -> dict[str, Verdict]:
    """Each binding's verdict, by spec, from one read of its run through its machine seat."""
    return {spec: binding.game.verdict(binding.local, binding.machine) for spec, binding in session.bindings.items()}


def evaluate_winner(session: Session, verdicts: dict[str, Verdict] | None = None) -> Player:
    """Compose the winner over the final formula in one walk, as a Boolean function of its
    games' verdicts (``verdicts``, by spec, else read here from each binding's run): a
    surface atom holds exactly when its game's winner is the machine, surface choices
    elementarize (unresolved ones default against their owner: a choice conjunction holds, a
    choice disjunction does not), and elementary atoms take the interpretation, false where it
    is silent."""
    if session.status is Status.RUNNING:
        raise EngineError("evaluate_winner called before quiescence")
    if verdicts is None:
        verdicts = read_verdicts(session)
    winner = Player.MACHINE if _holds(session.formula, "", verdicts, session.interpretation) else Player.ENVIRONMENT
    session.status = Status.FINISHED
    return winner


def _holds(f: Formula, spec: str, verdicts: dict[str, Verdict], interpretation: dict[str, bool]) -> bool:
    """Whether ``f``, sitting at surface spec ``spec``, holds (see ``evaluate_winner``). A
    module function, not a closure: a closure that calls itself is a reference cycle."""
    kind = type(f)  # a type test is cheaper than a match, and no subclasses exist
    if kind is And:
        if not _holds(f.left, spec + "1.", verdicts, interpretation):
            return False
        return _holds(f.right, spec + "2.", verdicts, interpretation)
    if kind is Or:
        if _holds(f.left, spec + "1.", verdicts, interpretation):
            return True
        return _holds(f.right, spec + "2.", verdicts, interpretation)
    if kind is Implies:
        if not _holds(f.left, spec + "1.", verdicts, interpretation):
            return True
        return _holds(f.right, spec + "2.", verdicts, interpretation)
    if kind is Not:
        return not _holds(f.child, spec, verdicts, interpretation)
    if kind is EnvAnn:
        return _holds(f.child, spec, verdicts, interpretation)
    if kind is General or kind is Hybrid:
        return verdicts[spec].winner is Player.MACHINE
    if kind is Truth:
        return f.value
    if kind is Elementary:
        return interpretation.get(f.name, False)
    return kind is Chand

"""Players, labelled moves, runs, game definitions, and the built-in coffee/dollar games."""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional


class Player(Enum):
    MACHINE = "T"
    ENVIRONMENT = "B"

    def flip(self) -> "Player":
        return Player.ENVIRONMENT if self is Player.MACHINE else Player.MACHINE

    def __str__(self) -> str:
        return self.value


_PAYLOAD_RE = re.compile(r"^([a-z][a-z0-9=]*|\d+)$")


@dataclass(frozen=True)
class Labmove:
    player: Player
    spec: str
    payload: str

    def __post_init__(self):
        if not _PAYLOAD_RE.match(self.payload):
            raise ValueError(f"bad move payload {self.payload!r}")

    def is_choice(self) -> bool:
        return self.payload.isdigit()

    def __str__(self) -> str:
        return f"{self.player.value}{self.spec}{self.payload}"


Run = tuple[Labmove, ...]


def subrun(run, spec: str) -> Run:
    """Labmoves whose spec extends ``spec``, with that prefix stripped, order preserved."""
    return tuple(
        Labmove(lm.player, lm.spec[len(spec):], lm.payload) for lm in run if lm.spec.startswith(spec)
    )


def flip_run(run) -> Run:
    return tuple(Labmove(lm.player.flip(), lm.spec, lm.payload) for lm in run)


Heuristic = Callable[[Run], Optional[str]]


@dataclass(frozen=True)
class Script:
    """Preprogrammed move payloads for one occurrence, consumed front to back."""

    payloads: tuple[str, ...]


@dataclass(frozen=True)
class GameDef:
    """A constant game over local roles: the environment challenges, the machine answers.

    ``legal``/``winner``/``complete`` take runs normalised to those local roles; the engine
    flips labels for occurrences played in negated positions. They, like heuristics, read
    only each move's ``player`` and ``payload``: a local run keeps its moves' session specs.
    """

    name: str
    legal: Callable[[Run, Labmove], bool]
    winner: Callable[[Run], Player]
    complete: Callable[[Run], bool]
    default_heuristic: Optional[Heuristic] = None


_KV_RE = re.compile(r"^([a-z])=(\d+)$")


def _field(run: Run, key: str, player: Player) -> int | None:
    for lm in run:
        m = _KV_RE.match(lm.payload)
        if m and m.group(1) == key and lm.player is player:
            return int(m.group(2))
    return None


def coffee_heuristic(run: Run, zmax: int) -> str | None:
    """Machine reply for the coffee game: once x and y are on the table and z is not,
    pick z in 1..zmax minimising |z - x*y - 1| (smallest on ties)."""
    x = _field(run, "x", Player.ENVIRONMENT)
    y = _field(run, "y", Player.ENVIRONMENT)
    z = _field(run, "z", Player.MACHINE)
    if x is None or y is None or z is not None:
        return None
    best = min(range(1, zmax + 1), key=lambda k: (abs(k - (x * y + 1)), k))
    return f"z={best}"


def dollar_heuristic(run: Run) -> str | None:
    """Machine reply for the dollar game: answer a pending v challenge with r = 2v."""
    v = _field(run, "v", Player.ENVIRONMENT)
    r = _field(run, "r", Player.MACHINE)
    if v is None or r is not None:
        return None
    return f"r={2 * v}"


def coffee_game(zmax: int = 10) -> GameDef:
    """Environment orders x sugar then y milk; the machine brews z spoons; the machine is in
    default only when a completed order got no z or a z with |z - x*y - 1| != 0."""

    def legal(run, lm):
        m = _KV_RE.match(lm.payload)
        if not m:
            return False
        key, value = m.group(1), int(m.group(2))
        x = _field(run, "x", Player.ENVIRONMENT)
        y = _field(run, "y", Player.ENVIRONMENT)
        z = _field(run, "z", Player.MACHINE)
        if key == "x":
            return lm.player is Player.ENVIRONMENT and x is None and value >= 1
        if key == "y":
            return lm.player is Player.ENVIRONMENT and x is not None and y is None and value >= 1
        if key == "z":
            return lm.player is Player.MACHINE and x is not None and y is not None and z is None and 1 <= value <= zmax
        return False

    def winner(run):
        x = _field(run, "x", Player.ENVIRONMENT)
        y = _field(run, "y", Player.ENVIRONMENT)
        z = _field(run, "z", Player.MACHINE)
        if x is None or y is None:
            return Player.MACHINE
        if z is not None and z == x * y + 1:
            return Player.MACHINE
        return Player.ENVIRONMENT

    def complete(run):
        return (
            _field(run, "x", Player.ENVIRONMENT) is not None
            and _field(run, "y", Player.ENVIRONMENT) is not None
            and _field(run, "z", Player.MACHINE) is not None
        )

    return GameDef("coffee", legal, winner, complete, lambda run: coffee_heuristic(run, zmax))


def dollar_game(vmax: int = 5) -> GameDef:
    """Environment requests note v in 1..vmax; the machine must pay r = 2v."""

    def legal(run, lm):
        m = _KV_RE.match(lm.payload)
        if not m:
            return False
        key, value = m.group(1), int(m.group(2))
        v = _field(run, "v", Player.ENVIRONMENT)
        r = _field(run, "r", Player.MACHINE)
        if key == "v":
            return lm.player is Player.ENVIRONMENT and v is None and 1 <= value <= vmax
        if key == "r":
            return lm.player is Player.MACHINE and v is not None and r is None
        return False

    def winner(run):
        v = _field(run, "v", Player.ENVIRONMENT)
        r = _field(run, "r", Player.MACHINE)
        if v is None:
            return Player.MACHINE
        if r is not None and r == 2 * v:
            return Player.MACHINE
        return Player.ENVIRONMENT

    def complete(run):
        return _field(run, "v", Player.ENVIRONMENT) is not None and _field(run, "r", Player.MACHINE) is not None

    return GameDef("dollar", legal, winner, complete, dollar_heuristic)


GAME_FACTORIES = {"coffee": coffee_game, "dollar": dollar_game}

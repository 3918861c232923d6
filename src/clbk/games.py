"""Players, labelled moves, runs, and the one challenge-and-answer game definition that the
built-in coffee and dollar games share."""

from __future__ import annotations

import re
# not typing.Callable, whose cache would keep Run's Labmove, and so this module, alive after a re-import
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from math import inf
from typing import Optional


class Player(Enum):
    MACHINE = "T"
    ENVIRONMENT = "B"

    def flip(self) -> "Player":
        return Player.ENVIRONMENT if self is Player.MACHINE else Player.MACHINE

    def __str__(self) -> str:
        return self.value


# The whole payload grammar: a word ``[a-z][a-z0-9=]*`` or a choice ``[0-9]+``; a word of
# the form ``k=N`` (one letter, digits) also reads as a key and a value.
_PAYLOAD_RE = re.compile(r"([a-z])=([0-9]+)|[a-z][a-z0-9=]*|[0-9]+")


@dataclass(frozen=True)
class Labmove:
    """One move. Its payload is checked against the grammar and parsed once, here: ``key``
    and ``value`` hold a ``k=N`` payload's key and value, or None; they take no part in
    equality or hashing."""

    player: Player
    spec: str
    payload: str
    key: str | None = field(init=False, compare=False, repr=False)
    value: int | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        m = _PAYLOAD_RE.fullmatch(self.payload)
        if m is None:
            raise ValueError(f"bad move payload {self.payload!r}")
        key, digits = m.groups()
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "value", None if digits is None else int(digits))

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


# A heuristic is a pure function of its occurrence's local run: the engine polls it again
# only after a move is filed at that occurrence, so it must not read anything else.
Heuristic = Callable[[Run], Optional[str]]


@dataclass(frozen=True)
class Script:
    """Preprogrammed move payloads for one occurrence, consumed front to back."""

    payloads: tuple[str, ...]


@dataclass(frozen=True)
class GameDef:
    """A constant game over local roles: the environment asks, the machine answers.

    The environment makes the ``asks`` in order, each a ``(key, bound)`` with a value in
    1..bound; then the machine gives one ``answer`` with a value in ``answer_range``. The
    machine wins unless every ask was made and the answer is missing or differs from
    ``correct`` of the asked values. Only the first move of each key by the player who owns
    it counts: the environment owns the asks, the machine the answer.

    ``legal``/``winner``/``complete``/``default_heuristic`` take runs normalised to those
    local roles; the engine flips labels for occurrences played in negated positions. They
    read only each move's ``player``, ``key`` and ``value``: a local run keeps its moves'
    session specs.
    """

    name: str
    asks: tuple[tuple[str, float], ...]
    answer: str
    answer_range: tuple[int, float]
    correct: Callable[..., int]

    def _read(self, run: Run) -> dict[str, int]:
        """The value of the first move of each key by the player who owns that key."""
        seen: dict[str, int] = {}
        for lm in run:
            key = lm.key
            if key is not None and key not in seen and (key == self.answer) == (lm.player is Player.MACHINE):
                seen[key] = lm.value
        return seen

    def _asked(self, seen: dict[str, int]) -> list[int] | None:
        """The asked values in order, or None while an ask is missing."""
        values = [seen.get(key) for key, _ in self.asks]
        return None if None in values else values

    def legal(self, run: Run, lm: Labmove) -> bool:
        seen = self._read(run)
        for key, bound in self.asks:
            if lm.key == key:
                return lm.player is Player.ENVIRONMENT and key not in seen and 1 <= lm.value <= bound
            if key not in seen:
                return False
        lo, hi = self.answer_range
        return lm.key == self.answer and lm.player is Player.MACHINE and lm.key not in seen and lo <= lm.value <= hi

    def winner(self, run: Run) -> Player:
        seen = self._read(run)
        asked = self._asked(seen)
        if asked is None or seen.get(self.answer) == self.correct(*asked):
            return Player.MACHINE
        return Player.ENVIRONMENT

    def complete(self, run: Run) -> bool:
        seen = self._read(run)
        return self.answer in seen and self._asked(seen) is not None

    def default_heuristic(self, run: Run) -> str | None:
        """Answer a completed ask with ``correct`` of its values, clamped to ``answer_range``."""
        seen = self._read(run)
        asked = None if self.answer in seen else self._asked(seen)
        if asked is None:
            return None
        lo, hi = self.answer_range
        return f"{self.answer}={min(max(self.correct(*asked), lo), hi)}"


def coffee_game(zmax: int = 10) -> GameDef:
    """Environment orders x sugar then y milk; the machine brews z in 1..zmax, and z = x*y+1 wins."""
    return GameDef("coffee", (("x", inf), ("y", inf)), "z", (1, zmax), lambda x, y: x * y + 1)


def dollar_game(vmax: int = 5) -> GameDef:
    """Environment requests note v in 1..vmax; the machine must pay r = 2v, any r >= 0 being legal."""
    return GameDef("dollar", (("v", vmax),), "r", (0, inf), lambda v: 2 * v)


GAME_FACTORIES = {"coffee": coffee_game, "dollar": dollar_game}

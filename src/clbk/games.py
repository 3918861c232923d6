"""Players, labelled moves, runs, and the one challenge-and-answer game definition that the
built-in coffee and dollar games share."""

from __future__ import annotations

import re
# not typing.Callable, whose cache would keep Run's Labmove, and so this module, alive after a re-import
from collections.abc import Callable, Sequence
from enum import Enum
from math import inf
from typing import NamedTuple, Optional

from .records import Frozen, set_field


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


class Labmove(Frozen):
    """One move. Its payload is checked against the grammar and parsed once, here: ``key``
    and ``value`` hold a ``k=N`` payload's key and value, or None; they are no fields, so
    they take no part in equality, hashing or printing. A move with the same payload for
    another player or at another spec is made by ``relabeled``, which carries the parse
    over: every relay, copy-cat and script move is such a copy, so a payload is parsed where
    it enters play (a script when it is built, a heuristic's answer, an interactive line, a
    committed choice)."""

    __match_args__ = ("player", "spec", "payload")
    __slots__ = (*__match_args__, "key", "value")

    def __init__(self, player: Player, spec: str, payload: str):
        m = _PAYLOAD_RE.fullmatch(payload)
        if m is None:
            raise ValueError(f"bad move payload {payload!r}")
        key, digits = m.groups()
        _set_player(self, player)
        _set_spec(self, spec)
        _set_payload(self, payload)
        _set_key(self, key)
        _set_value(self, None if digits is None else int(digits))

    def relabeled(self, player: Player, spec: str) -> Labmove:
        """This move played by ``player`` at ``spec``, its payload's parse carried over."""
        copy = object.__new__(Labmove)
        _set_player(copy, player)
        _set_spec(copy, spec)
        _set_payload(copy, self.payload)
        _set_key(copy, self.key)
        _set_value(copy, self.value)
        return copy

    def is_choice(self) -> bool:
        return self.payload.isdigit()

    def __str__(self) -> str:
        return f"{self.player._value_}{self.spec}{self.payload}"


# each slot's own setter, which costs less than set_field's lookup of the slot by name
_set_player, _set_spec, _set_payload, _set_key, _set_value = (
    Labmove.__dict__[name].__set__ for name in Labmove.__slots__
)


Run = Sequence[Labmove]  # a tuple, or a binding's live list


def subrun(run, spec: str) -> Run:
    """Labmoves whose spec extends ``spec``, with that prefix stripped, order preserved."""
    return tuple(lm.relabeled(lm.player, lm.spec[len(spec):]) for lm in run if lm.spec.startswith(spec))


# A heuristic is a pure function of its occurrence's run and of ``machine``, the player on the
# occurrence's local machine seat: the engine polls it again only after a move is filed at that
# occurrence, so it must not read anything else. The run is the binding's live list of the
# session's own moves, so a heuristic must neither keep nor mutate it.
Heuristic = Callable[[Run, Player], Optional[str]]


class Script(Frozen):
    """Preprogrammed move payloads for one occurrence, consumed front to back. Each payload is
    checked against the grammar and parsed once, when the script is built: ``moves`` holds it
    as an environment ``Labmove`` at the empty spec (a ``ValueError`` for a bad payload), which
    the engine probes for legality and plays relabelled to its seat. ``moves`` is no field, so
    it takes no part in equality, hashing or printing."""

    __match_args__ = ("payloads",)
    __slots__ = (*__match_args__, "moves")

    def __init__(self, payloads: tuple[str, ...]):
        set_field(self, "payloads", payloads)
        set_field(self, "moves", tuple(Labmove(Player.ENVIRONMENT, "", payload) for payload in payloads))


class Verdict(NamedTuple):
    """What one read of a run decides: whether the game is played out, and who wins it."""

    complete: bool
    winner: Player


_verdict = tuple.__new__  # builds a Verdict from its tuple of fields, past NamedTuple's generated __new__


class GameDef(Frozen):
    """A constant game over local roles: the environment asks, the machine answers.

    The environment makes the ``asks`` in order, each a ``(key, bound)`` with a value in
    1..bound; then the machine gives one ``answer`` with a value in ``answer_range``. The
    machine wins unless every ask was made and the answer is missing or differs from
    ``correct`` of the asked values. Only the first move of each key by the player who owns
    it counts: the environment owns the asks, the machine the answer.

    ``legal``/``verdict``/``default_heuristic`` read a run through ``machine``, the player
    whose moves are the local machine's: ``MACHINE`` in local roles, ``ENVIRONMENT`` where the
    engine plays an occurrence in a negated position, the roles swapped without copying a move.
    They read only each move's ``player``, ``key`` and ``value``, and ``verdict``'s winner is in
    local roles. A run keeps its moves' session specs.
    """

    __slots__ = __match_args__ = ("name", "asks", "answer", "answer_range", "correct")

    def __init__(
        self,
        name: str,
        asks: tuple[tuple[str, float], ...],
        answer: str,
        answer_range: tuple[int, float],
        correct: Callable[..., int],
    ):
        set_field(self, "name", name)
        set_field(self, "asks", asks)
        set_field(self, "answer", answer)
        set_field(self, "answer_range", answer_range)
        set_field(self, "correct", correct)

    def _read(self, run: Run, machine: Player) -> dict[str, int]:
        """The value of the first move of each key by the player who owns that key."""
        seen: dict[str, int] = {}
        for lm in run:
            key = lm.key
            if key is not None and key not in seen and (key == self.answer) == (lm.player is machine):
                seen[key] = lm.value
        return seen

    def _asked(self, seen: dict[str, int]) -> list[int] | None:
        """The asked values in order, or None while an ask is missing."""
        values = [seen.get(key) for key, _ in self.asks]
        return None if None in values else values

    def legal(self, run: Run, lm: Labmove, machine: Player = Player.MACHINE) -> bool:
        seen = self._read(run, machine)
        for key, bound in self.asks:
            if lm.key == key:
                return lm.player is not machine and key not in seen and 1 <= lm.value <= bound
            if key not in seen:
                return False
        lo, hi = self.answer_range
        return lm.key == self.answer and lm.player is machine and lm.key not in seen and lo <= lm.value <= hi

    def verdict(self, run: Run, machine: Player = Player.MACHINE) -> Verdict:
        """Both verdicts from one read of ``run``: complete once every ask and the answer are
        made, won by the machine unless every ask was made and the answer is missing or wrong."""
        seen = self._read(run, machine)
        asked = self._asked(seen)
        if asked is None:
            return _verdict(Verdict, (False, Player.MACHINE))
        answer = seen.get(self.answer)
        winner = Player.MACHINE if answer == self.correct(*asked) else Player.ENVIRONMENT
        return _verdict(Verdict, (answer is not None, winner))

    def default_heuristic(self, run: Run, machine: Player = Player.MACHINE) -> str | None:
        """Answer a completed ask with ``correct`` of its values, clamped to ``answer_range``."""
        seen = self._read(run, machine)
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

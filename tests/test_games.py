import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clbk.games import (
    Labmove,
    Player,
    Script,
    coffee_game,
    dollar_game,
    subrun,
)
from genlib import flip_run

T, B = Player.MACHINE, Player.ENVIRONMENT


def lm(player, spec, payload):
    return Labmove(player, spec, payload)


def test_labmove_rendering():
    assert str(lm(T, "2.1.", "x=3")) == "T2.1.x=3"
    assert str(lm(B, "2.", "1")) == "B2.1"


def test_labmove_payload_validation():
    # a trailing newline would print the move across two lines; a non-ASCII digit is no choice
    for payload in ("BAD MOVE", "x=3\n", "١"):
        with pytest.raises(ValueError):
            Labmove(T, "1.", payload)


def test_labmove_reads_key_and_value_once():
    move = lm(B, "1.", "x=03")
    assert (move.key, move.value) == ("x", 3)
    for payload in ("xx=1", "x=1=2", "q", "12"):
        assert (lm(B, "", payload).key, lm(B, "", payload).value) == (None, None), payload
    assert move == lm(B, "1.", "x=03") and hash(move) == hash(lm(B, "1.", "x=03"))
    assert repr(move) == "Labmove(player=<Player.ENVIRONMENT: 'B'>, spec='1.', payload='x=03')"


_PAYLOADS = st.one_of(
    st.from_regex(r"[a-z]=[0-9]{1,3}", fullmatch=True),
    st.from_regex(r"[a-z][a-z0-9=]{0,4}", fullmatch=True),
    st.from_regex(r"[0-9]{1,3}", fullmatch=True),
)
_SPECS = st.from_regex(r"([1-9]\.){0,3}", fullmatch=True)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([T, B]), _SPECS, _PAYLOADS, st.sampled_from([T, B]), _SPECS)
def test_relabeled_copy_equals_a_fresh_move(player, spec, payload, to_player, to_spec):
    """A relabelled copy carries its payload's parse over, and is in every respect the move
    that parsing the payload afresh makes: still frozen, too."""
    copy = lm(player, spec, payload).relabeled(to_player, to_spec)
    fresh = lm(to_player, to_spec, payload)
    assert copy == fresh and hash(copy) == hash(fresh) and repr(copy) == repr(fresh)
    assert (copy.key, copy.value) == (fresh.key, fresh.value)
    with pytest.raises(AttributeError):
        copy.payload = "x=1"


def test_script_parses_its_payloads_when_built():
    script = Script(("x=3", "y=1"))
    assert script.moves == (lm(B, "", "x=3"), lm(B, "", "y=1"))
    assert (script.moves[0].key, script.moves[0].value) == ("x", 3)
    assert script == Script(("x=3", "y=1")) and repr(script) == "Script(payloads=('x=3', 'y=1'))"
    with pytest.raises(ValueError, match="bad move payload 'X=3'"):
        Script(("x=3", "X=3"))


def test_subrun_prefix_filter():
    run = (lm(B, "1.1.", "x=3"), lm(T, "2.1.", "x=3"))
    assert subrun(run, "1.1.") == (lm(B, "", "x=3"),)
    assert subrun(run, "") == run
    assert subrun(run, "3.") == ()


def test_subrun_does_not_mix_sibling_specs():
    run = (lm(B, "1.", "1"), lm(B, "12.", "x=1"))
    assert subrun(run, "1.") == (lm(B, "", "1"),)


def test_coffee_winner_rules():
    game = coffee_game(10)
    assert game.verdict(()).winner is T
    assert game.verdict((lm(B, "", "x=3"), lm(B, "", "y=1"), lm(T, "", "z=4"))).winner is T
    assert game.verdict((lm(B, "", "x=3"), lm(B, "", "y=1"), lm(T, "", "z=5"))).winner is B
    assert game.verdict((lm(B, "", "x=3"), lm(B, "", "y=1"))).winner is B
    assert game.verdict((lm(B, "", "x=3"),)).winner is T


def test_coffee_complete_and_legal():
    game = coffee_game(10)
    run = (lm(B, "", "x=3"), lm(B, "", "y=1"))
    assert not game.verdict(run).complete
    assert game.verdict(run + (lm(T, "", "z=4"),)).complete
    assert game.legal((), lm(B, "", "x=3"))
    assert not game.legal((), lm(B, "", "y=1"))
    assert not game.legal(run, lm(T, "", "z=11"))
    assert game.legal(run, lm(T, "", "z=10"))


def test_coffee_heuristic_examples():
    heuristic = coffee_game(10).default_heuristic
    x3y1 = (lm(B, "", "x=3"), lm(B, "", "y=1"))
    assert heuristic(x3y1) == "z=4"
    x4y2 = (lm(B, "", "x=4"), lm(B, "", "y=2"))
    assert heuristic(x4y2) == "z=9"
    x3y4 = (lm(B, "", "x=3"), lm(B, "", "y=4"))
    assert heuristic(x3y4) == "z=10"
    assert heuristic((lm(B, "", "x=3"),)) is None
    assert heuristic(x3y1 + (lm(T, "", "z=4"),)) is None


def test_coffee_heuristic_matches_the_scan():
    """The answer is the z in 1..zmax nearest x*y+1 (smallest on ties), as a scan over
    every z finds it. Payloads are unsigned, so x and y range over naturals."""
    for zmax in range(1, 31):
        heuristic = coffee_game(zmax).default_heuristic
        for x in range(9):
            for y in range(9):
                run = (lm(B, "", f"x={x}"), lm(B, "", f"y={y}"))
                best = min(range(1, zmax + 1), key=lambda k: (abs(k - (x * y + 1)), k))
                assert heuristic(run) == f"z={best}"


def test_coffee_heuristic_answers_at_once_under_a_huge_bound():
    run = (lm(B, "", "x=3"), lm(B, "", "y=4"))
    heuristic = coffee_game(10**12).default_heuristic
    start = time.perf_counter()
    assert heuristic(run) == "z=13"
    assert time.perf_counter() - start < 0.1


def test_dollar_game_and_heuristic():
    game = dollar_game(5)
    assert game.verdict(()).winner is T
    assert game.verdict((lm(B, "", "v=2"), lm(T, "", "r=4"))).winner is T
    assert game.verdict((lm(B, "", "v=2"), lm(T, "", "r=5"))).winner is B
    assert game.verdict((lm(B, "", "v=2"),)).winner is B
    assert game.default_heuristic((lm(B, "", "v=3"),)) == "r=6"
    assert game.default_heuristic(()) is None
    assert not game.legal((), lm(B, "", "v=6"))


# Reference games: the coffee and dollar games as closures over a regex scan of the run,
# one scan per field read. The property below holds the shared GameDef to their verdicts.

_KV_RE = re.compile(r"^([a-z])=(\d+)$")


def _field(run, key, player):
    for move in run:
        m = _KV_RE.match(move.payload)
        if m and m.group(1) == key and move.player is player:
            return int(m.group(2))
    return None


def _reference_coffee(zmax):
    def heuristic(run):
        x = _field(run, "x", B)
        y = _field(run, "y", B)
        z = _field(run, "z", T)
        if x is None or y is None or z is not None:
            return None
        return f"z={min(max(x * y + 1, 1), zmax)}"

    def legal(run, move):
        m = _KV_RE.match(move.payload)
        if not m:
            return False
        key, value = m.group(1), int(m.group(2))
        x = _field(run, "x", B)
        y = _field(run, "y", B)
        z = _field(run, "z", T)
        if key == "x":
            return move.player is B and x is None and value >= 1
        if key == "y":
            return move.player is B and x is not None and y is None and value >= 1
        if key == "z":
            return move.player is T and x is not None and y is not None and z is None and 1 <= value <= zmax
        return False

    def winner(run):
        x = _field(run, "x", B)
        y = _field(run, "y", B)
        z = _field(run, "z", T)
        if x is None or y is None:
            return T
        if z is not None and z == x * y + 1:
            return T
        return B

    def complete(run):
        return _field(run, "x", B) is not None and _field(run, "y", B) is not None and _field(run, "z", T) is not None

    return legal, winner, complete, heuristic


def _reference_dollar(vmax):
    def heuristic(run):
        v = _field(run, "v", B)
        r = _field(run, "r", T)
        if v is None or r is not None:
            return None
        return f"r={2 * v}"

    def legal(run, move):
        m = _KV_RE.match(move.payload)
        if not m:
            return False
        key, value = m.group(1), int(m.group(2))
        v = _field(run, "v", B)
        r = _field(run, "r", T)
        if key == "v":
            return move.player is B and v is None and 1 <= value <= vmax
        if key == "r":
            return move.player is T and v is not None and r is None
        return False

    def winner(run):
        v = _field(run, "v", B)
        r = _field(run, "r", T)
        if v is None:
            return T
        if r is not None and r == 2 * v:
            return T
        return B

    def complete(run):
        return _field(run, "v", B) is not None and _field(run, "r", T) is not None

    return legal, winner, complete, heuristic


GAMES = [(coffee_game, _reference_coffee, zmax, {"x": B, "y": B, "z": T}) for zmax in (1, 3, 10)]
GAMES += [(dollar_game, _reference_dollar, vmax, {"v": B, "r": T}) for vmax in (1, 5)]


@st.composite
def _game_and_moves(draw):
    """A game, a run and a next move. Half the moves are the game's own keys played by their
    owners, so runs get played through; the rest mix both players, every key of both games
    (so repeated keys and keys of the wrong player or game), words that are not ``k=N`` and
    choice digits. Values sit around the bound, and include each game's correct answers."""
    factory, reference, bound, owners = draw(st.sampled_from(GAMES))
    values = st.sampled_from((0, 1, 2, bound, bound + 1, 2 * bound))
    payloads = [f"{key}={value}" for key in "xyzvr" for value in (0, 1, bound, bound + 1)]
    payloads += ["xx=1", "x=1=2", "q", "z=", "1", "2", "10"]
    move = st.one_of(
        st.builds(lambda key, value: Labmove(owners[key], "", f"{key}={value}"), st.sampled_from(sorted(owners)), values),
        st.builds(Labmove, st.sampled_from([T, B]), st.sampled_from(["", "1."]), st.sampled_from(payloads)),
    )
    run = tuple(draw(st.lists(move, max_size=6)))
    return factory(bound), reference(bound), run, draw(move)


@settings(max_examples=600, deadline=None)
@given(_game_and_moves(), st.sampled_from([T, B]))
def test_games_agree_with_the_field_scanning_reference(case, machine):
    """Read through ``machine=B``, a run is the reference's run with every player flipped."""
    game, (legal, winner, complete, heuristic), run, move = case
    local, local_move = (run, move) if machine is T else (flip_run(run), flip_run((move,))[0])
    assert game.legal(run, move, machine) == legal(local, local_move)
    assert game.verdict(run, machine) == (complete(local), winner(local))
    assert game.default_heuristic(run, machine) == heuristic(local)

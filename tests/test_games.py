import time

import pytest

from clbk.games import (
    Labmove,
    Player,
    coffee_game,
    coffee_heuristic,
    dollar_game,
    dollar_heuristic,
    subrun,
)

T, B = Player.MACHINE, Player.ENVIRONMENT


def lm(player, spec, payload):
    return Labmove(player, spec, payload)


def test_labmove_rendering():
    assert str(lm(T, "2.1.", "x=3")) == "T2.1.x=3"
    assert str(lm(B, "2.", "1")) == "B2.1"


def test_labmove_payload_validation():
    with pytest.raises(ValueError):
        Labmove(T, "1.", "BAD MOVE")


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
    assert game.winner(()) is T
    assert game.winner((lm(B, "", "x=3"), lm(B, "", "y=1"), lm(T, "", "z=4"))) is T
    assert game.winner((lm(B, "", "x=3"), lm(B, "", "y=1"), lm(T, "", "z=5"))) is B
    assert game.winner((lm(B, "", "x=3"), lm(B, "", "y=1"))) is B
    assert game.winner((lm(B, "", "x=3"),)) is T


def test_coffee_complete_and_legal():
    game = coffee_game(10)
    run = (lm(B, "", "x=3"), lm(B, "", "y=1"))
    assert not game.complete(run)
    assert game.complete(run + (lm(T, "", "z=4"),))
    assert game.legal((), lm(B, "", "x=3"))
    assert not game.legal((), lm(B, "", "y=1"))
    assert not game.legal(run, lm(T, "", "z=11"))
    assert game.legal(run, lm(T, "", "z=10"))


def test_coffee_heuristic_examples():
    x3y1 = (lm(B, "", "x=3"), lm(B, "", "y=1"))
    assert coffee_heuristic(x3y1, 10) == "z=4"
    x4y2 = (lm(B, "", "x=4"), lm(B, "", "y=2"))
    assert coffee_heuristic(x4y2, 10) == "z=9"
    x3y4 = (lm(B, "", "x=3"), lm(B, "", "y=4"))
    assert coffee_heuristic(x3y4, 10) == "z=10"
    assert coffee_heuristic((lm(B, "", "x=3"),), 10) is None
    assert coffee_heuristic(x3y1 + (lm(T, "", "z=4"),), 10) is None


def test_coffee_heuristic_matches_the_scan():
    """The answer is the z in 1..zmax nearest x*y+1 (smallest on ties), as a scan over
    every z finds it. Payloads are unsigned, so x and y range over naturals."""
    for zmax in range(1, 31):
        for x in range(9):
            for y in range(9):
                run = (lm(B, "", f"x={x}"), lm(B, "", f"y={y}"))
                best = min(range(1, zmax + 1), key=lambda k: (abs(k - (x * y + 1)), k))
                assert coffee_heuristic(run, zmax) == f"z={best}"


def test_coffee_heuristic_answers_at_once_under_a_huge_bound():
    run = (lm(B, "", "x=3"), lm(B, "", "y=4"))
    start = time.perf_counter()
    assert coffee_heuristic(run, 10**12) == "z=13"
    assert time.perf_counter() - start < 0.1


def test_dollar_game_and_heuristic():
    game = dollar_game(5)
    assert game.winner(()) is T
    assert game.winner((lm(B, "", "v=2"), lm(T, "", "r=4"))) is T
    assert game.winner((lm(B, "", "v=2"), lm(T, "", "r=5"))) is B
    assert game.winner((lm(B, "", "v=2"),)) is B
    assert dollar_heuristic((lm(B, "", "v=3"),)) == "r=6"
    assert dollar_heuristic(()) is None
    assert not game.legal((), lm(B, "", "v=6"))

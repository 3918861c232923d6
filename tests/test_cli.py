import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from clbk import cli, prover
from clbk.cli import main
from clbk.scenario import builtin_scenario


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prove_prints_three_line_listing(capsys):
    code, out, _ = run_cli(capsys, "prove", "(C /\\ C) -> (C \\/ C) @ w", "--tree")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].endswith("rule A, 0")


def test_prove_hybrid_listing(capsys):
    code, out, _ = run_cli(capsys, "prove", "(C /\\ C) -> (C \\/ C) @ w", "--hybrid")
    assert code == 0
    assert "(C_p /\\ C_q) -> (C_p \\/ C_q) @ w" in out


# Proofs with three pairings along one branch; in the second, the innermost pairing sits
# under two choice rules, so each hybrid renaming must reach three rule-C levels down.
THREE_PAIRING_LISTINGS = {
    "(C /\\ C /\\ C) -> (C /\\ C /\\ C)": """\
1. (C_p /\\ C_q /\\ C_r) -> (C_p /\\ C_q /\\ C_r), rule A, 0
2. (C_p /\\ C_q /\\ C) -> (C_p /\\ C_q /\\ C), rule C, 1
3. (C_p /\\ C /\\ C) -> (C_p /\\ C /\\ C), rule C, 2
4. (C /\\ C /\\ C) -> (C /\\ C /\\ C), rule C, 3
""",
    "((C /\\ D) /\\ (C & p)) -> ((D /\\ C) /\\ (C & p)) @ w": """\
1. (C_q /\\ D_r /\\ C_s) -> (D_r /\\ C_q /\\ C_s) @ w, rule A, 0
2. (C_q /\\ D_r /\\ C) -> (D_r /\\ C_q /\\ C) @ w, rule C, 1
3. (C_q /\\ D_r /\\ (C & p)) -> (D_r /\\ C_q /\\ C) @ w, rule B, 2
4. (C_q /\\ D_r /\\ p) -> (D_r /\\ C_q /\\ p) @ w, rule A, 0
5. (C_q /\\ D_r /\\ (C & p)) -> (D_r /\\ C_q /\\ p) @ w, rule B, 4
6. (C_q /\\ D_r /\\ (C & p)) -> (D_r /\\ C_q /\\ (C & p)) @ w, rule A, 3, 5
7. (C_q /\\ D /\\ (C & p)) -> (D /\\ C_q /\\ (C & p)) @ w, rule C, 6
8. (C /\\ D /\\ (C & p)) -> (D /\\ C /\\ (C & p)) @ w, rule C, 7
""",
}


def test_prove_hybrid_listing_three_pairings(capsys):
    for formula, listing in THREE_PAIRING_LISTINGS.items():
        code, out, _ = run_cli(capsys, "prove", formula, "--hybrid")
        assert code == 0
        assert out == listing


_CHAIN_11 = " /\\ ".join(["C"] * 11)
PROVER_GOLDENS = {
    "choices": "(((p | C) \\/ (C & D)) -> ((p | C) \\/ (C & D))) @ w",
    "chain-11": f"({_CHAIN_11}) -> ({_CHAIN_11})",
}


@pytest.mark.parametrize("name", sorted(PROVER_GOLDENS))
@pytest.mark.parametrize("hybrid", [False, True])
def test_prove_listing_matches_golden(capsys, name, hybrid):
    """Plain and hybrid listings of a proof with choices and pairings, and of the n = 11
    chain, byte for byte as ``tests/golden/prover`` holds them."""
    code, out, _ = run_cli(capsys, "prove", PROVER_GOLDENS[name], *(["--hybrid"] if hybrid else []))
    assert code == 0
    golden = Path(__file__).parent / "golden" / "prover" / f"{name}{'-hybrid' if hybrid else ''}.txt"
    assert out == golden.read_text(encoding="utf-8")


def test_prove_trivial_success(capsys):
    code, _, _ = run_cli(capsys, "prove", "p -> p")
    assert code == 0


def test_prove_unprovable(capsys):
    code, out, _ = run_cli(capsys, "prove", "P -> (P /\\ P)")
    assert code == 1
    assert "unprovable" in out


def test_prove_search_budget_exhausted(capsys, monkeypatch):
    """Unbounded, this 6-clause refutation expands 16,238 nodes, about 8 s on a 2-vCPU
    Xeon; the budget stops it after exactly 1,000 expansions (one premises_C call each)."""
    calls = []
    original = prover.premises_C
    monkeypatch.setattr(prover, "premises_C", lambda *args: calls.append(1) or original(*args))
    formula = (
        "((C \\/ D) /\\ (C \\/ D) /\\ (D \\/ C) /\\ (C \\/ D) /\\ (D \\/ C) /\\ (C \\/ D))"
        " -> ((C /\\ D) \\/ (D /\\ C) \\/ (C /\\ D) \\/ (C /\\ D /\\ C) \\/ (D /\\ D) \\/ (C /\\ C))"
    )
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "prove", formula, "--max-nodes", "1000")
    assert time.perf_counter() - start < 2.0
    assert len(calls) == 1000
    assert code == 3
    assert out == ""
    assert err == "error: proof search exceeded 1000 nodes\n"


def test_prove_negative_search_budget(capsys):
    code, _, err = run_cli(capsys, "prove", "p -> p", "--max-nodes", "-1")
    assert code == 2
    assert "--max-nodes" in err


def test_prove_parse_error(capsys):
    code, _, err = run_cli(capsys, "prove", "p -> ->")
    assert code == 2
    assert "error" in err


def test_prove_reports_a_non_ascii_letter_before_any_syntax_error(capsys):
    expected = (2, "", "error: unexpected character 'é' (line 1, column 6)\n")
    assert run_cli(capsys, "prove", "p /\\ é") == expected
    assert run_cli(capsys, "prove", "p /\\ é ->")[2] == expected[2]


@pytest.mark.parametrize(
    "formula",
    ["~" * 3000 + "p", "(" * 3000 + "p" + ")" * 3000, "p -> " * 1500 + "p"],
    ids=["negations", "parentheses", "implications"],
)
def test_prove_input_nesting_too_deeply(capsys, formula):
    """The parser, the prover and the engine recurse on nesting depth; an input deeper than
    the interpreter's recursion limit is an input error wherever it overflows."""
    assert run_cli(capsys, "prove", formula) == (2, "", "error: input nests too deeply\n")


def test_prove_lists_a_500_level_implication_chain(capsys):
    """The printer takes one frame per nesting level, so a chain of 500 implications, well
    inside the recursion limit, proves by closure and prints as one line."""
    formula = "p -> " * 500 + "p"
    assert run_cli(capsys, "prove", formula) == (0, f"1. {formula}, rule A, 0\n", "")


def test_play_of_a_320_pairing_chain_is_won_at_the_default_recursion_limit(tmp_path, capsys):
    """The engine opens a session on a 321-node pairing chain, which ``hybridize`` and
    ``verify_proof`` take in loops, and the copy-cat wins it."""
    bind = tmp_path / "coffee.bind"
    bind.write_text("game C = coffee(zmax=10)\n", encoding="utf-8")
    c = " /\\ ".join(["C"] * 320)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code, out, err = run_cli(capsys, "play", f"(({c}) -> ({c})) @ w", "--scripts", str(bind))
    finally:
        sys.setrecursionlimit(limit)
    assert (code, out, err) == (0, "winner: T\n", "")


# The bind file of the README.
README_BIND = """\
game C = coffee(zmax=10)
script req = [x=3, y=1]
heuristic prov = coffee
bind 2. script req        # consumer requirements on the consequent
bind 1. heuristic prov    # provider stand-in on the antecedent
let p = true              # interpretation of elementary atoms (default false)
"""

COFFEE_IDENTITY_MOVES = """\
1 env B 2.x=3
2 m T 1.x=3
3 env B 2.y=1
4 m T 1.y=1
5 env B 1.z=4
6 m T 2.z=4
"""


def write_bind(tmp_path, text=README_BIND):
    path = tmp_path / "coffee.bind"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_play_coffee_identity(tmp_path, capsys):
    bind = tmp_path / "coffee.bind"
    bind.write_text(
        "game C = coffee(zmax=10)\n"
        "script req = [x=3, y=1]\n"
        "heuristic prov = coffee\n"
        "bind 2. script req\n"
        "bind 1. heuristic prov\n"
    )
    code, out, _ = run_cli(capsys, "play", "(C -> C) @ w", "--scripts", str(bind))
    assert code == 0
    assert "winner: T" in out
    assert "B 2.x=3" in out and "T 1.x=3" in out
    assert "T 2.z=4" in out


def test_play_step_budget_golden(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "play", "(C -> C) @ w", "--scripts", write_bind(tmp_path), "--max-steps", "1")
    assert code == 3
    assert out == "1 env B 2.x=3\n2 m T 1.x=3\nstep budget exhausted\n"


def test_play_trace_file_holds_the_move_lines(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    code, out, _ = run_cli(capsys, "play", "(C -> C) @ w", "--scripts", write_bind(tmp_path), "--trace", str(trace))
    assert code == 0
    assert out == COFFEE_IDENTITY_MOVES + "winner: T\n"
    assert trace.read_text(encoding="utf-8") == COFFEE_IDENTITY_MOVES


def test_play_interactive_malformed_line_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("2.x=5\n!!\n2.y=1\n"))
    code, out, _ = run_cli(capsys, "play", "(C -> C) @ w", "--scripts", write_bind(tmp_path), "--interactive")
    assert code == 0
    assert out == (
        "1 env B 2.x=5\n2 m T 1.x=5\n3 env B 2.x=3\n4 m T 1.x=3\n5 env B 2.y=1\n6 m T 1.y=1\n"
        "7 env B 1.z=6\n8 m T 2.z=6\nignored malformed move '!!'\n9 env B 2.y=1\n10 m T 1.y=1\nwinner: T\n"
    )


@pytest.mark.parametrize(
    "formula, line",
    [("(C & D) -> (C & D)", "1.\u0661"), ("((p & q) -> (p & q)) @ w", "2.\u0661")],
    ids=["antecedent", "consequent"],
)
def test_play_interactive_ignores_a_non_ascii_choice_digit(monkeypatch, capsys, formula, line):
    """An Arabic-Indic one is no choice digit: the line is malformed, and no branch is entered."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(line + "\n"))
    code, out, _ = run_cli(capsys, "play", formula, "--interactive")
    assert (code, out) == (0, f"ignored malformed move {line!r}\nwinner: T\n")


def test_play_interactive_names_a_move_at_no_occurrence(tmp_path, monkeypatch, capsys):
    """A well-formed move whose spec addresses no occurrence (a leading zero, a step out of
    range, a step past an atom) is ignored with a line that names its spec, and play goes on."""
    monkeypatch.setattr(sys, "stdin", io.StringIO("01.x=3\n3.x=1\n2.1.x=1\n2.x=3\n2.y=2\n"))
    bind = write_bind(tmp_path, "game C = coffee(zmax=10)\n")
    code, out, _ = run_cli(capsys, "play", "(C -> C) @ w", "--scripts", bind, "--interactive")
    assert code == 0
    assert out == (
        "ignored move at '01.': no occurrence there\nignored move at '3.': no occurrence there\n"
        "ignored move at '2.1.': no occurrence there\n"
        "1 env B 2.x=3\n2 m T 1.x=3\n3 env B 2.y=2\n4 m T 1.y=2\nwinner: T\n"
    )


@pytest.mark.parametrize(
    "formula, lines, out",
    [
        (
            "(C -> C) @ w",
            "x=3\n2.x=3\n",
            "ignored move at '': no game there\n1 env B 2.x=3\n2 m T 1.x=3\n",
        ),
        (
            "((p & q) -> (p & q)) @ w",
            "2.3\n2.1\n",
            "ignored move at '2.': no branch 3\n1 env B 2.1\n2 m T 1.1\n",
        ),
        (
            "((p & q) -> (p & q)) @ w",
            "1.1\n2.2\n",
            "ignored move at '1.': the machine's choice\n1 env B 2.2\n2 m T 1.2\n",
        ),
        (
            "((p & q) -> (p & q)) @ w",
            "2.1\n2.2\n",
            "1 env B 2.1\n2 m T 1.1\nignored move at '2.': no choice there\n",
        ),
    ],
    ids=["at-a-connective", "branch-out-of-range", "machine-choice", "resolved-choice"],
)
def test_play_interactive_names_why_a_move_is_ignored(tmp_path, monkeypatch, capsys, formula, lines, out):
    """A well-formed move at an occurrence that the engine does not apply (a move at a
    connective, a branch out of range, a choice the machine makes, a choice already resolved)
    is ignored with a line that names its spec and the engine's reason, and play goes on."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
    bind = write_bind(tmp_path, "game C = coffee(zmax=10)\n")
    assert run_cli(capsys, "play", formula, "--scripts", bind, "--interactive") == (0, out + "winner: T\n", "")


def test_play_interactive_applies_the_step_budget_after_each_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("2.1\n"))
    code, out, _ = run_cli(capsys, "play", "((p & q) -> (p & q)) @ w", "--interactive", "--max-steps", "1")
    assert code == 3
    assert out == "1 env B 2.1\n2 m T 1.1\nstep budget exhausted\n"


def test_play_bind_line_sets_only_its_seat(tmp_path, capsys):
    """The note's heuristic keeps the machine seat of 1.; the bind line fills its other seat."""
    text = "game C = coffee(zmax=10)\nheuristic prov = coffee\nscript req = [x=3, y=1]\nbind 1. script req\n"
    code, out, _ = run_cli(capsys, "play", "(C{h=prov} -> C) @ w", "--scripts", write_bind(tmp_path, text))
    assert code == 0
    assert out == "1 m T 1.x=3\n2 m T 1.y=1\n3 env B 1.z=4\n4 m T 2.z=4\nwinner: T\n"


def test_play_bind_line_errors(tmp_path, capsys):
    cases = {
        "bind 3. script req": "error: bind target '3.' is not a surface atom occurrence\n",
        # a step is 1 or 2 in ASCII digits, as every spec reader takes it
        "bind 01. script req": "error: bind target '01.' is not a surface atom occurrence\n",
        "bind \u0662. script req": "error: line 3: cannot parse 'bind \u0662. script req'\n",
        "bind 1. script nope": "error: unknown script 'nope'\n",
        "bind 1. heuristic nope": "error: unknown heuristic 'nope'\n",
        "script req = [x=2]": "error: line 3: script 'req' is already defined\n",
        # a second bind of one seat, or a second let of one atom, would silently replace the first
        "bind 2. script req\nbind 2. script req": "error: line 4: the script at '2.' is already bound\n",
        "heuristic h = coffee\nbind 2. heuristic h\nbind 2. script req\nbind 2. heuristic h": (
            "error: line 6: the heuristic at '2.' is already bound\n"
        ),
        "let p = true\nlet q = true\nlet p = false": "error: line 5: atom 'p' is already bound\n",
    }
    for line, message in cases.items():
        bind = write_bind(tmp_path, f"game C = coffee(zmax=10)\nscript req = [x=3, y=1]\n{line}\n")
        code, out, err = run_cli(capsys, "play", "(C -> C) @ w", "--scripts", bind)
        assert (code, out, err) == (2, "", message), line
    # a script and a heuristic at one spec fill its two seats
    text = "game C = coffee(zmax=10)\nscript req = [x=3, y=1]\nheuristic h = coffee\n"
    bind = write_bind(tmp_path, text + "bind 2. script req\nbind 2. heuristic h\n")
    code, out, err = run_cli(capsys, "play", "(C -> C) @ w", "--scripts", bind)
    assert (code, err) == (0, "")
    assert out.splitlines()[-2:] == ["5 m T 2.z=4", "winner: T"]


@pytest.mark.parametrize(
    "call, message",
    [
        ("coffee(zmax=0)", "coffee takes zmax=N with N >= 1, not zmax=0"),
        ("coffee(vmax=3)", "coffee takes zmax=N with N >= 1, not vmax=3"),
        ("dollar(zmax=2)", "dollar takes vmax=N with N >= 1, not zmax=2"),
    ],
    ids=["zero-bound", "coffee-with-vmax", "dollar-with-zmax"],
)
def test_play_game_directive_takes_only_its_own_bound(tmp_path, capsys, call, message):
    """A bound of 0 would leave the coffee stand-in no z to brew, and each factory names its
    own parameter; both are input errors at their line, before any play."""
    bind = write_bind(tmp_path, README_BIND.replace("coffee(zmax=10)", call))
    code, out, err = run_cli(capsys, "play", "(C -> C) @ w", "--scripts", bind)
    assert (code, out, err) == (2, "", f"error: line 1: {message}\n")


def test_play_script_item_outside_the_payload_grammar(tmp_path, capsys):
    bind = write_bind(tmp_path, "game C = coffee(zmax=10)\nscript s1 = [X=3]\nbind 2. script s1\n")
    code, out, err = run_cli(capsys, "play", "(C -> C) @ w", "--scripts", bind)
    assert (code, out, err) == (2, "", "error: line 2: bad move payload 'X=3'\n")


def test_play_note_naming_no_script_in_the_bind_file(tmp_path, capsys):
    """An ``s=`` note naming no script of the bind file is an input error, and so is an ``h=``
    note naming no heuristic of it."""
    cases = {"(C -> C{s=nope}) @ w": "script", "(C -> (C{s=nope} & p)) @ w": "script"}
    cases |= {"(C{h=nope} -> C) @ w": "heuristic", "(C -> (C{h=nope} & p)) @ w": "heuristic"}
    for formula, kind in cases.items():
        code, out, err = run_cli(capsys, "play", formula, "--scripts", write_bind(tmp_path))
        assert (code, out, err) == (2, "", f"error: unknown {kind} 'nope'\n"), formula


def test_play_unbound_atom_in_an_entered_branch(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("2.2\n"))
    code, out, err = run_cli(capsys, "play", "((p & C) -> (p & C)) @ w", "--interactive")
    assert code == 2
    assert "step budget exhausted" not in out
    assert err == "error: no game bound for atom 'C' at occurrence '2.'\n"


def test_play_zero_budget_reports_immediately(capsys):
    code, out, _ = run_cli(capsys, "play", "p -> p", "--max-steps", "0")
    assert code == 0
    assert "winner: T" in out


def test_play_bad_bind_line(tmp_path, capsys):
    bind = tmp_path / "bad.bind"
    bind.write_text("game C = coffee(zmax=10)\nheuristic prov = tea\n")
    code, _, err = run_cli(capsys, "play", "(C -> C) @ w", "--scripts", str(bind))
    assert code == 2
    assert "line 2: cannot parse 'heuristic prov = tea'" in err


def test_play_unbound_atom(tmp_path, capsys):
    code, _, err = run_cli(capsys, "play", "(C -> C) @ w")
    assert code == 2
    assert "no game bound" in err


def test_play_unprovable(capsys):
    code, out, _ = run_cli(capsys, "play", "C \\/ C")
    assert code == 1
    assert "unprovable" in out


def test_play_interactive_choice(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("2.1\n"))
    code, out, _ = run_cli(capsys, "play", "((p & q) -> (p & q)) @ w", "--interactive")
    assert code == 0
    assert "B 2.1" in out
    assert "T 1.1" in out
    assert "winner: T" in out


def test_play_interactive_two_choices_golden(monkeypatch, capsys):
    """Two environment choices: 2.2.2 is the fourth closure premise, and 1.2.1 a choice in it."""
    monkeypatch.setattr(sys, "stdin", io.StringIO("2.2.2\n1.2.1\n"))
    code, out, _ = run_cli(capsys, "play", "(p -> (p & p)) /\\ (q -> (q & q)) @ w", "--interactive")
    assert code == 0
    assert out == "1 env B 2.2.2\n2 env B 1.2.1\nwinner: T\n"


def test_play_trace_in_missing_directory(tmp_path, capsys):
    code, out, err = run_cli(capsys, "play", "p -> p", "--trace", str(tmp_path / "missing" / "trace.txt"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "missing" in err


def test_play_scripts_directory(tmp_path, capsys):
    code, _, err = run_cli(capsys, "play", "p -> p", "--scripts", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ")


def test_play_negative_step_budget(capsys):
    code, out, err = run_cli(capsys, "play", "p -> p", "--max-steps", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --max-steps must not be negative\n"


def test_simulate_starbucks(capsys, tmp_path):
    scenario = tmp_path / "starbucks.clbk"
    scenario.write_text(builtin_scenario("starbucks"), encoding="utf-8")
    code, out, _ = run_cli(capsys, "simulate", str(scenario), "--trace-dir", str(tmp_path))
    assert code == 0
    assert "u: 2/2 won; o: 2/2 won; *C: 1/1 won; *1: 1/1 won" in out
    assert "heuristic wins: 20" in out
    assert (tmp_path / "trace.txt").exists()
    assert (tmp_path / "agent-_1.txt").exists()


def test_simulate_starbucks_matches_golden(capsys, tmp_path):
    """The reference run: stdout, global trace and every per-agent trace, byte for byte."""
    golden = Path(__file__).parent / "golden" / "starbucks"
    scenario = tmp_path / "starbucks.clbk"
    scenario.write_text(builtin_scenario("starbucks"), encoding="utf-8")
    traces = tmp_path / "traces"
    code, out, _ = run_cli(capsys, "simulate", str(scenario), "--trace-dir", str(traces))
    assert code == 0
    assert out == (golden / "stdout.txt").read_text(encoding="utf-8")
    expected = sorted(p.name for p in golden.iterdir() if p.name != "stdout.txt")
    assert sorted(p.name for p in traces.iterdir()) == expected
    for name in expected:
        assert (traces / name).read_bytes() == (golden / name).read_bytes(), name


def test_simulate_builtin_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "simulate", "starbucks")
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / "starbucks" / "stdout.txt").read_text(encoding="utf-8")


def test_simulate_unknown_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "simulate", "no-such-scenario")
    assert code == 2
    assert "no-such-scenario" in err


def test_simulate_missing_file(capsys):
    code, _, err = run_cli(capsys, "simulate", "no-such-scenario.clbk")
    assert code == 2


def test_simulate_trace_dir_is_a_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = run_cli(capsys, "simulate", "starbucks", "--trace-dir", str(taken))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "taken" in err


def test_simulate_trace_file_is_a_directory(tmp_path, capsys):
    (tmp_path / "trace.txt").mkdir()
    code, out, err = run_cli(capsys, "simulate", "starbucks", "--trace-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "trace.txt" in err


def test_simulate_query_without_a_game(tmp_path, capsys):
    path = tmp_path / "nogame.clbk"
    path.write_text("agent a\nquery (C -> C) @ a\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: no game bound for atom 'C' at occurrence '1.'\n"


MIDDLEMAN_SCENARIO = """\
agent f kind=provider
  game C = coffee(zmax=10)
  heuristic hx = coffee
  rb C{h=hx} @ God
agent m
  game C = coffee(zmax=10)
  script req = [x=2, y=3]
  rb C @ f
agent u
  query C{s=req} @ m
"""


def test_simulate_middleman_counts_the_providers_answer_as_a_heuristic_win(tmp_path, capsys):
    path = tmp_path / "middleman.clbk"
    path.write_text(MIDDLEMAN_SCENARIO)
    code, out, _ = run_cli(capsys, "simulate", str(path), "--trace-dir", str(tmp_path / "traces"))
    assert code == 0
    assert out.endswith("heuristic wins: 1\nquiescent in 2 steps\n")
    assert (tmp_path / "traces" / "agent-f.txt").read_text() == "5 f B 1.z=7\n"


DIRECT_ORDER_SCENARIO = """\
agent "*C" kind=provider
  game C = coffee(zmax=10)
  heuristic hx = coffee
  script req = [x=2, y=3]
  rb C{h=hx} @ God
agent "+C"
  game C = coffee(zmax=10)
  query C{s=req} @ "*C"
"""


def test_simulate_a_direct_order_is_answered_by_the_servers_manual(tmp_path, capsys):
    """A query with an ``s=`` note, sent straight to the provider, is answered by the
    provider's manual."""
    path = tmp_path / "direct.clbk"
    path.write_text(DIRECT_ORDER_SCENARIO)
    code, out, _ = run_cli(capsys, "simulate", str(path))
    assert code == 0
    assert '*C:2 client=+C C{s=req} @ "*C": won\n' in out
    assert "ledger +C: received C=1; paid -\n" in out
    assert out.endswith("heuristic wins: 1\nquiescent in 3 steps\n")


def test_simulate_refuses_two_agents_sharing_a_trace_file(tmp_path, capsys):
    """``*C`` and ``+C`` both map to ``agent-_C.txt``: with ``--trace-dir`` the run is refused
    before it starts, naming both agents and the file, and nothing is written."""
    path = tmp_path / "direct.clbk"
    path.write_text(DIRECT_ORDER_SCENARIO)
    traces = tmp_path / "traces"
    code, out, err = run_cli(capsys, "simulate", str(path), "--trace-dir", str(traces))
    assert (code, out) == (2, "")
    assert err == "error: agents '*C' and '+C' would both write the trace file 'agent-_C.txt'\n"
    assert not traces.exists()
    assert run_cli(capsys, "simulate", str(path))[0] == 0


CHOSEN_GOOD_SCENARIO = """\
agent f kind=provider
  game C = coffee(zmax=10)
  heuristic hx = coffee
  rb C{h=hx} @ God
agent m
  game C = coffee(zmax=10)
  game D = dollar(vmax=5)
  script req = [x=2, y=3]
  rb C @ f
agent u
  game C = coffee(zmax=10)
  game D = dollar(vmax=5)
  query (C{s=req} | D) @ m
"""


def test_simulate_books_a_good_chosen_during_play(tmp_path, capsys):
    """The client is booked the coffee its server chose for it during play."""
    path = tmp_path / "chosen.clbk"
    path.write_text(CHOSEN_GOOD_SCENARIO)
    code, out, _ = run_cli(capsys, "simulate", str(path))
    assert code == 0
    assert "ledger u: received C=1; paid -\n" in out


def test_simulate_note_naming_an_unknown_script(tmp_path, capsys):
    """A script name the serving agent does not define is an input error, also under a choice."""
    for query, name in (("C{s=nope} @ m", "nope"), ("(C{s=req} & C{s=typo}) @ m", "typo")):
        path = tmp_path / "typo.clbk"
        path.write_text(MIDDLEMAN_SCENARIO.replace("C{s=req} @ m", query))
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert code == 2, query
        assert out == ""
        assert err == f"error: query {query} names script {name!r}, which 'm' does not define\n"


def test_simulate_game_directive_with_a_zero_bound(tmp_path, capsys):
    path = tmp_path / "zero.clbk"
    path.write_text(MIDDLEMAN_SCENARIO.replace("m\n  game C = coffee(zmax=10)", "m\n  game C = coffee(zmax=0)"))
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert (code, out, err) == (2, "", "error: line 6: coffee takes zmax=N with N >= 1, not zmax=0\n")


def test_simulate_script_item_outside_the_payload_grammar(tmp_path, capsys):
    path = tmp_path / "upper.clbk"
    path.write_text(MIDDLEMAN_SCENARIO.replace("script req = [x=2, y=3]", "script d0 = [V=1]"))
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert (code, out, err) == (2, "", "error: line 7: bad move payload 'V=1'\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("  rb C @ f\nagent a\n", "line 1: directive before any agent block"),
        ("agent a\n  frobnicate\n", "line 2: cannot parse 'frobnicate'"),
        ("agent a\n  rb C /\\\n", "line 2, column 10: expected an atom, found ''"),
        ("agent a\n    query q /\\ ?r  # a comment\n", "line 2, column 16: unexpected character '?'"),
        ("agent f kind=provider\n  rb C @ g\n", "provider 'f' has no God-annotated manual in its resource base"),
        (
            "agent a\n  query ((p @ b) -> p) @ a\n",
            "line 2, column 24: env-switching annotation: nested '@' is not allowed",
        ),
        (
            "agent a\n  game C = coffee(zmax=10)\nagent b\n  game C = coffee(zmax=10)\n  game C = dollar(vmax=5)\n",
            "line 5: game 'C' is already defined",
        ),
        (
            "agent a\n  script r = [x=1]\n  heuristic r = coffee\n  script r = [x=2, y=1]\n",
            "line 4: script 'r' is already defined",
        ),
        ("agent a\n  heuristic h = coffee\n  heuristic h = dollar\n", "line 3: heuristic 'h' is already defined"),
    ],
    ids=[
        "before-agent",
        "unknown-directive",
        "bad-rb-formula",
        "bad-query-formula",
        "provider-without-manual",
        "nested-annotation",
        "game-defined-twice",
        "script-defined-twice",
        "heuristic-defined-twice",
    ],
)
def test_simulate_scenario_input_errors(tmp_path, capsys, text, message):
    path = tmp_path / "bad.clbk"
    path.write_text(text)
    assert run_cli(capsys, "simulate", str(path)) == (2, "", f"error: {message}\n")


def test_simulate_cut_short_leaves_sessions_unfinished(capsys):
    """A spent step budget settles nothing: opened sessions are unfinished, not judged, while
    the heuristic wins already played are still counted."""
    code, out, _ = run_cli(capsys, "simulate", "starbucks", "--max-steps", "20")
    assert code == 3
    lines = out.splitlines()
    assert "o:1 client=u (D /\\ D) -> (C /\\ C) @ o: unfinished" in lines
    assert "heuristic wins: 3" in lines
    assert lines[-1] == "step budget exhausted"


def test_simulate_duplicate_agent(tmp_path, capsys):
    path = tmp_path / "dup.clbk"
    path.write_text("agent a\nagent a\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: duplicate agent id 'a'\n"


def test_simulate_agent_named_god(tmp_path, capsys):
    path = tmp_path / "god.clbk"
    path.write_text("agent God\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: 'God' is reserved and never registered\n"


def test_simulate_directory(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ")


def test_simulate_negative_step_budget(capsys):
    code, out, err = run_cli(capsys, "simulate", "starbucks", "--max-steps", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --max-steps must not be negative\n"


def test_simulate_truncated_scenario(tmp_path, capsys):
    head = builtin_scenario("starbucks").split('agent "*1"')[0]
    path = tmp_path / "truncated.clbk"
    path.write_text(head)
    code, out, _ = run_cli(capsys, "simulate", str(path))
    assert code == 3
    assert "rejected" in out


def test_fmt_round_trips(tmp_path, capsys):
    src = tmp_path / "formulas.txt"
    src.write_text("# coffee\np->p\n(C/\\C)->(C\\/C)@w\n")
    code, out, _ = run_cli(capsys, "fmt", str(src))
    assert code == 0
    assert "p -> p" in out
    assert "(C /\\ C) -> (C \\/ C) @ w" in out
    from clbk.formula import parse_formula

    for line in out.strip().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        assert parse_formula(line) == parse_formula(line)


def test_fmt_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert run_cli(capsys, "fmt", str(path)) == (0, "", "")


def test_fmt_input_nesting_too_deeply(tmp_path, capsys):
    path = tmp_path / "deep.txt"
    path.write_text("p\n" + "(" * 3000 + "p" + ")" * 3000 + "\n")
    assert run_cli(capsys, "fmt", str(path)) == (2, "", "error: input nests too deeply\n")


def test_fmt_parse_error_names_the_file_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("p\nq -> q\n# comment\n(p\n")
    assert run_cli(capsys, "fmt", str(path)) == (2, "", "error: line 4, column 3: expected ')', found ''\n")
    path.write_text("p\n  q /\\ ?r\n")
    assert run_cli(capsys, "fmt", str(path)) == (2, "", "error: line 2, column 8: unexpected character '?'\n")


def test_fmt_missing_file(capsys):
    code, _, _ = run_cli(capsys, "fmt", "missing.txt")
    assert code == 2


def test_fmt_directory(tmp_path, capsys):
    code, _, err = run_cli(capsys, "fmt", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ")


def test_fmt_and_play_reject_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff p -> p\n")
    for argv in (["fmt", str(path)], ["play", "p -> p", "--scripts", str(path)], ["simulate", str(path)]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ")


class ClosedStream(io.StringIO):
    """An output stream whose reader has gone away, as stdout into `head -c 1`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["prove", "p -> p"], ["simulate", "starbucks"], ["fmt", "formulas.txt"]])
def test_closed_output_stream_is_an_input_error(tmp_path, monkeypatch, capsys, argv):
    (tmp_path / "formulas.txt").write_text("p -> p\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdout", ClosedStream())
    code = main(argv)
    assert (code, capsys.readouterr().err) == (2, "error: [Errno 32] Broken pipe\n")


def test_an_error_outside_the_mapping_escapes_main(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a bug, not an input error")

    monkeypatch.setattr(cli, "prove", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["prove", "p -> p"])


IDENTITY_18 = "({0}) -> ({0})".format(" /\\ ".join(f"p{i}" for i in range(18)))


def test_buffered_output_into_a_closed_pipe_is_an_input_error():
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "clbk.cli", "prove", IDENTITY_18], stdout=write_end, stderr=subprocess.PIPE, env=env
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, b"error: [Errno 32] Broken pipe\n")

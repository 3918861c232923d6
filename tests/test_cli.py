import io
import sys

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


def test_prove_trivial_success(capsys):
    code, _, _ = run_cli(capsys, "prove", "p -> p")
    assert code == 0


def test_prove_unprovable(capsys):
    code, out, _ = run_cli(capsys, "prove", "P -> (P /\\ P)")
    assert code == 1
    assert "unprovable" in out


def test_prove_parse_error(capsys):
    code, _, err = run_cli(capsys, "prove", "p -> ->")
    assert code == 2
    assert "error" in err


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


def test_simulate_starbucks(capsys, tmp_path):
    scenario = tmp_path / "starbucks.clbk"
    scenario.write_text(builtin_scenario("starbucks"), encoding="utf-8")
    code, out, _ = run_cli(capsys, "simulate", str(scenario), "--trace-dir", str(tmp_path))
    assert code == 0
    assert "u: 2/2 won; o: 2/2 won; *C: 1/1 won; *1: 1/1 won" in out
    assert "heuristic wins: 20" in out
    assert (tmp_path / "trace.txt").exists()
    assert (tmp_path / "agent-_1.txt").exists()


def test_simulate_missing_file(capsys):
    code, _, err = run_cli(capsys, "simulate", "no-such-scenario.clbk")
    assert code == 2


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


def test_fmt_missing_file(capsys):
    code, _, _ = run_cli(capsys, "fmt", "missing.txt")
    assert code == 2

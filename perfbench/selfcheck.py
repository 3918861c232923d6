"""Reduced-size self-check of the benchmark; exits non-zero on the first problem.

    python3 perfbench/selfcheck.py

Checks, on small inputs and in under a minute:
* BENCHMARK.json names the workloads and metrics that run.py reports, with their units;
* every workload's outputs pass their checks, untraced and traced;
* the work counters and global traces of a seed are identical in two processes with
  different hash seeds;
* a ``run.py`` invocation prints the JSON result as its last line;
* ``run.py`` fails without printing a result in a tree that holds only BENCHMARK.json
  and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import inputs
import run
import speed

DETERMINISTIC = (
    "prover.expansions",
    "prover.proof_nodes",
    "classical.validity_checks",
    "classical.rows",
    "formula.occurrence_walks",
    "engine.steps",
    "engine.moves",
    "engine.local_runs",
    "games.subrun_calls",
    "games.subrun_moves_scanned",
    "agents.visits",
    "agents.bus_posts",
)


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selfcheck FAILED: {message}")
        sys.exit(1)


def check_declaration() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(spec["command"] == ["python3", "perfbench/run.py"], "command differs")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names differ")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(declared == {k: u for k, (u, _) in run.END_TO_END.items()}, "end-to-end metrics differ")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(declared == run.PER_LAYER_UNITS, "per-layer metrics differ")


def reduced_inputs(workload: str, template: str):
    rng = random.Random(7)
    if workload == "prove-valid":
        return inputs.prove_valid_inputs(rng, scale=4)
    if workload == "prove-refute":
        return inputs.prove_refute_inputs(rng, scale=2)
    return inputs.economy_inputs(template, rng, ladder=(1, 2))


def child() -> None:
    """Run every workload on reduced inputs, untraced and traced; print the counters."""
    counters = {}
    for workload in run.WORKLOADS:
        with speed.ScaledClock() as clock:
            m, _, setup_times, template = run.set_up(workload, 7, clock)
            items = reduced_inputs(workload, template or m["scenario"].builtin_scenario("starbucks"))
            metrics, tally, _ = run.untraced(workload, 0, m, items, setup_times, clock)
        check(tally.failed == 0, f"{workload}: untraced checks failed: {tally.notes}")
        check(list(metrics) == list(run.END_TO_END), f"{workload}: end-to-end metric set")
        check(all(v["value"] > 0 for v in metrics.values()), f"{workload}: an end-to-end metric is 0")
        metrics, attempted, failed, lines = run.traced(workload, 7, m, items, template)
        check(failed == 0, f"{workload}: {failed}/{attempted} traced checks failed: {lines[-5:]}")
        check(list(metrics) == list(run.PER_LAYER_UNITS), f"{workload}: per-layer metric set")
        counters[workload] = {k: metrics[k]["value"] for k in DETERMINISTIC}
        counters[workload]["digest"] = next((ln for ln in lines if "trace digest" in ln), "")
    print(json.dumps(counters))


def check_counters() -> None:
    seen = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, __file__, "--child"], env=env, capture_output=True, text=True, timeout=170
        )
        check(proc.returncode == 0, f"reduced run failed: {proc.stdout[-500:]}{proc.stderr[-500:]}")
        seen.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    check(seen[0] == seen[1], f"counters differ between processes: {seen}")
    for workload, counters in seen[0].items():
        print(f"selfcheck {workload}: ok, {counters}")


def invoke(cwd: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "prove-valid", "--seed", "3", "--seconds", "1", "--trace", "0"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_invocations() -> None:
    proc = invoke(run.ROOT)
    check(proc.returncode == 0, f"run.py exited {proc.returncode}: {proc.stderr[-300:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, "result counts")

    bare = run.SPANS_DIR / "bare-tree"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = invoke(bare)
        check(proc.returncode != 0, "run.py succeeded in a tree without the package")
        check("{" not in proc.stdout, "run.py printed a result in a tree without the package")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selfcheck invocations: ok")


def main() -> int:
    if sys.argv[1:] == ["--child"]:
        child()
        return 0
    check_declaration()
    check_counters()
    check_invocations()
    print("selfcheck: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

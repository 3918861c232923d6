"""clbk benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload prove-valid --seed 1 --seconds 15 --trace 0

Run from the root of a source tree; the package is imported from ``src/`` there and
nowhere else. With ``--trace 0`` the run times whole rounds of the seed's inputs for
``--seconds`` on the scaled clock of speed.py and reports the end-to-end metrics; with
``--trace 1`` it runs one round untraced and one traced and reports the per-layer
metrics. Human-readable lines come first; the last line of standard output is the JSON
result. Every output is checked, and failed checks are counted in ``failed``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("prove-valid", "prove-refute", "economy")
SETUP_REPEATS = 21
SPANS_DIR = ROOT / ".perfbench-out"

# name -> (unit, meaning); the order is the print order. Times are scaled to the
# reference speed (speed.py); the raw wall-time figures are printed beside them.
END_TO_END = {
    "items_per_s": ("1/s", "formulas (prove-*) or simulated moves (economy) per scaled second of request time, median over rounds"),
    "latency_p50_ms": ("ms", "median scaled time per request: one formula, or one world"),
    "latency_p90_ms": ("ms", "90th percentile scaled time per request"),
    "largest_input_s": ("s", "median scaled time of the largest fixed input"),
    "setup_s": ("s", "median over repeats of the scaled time of import clbk plus package set-up calls"),
    "peak_rss_mb": ("MB", "peak resident memory of the process"),
}
# Per-layer units; names ending in _ms/_us are self times unless noted in README.md.
PER_LAYER_UNITS = {
    "formula.parse_ms": "ms", "formula.print_ms": "ms", "formula.occurrence_walks": "count",
    "formula.walks_per_move": "ratio", "formula.walk_ms": "ms",
    "classical.validity_checks": "count", "classical.rows": "count", "classical.ms": "ms",
    "prover.expansions": "count", "prover.prove_self_ms": "ms", "prover.hybridize_ms": "ms",
    "prover.verify_ms": "ms", "prover.format_ms": "ms", "prover.proof_nodes": "count",
    "engine.steps": "count", "engine.moves": "count", "engine.step_us": "us", "engine.self_ms": "ms",
    "engine.new_session_ms": "ms", "engine.evaluate_winner_ms": "ms", "engine.local_runs": "count",
    "games.subrun_calls": "count", "games.subrun_moves_scanned": "count", "games.subrun_ms": "ms",
    "agents.visits": "count", "agents.useful_visit_ratio": "ratio", "agents.bus_posts": "count",
    "agents.run_self_ms": "ms", "agents.us_per_move.smallest": "us", "agents.us_per_move.largest": "us",
    "agents.move_cost_growth": "ratio", "scenario.parse_ms": "ms",
    "cli.import_ms": "ms", "cli.prove_ms": "ms", "cli.simulate_ms": "ms", "trace.overhead": "ratio",
}  # fmt: skip


def fail_setup(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "affinity": sorted(os.sched_getaffinity(0)),
        "commit": commit or "unknown",
        "seed": seed,
    }


def import_package():
    """Import clbk from ``src/`` of this tree, discarding any earlier import so that the
    module code runs again; returns the modules."""
    for name in [n for n in sys.modules if n == "clbk" or n.startswith("clbk.")]:
        del sys.modules[name]
    importlib.import_module("clbk")
    return wl.clbk_modules()


def set_up(workload: str, seed: int, clock):
    """Build the inputs and time set-up ``SETUP_REPEATS`` times on ``clock``: import
    clbk, plus for the economy ``builtin_scenario`` and ``parse_scenario`` of every world.
    Input generation is not timed. Returns the modules of the last import, the inputs,
    the (raw, scaled) timings and the economy template."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    rng = random.Random(seed)
    items = None
    times = []
    for _ in range(SETUP_REPEATS):
        clock.start()
        m = import_package()
        template = m["scenario"].builtin_scenario("starbucks") if workload == "economy" else None
        raw, scaled = clock.stop()
        if items is None:
            if not m["formula"].__file__.startswith(str(src)):
                fail_setup(f"clbk was imported from {m['formula'].__file__}, not from {src}")
            if workload == "prove-valid":
                items = inputs.prove_valid_inputs(rng)
            elif workload == "prove-refute":
                items = inputs.prove_refute_inputs(rng)
            else:
                items = inputs.economy_inputs(template, rng)
        if workload == "economy":
            clock.start()
            for world in items:
                m["scenario"].parse_scenario(world.text)
            more_raw, more_scaled = clock.stop()
            raw, scaled = raw + more_raw, scaled + more_scaled
        times.append((raw, scaled))
    return m, items, times, template


def round_runner(workload: str, m, items, clock):
    run_round = wl.run_economy_round if workload == "economy" else wl.run_prove_round
    return lambda tally, on_request=None: run_round(m, items, tally, clock, on_request)


def largest_key(workload: str, items) -> str:
    """The largest fixed input of each workload."""
    if workload == "economy":
        return f"N={max(w.n for w in items)}"
    family = {"prove-valid": "family-and", "prove-refute": "family"}[workload]
    return [item.source for item in items if item.kind == family][-1]


def quantiles_ms(latencies: list[float]) -> tuple[float, float]:
    cuts = statistics.quantiles(latencies, n=10)
    return cuts[4] * 1e3, cuts[8] * 1e3


def untraced(workload: str, seconds: int, m, items, setup_times, clock) -> tuple[dict, wl.Tally, list[str]]:
    tally = wl.Tally()
    one_round = round_runner(workload, m, items, clock)
    wl.run_closed_loop(seconds, one_round, tally)
    rounds = len(tally.round_rates)
    p50, p90 = quantiles_ms(tally.latencies)
    raw_p50, raw_p90 = quantiles_ms(tally.raw_latencies)
    key = largest_key(workload, items)
    values = {
        "items_per_s": (statistics.median(tally.round_rates), rounds, statistics.median(tally.raw_round_rates)),
        "latency_p50_ms": (p50, len(tally.latencies), raw_p50),
        "latency_p90_ms": (p90, len(tally.latencies), raw_p90),
        "largest_input_s": (
            statistics.median(tally.by_input[key]),
            len(tally.by_input[key]),
            statistics.median(tally.raw_by_input[key]),
        ),
        "setup_s": (
            statistics.median(s for _, s in setup_times),
            len(setup_times),
            statistics.median(r for r, _ in setup_times),
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1, None),
    }
    unit_of_work = "moves" if workload == "economy" else "formulas"
    ticks = clock.ticks
    lines = [
        f"rounds {rounds}, requests {len(tally.latencies)}, {unit_of_work} {tally.work}, largest input {key}",
        f"ticks {len(ticks)}, median {statistics.median(ticks) * 1e3:.4f} ms, min {min(ticks) * 1e3:.4f} ms, "
        f"max {max(ticks) * 1e3:.4f} ms (reference {speed.REF_TICK_S * 1e3:.4f} ms)",
    ]
    for name, (value, samples, raw) in values.items():
        unit, meaning = END_TO_END[name]
        raw_text = "" if raw is None else f"raw={raw:<12.6f}"
        lines.append(f"{name:<16} {value:>14.6f} {unit:<4} samples={samples:<6} {raw_text:<17} {meaning}")
    if workload == "economy":
        lines.append(f"trace digest {wl.world_digest(tally)}")
    metrics = {name: {"value": value, "unit": END_TO_END[name][0]} for name, (value, _, _) in values.items()}
    return metrics, tally, lines


def traced(workload: str, seed: int, m, items, template: str | None) -> tuple[dict, int, int, list[str]]:
    one_round = round_runner(workload, m, items, speed.RawClock())
    plain = wl.Tally()
    start = time.perf_counter()
    one_round(plain)
    plain_wall = time.perf_counter() - start

    recorder = tracing.SpanRecorder(m)
    recorder.install()
    seen = wl.Tally()
    start = time.perf_counter()
    try:
        one_round(seen, recorder.set_request)
    finally:
        traced_wall = time.perf_counter() - start
        recorder.uninstall()

    layer = recorder.layer_metrics()
    problems = plain.notes + seen.notes
    failed = plain.failed + seen.failed
    if workload == "economy":
        if plain.digests != seen.digests:
            problems.append("traced and untraced passes produced different global traces")
            failed += 1
        n_min, n_max = min(w.n for w in items), max(w.n for w in items)
        small, large = (
            plain.by_input[f"N={n}"][0] / plain.work_by_input[f"N={n}"] * 1e6 for n in (n_min, n_max)
        )
        layer["agents.us_per_move.smallest"] = small
        layer["agents.us_per_move.largest"] = large
        layer["agents.move_cost_growth"] = large / small
    else:
        layer["agents.us_per_move.smallest"] = layer["agents.us_per_move.largest"] = 0.0
        layer["agents.move_cost_growth"] = 0.0
    scenario_text = template or m["scenario"].builtin_scenario("starbucks")
    cli, cli_attempted, cli_problems = tracing.cli_probes(ROOT, scenario_text, SPANS_DIR)
    layer.update(cli)
    layer["trace.overhead"] = traced_wall / plain_wall
    problems += cli_problems
    failed += len(cli_problems)
    attempted = plain.attempted + seen.attempted + cli_attempted

    spans_file = SPANS_DIR / f"spans-{workload}-seed{seed}.tsv.gz"
    recorder.write(spans_file)
    lines = [f"traced one round: {traced_wall:.3f}s traced, {plain_wall:.3f}s untraced, {len(recorder.start)} spans -> {spans_file.relative_to(ROOT)}"]
    if workload == "economy":
        lines.append(f"smallest world N={n_min}, largest N={n_max}; trace digest {wl.world_digest(seen)}")
    for name in PER_LAYER_UNITS:
        lines.append(f"{name:<28} {layer[name]:>16.6f} {PER_LAYER_UNITS[name]}")
    metrics = {name: {"value": layer[name], "unit": PER_LAYER_UNITS[name]} for name in PER_LAYER_UNITS}
    return metrics, attempted, failed, lines + problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "clbk" / "__init__.py").is_file():
        fail_setup(f"no package source at {ROOT / 'src' / 'clbk'}")
    print(f"workload {args.workload}, seconds {args.seconds}, trace {args.trace}")
    if args.trace:
        m, items, _, template = set_up(args.workload, args.seed, speed.RawClock())
        metrics, attempted, failed, lines = traced(args.workload, args.seed, m, items, template)
    else:
        with speed.ScaledClock() as clock:
            m, items, setup_times, _ = set_up(args.workload, args.seed, clock)
            metrics, tally, lines = untraced(args.workload, args.seconds, m, items, setup_times, clock)
        attempted, failed = tally.attempted, tally.failed
        lines += tally.notes
    print("environment " + json.dumps(environment(args.seed)))
    for line in lines:
        print(line)
    print(f"fail_ratio {failed / attempted:.6f} ({failed}/{attempted})")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

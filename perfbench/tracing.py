"""Span recorder for the traced run, and the per-layer metrics computed from its spans.

The recorder rebinds public functions at the package's layer boundaries (module
attributes and class methods) in the traced process only, so every call through them
records a span ``{name, start, end, parent, request}``. Spans stay in memory until the
run ends and are then written out. A layer's self time is the time its spans cover
minus the part their child spans cover. Work counters are taken at the same
boundaries; each one is a function of the inputs alone, so it repeats exactly.
"""

from __future__ import annotations

import gzip
import os
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from inputs import CRITERION_1, CRITERION_1_LISTING

# (owner, attribute, span name). An owner "prover" is the module clbk.prover; a dotted
# owner "agents.Simulation" is a class. A function imported by name into several
# modules is rebound in each caller, since each holds its own reference.
BOUNDARIES = (
    ("formula", "parse_formula", "formula.parse"),
    ("scenario", "parse_formula", "formula.parse"),
    ("prover", "print_formula", "formula.print"),
    ("agents", "print_formula", "formula.print"),
    ("engine", "surface_occurrences", "formula.walk"),
    ("agents", "surface_occurrences", "formula.walk"),
    ("prover", "is_valid", "classical.is_valid"),
    ("prover", "prove", "prover.prove"),
    ("agents", "prove", "prover.prove"),
    ("prover", "hybridize", "prover.hybridize"),
    ("agents", "hybridize", "prover.hybridize"),
    ("prover", "verify_proof", "prover.verify_proof"),
    ("engine", "verify_proof", "prover.verify_proof"),
    ("prover", "format_proof", "prover.format_proof"),
    ("engine", "step", "engine.step"),
    ("engine", "new_session", "engine.new_session"),
    ("engine", "evaluate_winner", "engine.evaluate_winner"),
    ("engine.Session", "local_run", "engine.local_run"),
    ("engine", "subrun", "games.subrun"),
    ("agents", "subrun", "games.subrun"),
    ("agents.Simulation", "run", "agents.run"),
    ("agents.Simulation", "exec_step", "agents.exec_step"),
    ("agents.Bus", "post", "agents.post"),
    ("scenario", "parse_scenario", "scenario.parse"),
)

# Search nodes expanded: the search calls premises_C once per node it expands.
EXPANSION_COUNTER = ("prover", "premises_C")


class SpanRecorder:
    def __init__(self, modules):
        self.m = modules
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.kind = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.current = -1
        self.request_id = -1
        self.counters: Counter = Counter()
        self.validity_args: list = []
        self.proofs: list = []
        self.undo: list[tuple[object, str, object]] = []

    def set_request(self, rid: int) -> None:
        self.request_id = rid

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _wrap(self, fn, name: str):
        """Span around ``fn``. A call made directly from a span of the same name (the
        recursion of hybridize and verify_proof) runs inside its caller's span."""
        rec, kind = self, self._id(name)
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = rec.current
            if parent >= 0 and rec.kind[parent] == kind:
                return fn(*args, **kwargs)
            idx = len(rec.start)
            rec.kind.append(kind)
            rec.parent.append(parent)
            rec.request.append(rec.request_id)
            rec.end.append(0.0)
            rec.current = idx
            rec.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = perf()
                rec.current = parent
            if observe:
                observe(args, result)
            return result

        return traced

    # Counters kept at the boundaries; costly ones store references and are summed
    # after the traced pass, outside every span.
    def _observe_classical_is_valid(self, args, result):
        self.validity_args.append(args[0])

    def _observe_prover_prove(self, args, result):
        if result is not None:
            self.proofs.append(result)

    def _observe_games_subrun(self, args, result):
        self.counters["games.subrun_moves_scanned"] += len(args[0])

    def _observe_agents_exec_step(self, args, result):
        self.counters["agents.visits." + result] += 1

    def _observe_agents_run(self, args, result):
        self.counters["engine.moves"] += len(result.trace)

    def _owner(self, dotted: str):
        module, _, cls = dotted.partition(".")
        owner = self.m[module]
        return getattr(owner, cls) if cls else owner

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for owner_name, attr, span in BOUNDARIES:
            owner = self._owner(owner_name)
            original = getattr(owner, attr)
            if id(original) not in wrapped:
                wrapped[id(original)] = self._wrap(original, span)
            self.undo.append((owner, attr, original))
            setattr(owner, attr, wrapped[id(original)])
        owner_name, attr = EXPANSION_COUNTER
        owner = self._owner(owner_name)
        original = getattr(owner, attr)
        prove_kind = self._id("prover.prove")

        def counted(*args, **kwargs):
            if self.current >= 0 and self.kind[self.current] == prove_kind:
                self.counters["prover.expansions"] += 1
            return original(*args, **kwargs)

        self.undo.append((owner, attr, original))
        setattr(owner, attr, counted)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()

    # -- results ------------------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        totals = {name: {"count": 0, "incl": 0.0, "self": 0.0} for name in self.names}
        for i in range(n):
            t = totals[self.names[self.kind[i]]]
            dur = self.end[i] - self.start[i]
            t["count"] += 1
            t["incl"] += dur
            t["self"] += dur - covered[i]
        return totals

    def write(self, path: Path) -> None:
        """Spans as gzip'd tab-separated lines: id, name, start and end in microseconds
        from the first span, parent id (-1 at a root), request id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_us\tend_us\tparent\trequest\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.kind[i]]}\t{(self.start[i] - base) * 1e6:.1f}\t"
                    f"{(self.end[i] - base) * 1e6:.1f}\t{self.parent[i]}\t{self.request[i]}\n"
                )

    def layer_metrics(self) -> dict[str, float]:
        totals = self.span_totals()

        def t(name, key="self"):
            return totals.get(name, {}).get(key, 0)

        def ms(name):
            return t(name) * 1e3

        c = self.counters
        elementary = self.m["formula"].Elementary
        children = self.m["formula"].children
        rows = 0
        for f in self.validity_args:
            atoms, stack = set(), [f]
            while stack:
                node = stack.pop()
                if isinstance(node, elementary):
                    atoms.add(node.name)
                else:
                    stack.extend(children(node))
            rows += 2 ** len(atoms)
        moves = c["engine.moves"]
        walks = t("formula.walk", "count")
        steps = t("engine.step", "count")
        visits = sum(v for k, v in c.items() if k.startswith("agents.visits."))
        useful = c["agents.visits.delivered"] + c["agents.visits.opened"]
        engine_spans = ("engine.step", "engine.new_session", "engine.evaluate_winner", "engine.local_run")
        agents_spans = ("agents.run", "agents.exec_step", "agents.post")
        return {
            "formula.parse_ms": ms("formula.parse"),
            "formula.print_ms": ms("formula.print"),
            "formula.occurrence_walks": walks,
            "formula.walks_per_move": walks / moves if moves else 0.0,
            "formula.walk_ms": ms("formula.walk"),
            "classical.validity_checks": t("classical.is_valid", "count"),
            "classical.rows": rows,
            "classical.ms": ms("classical.is_valid"),
            "prover.expansions": c["prover.expansions"],
            "prover.prove_self_ms": ms("prover.prove"),
            "prover.hybridize_ms": ms("prover.hybridize"),
            "prover.verify_ms": ms("prover.verify_proof"),
            "prover.format_ms": ms("prover.format_proof"),
            "prover.proof_nodes": sum(p.node_count() for p in self.proofs),
            "engine.steps": steps,
            "engine.moves": moves,
            "engine.step_us": t("engine.step", "incl") / steps * 1e6 if steps else 0.0,
            "engine.self_ms": sum(ms(name) for name in engine_spans),
            "engine.new_session_ms": ms("engine.new_session"),
            "engine.evaluate_winner_ms": ms("engine.evaluate_winner"),
            "engine.local_runs": t("engine.local_run", "count"),
            "games.subrun_calls": t("games.subrun", "count"),
            "games.subrun_moves_scanned": c["games.subrun_moves_scanned"],
            "games.subrun_ms": ms("games.subrun"),
            "agents.visits": visits,
            "agents.useful_visit_ratio": useful / visits if visits else 0.0,
            "agents.bus_posts": t("agents.post", "count"),
            "agents.run_self_ms": sum(ms(name) for name in agents_spans),
            "scenario.parse_ms": ms("scenario.parse"),
        }


def _median_wall(cmd: list[str], env: dict, cwd: Path, repeats: int, check) -> tuple[float, list[str]]:
    """Median wall time of ``cmd`` run ``repeats`` times in sequence; ``check`` turns
    each completed process into a list of problems."""
    walls, problems = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True, timeout=60)
        walls.append(time.perf_counter() - start)
        problems += check(proc)
    return statistics.median(walls), problems


def cli_probes(root: Path, scenario_text: str, scratch: Path, repeats: int = 3) -> tuple[dict[str, float], int, list[str]]:
    """Run ``python -m clbk.cli`` as sequential subprocesses: the criterion-1 proof and
    the built-in scenario written to a file. Returns metrics, probes attempted, problems."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    scratch.mkdir(parents=True, exist_ok=True)
    scenario = scratch / f"starbucks-{os.getpid()}.clbk"
    scenario.write_text(scenario_text, encoding="utf-8")
    summary = "u: 2/2 won; o: 2/2 won; *C: 1/1 won; *1: 1/1 won"
    timer = "import time; t = time.perf_counter(); import clbk.cli; print(time.perf_counter() - t)"
    imports, problems = [], []
    try:
        for _ in range(repeats):
            proc = subprocess.run([sys.executable, "-c", timer], env=env, cwd=root, capture_output=True, text=True, timeout=60)
            if proc.returncode != 0:
                problems.append(f"import clbk.cli failed: {proc.stderr.strip()[-200:]}")
                continue
            imports.append(float(proc.stdout.strip()))

        def prove_ok(proc):
            if proc.returncode != 0 or proc.stdout.strip() != CRITERION_1_LISTING:
                return [f"clbk prove: exit {proc.returncode}, listing {proc.stdout.strip()[:80]!r}"]
            return []

        def simulate_ok(proc):
            if proc.returncode != 0 or summary not in proc.stdout:
                return [f"clbk simulate: exit {proc.returncode}, output {proc.stdout.strip()[:80]!r}"]
            return []

        base = [sys.executable, "-m", "clbk.cli"]
        prove_s, prove_problems = _median_wall(base + ["prove", CRITERION_1, "--hybrid"], env, root, repeats, prove_ok)
        simulate_s, simulate_problems = _median_wall(base + ["simulate", str(scenario)], env, root, repeats, simulate_ok)
    finally:
        scenario.unlink(missing_ok=True)
    metrics = {
        "cli.import_ms": statistics.median(imports) * 1e3 if imports else 0.0,
        "cli.prove_ms": prove_s * 1e3,
        "cli.simulate_ms": simulate_s * 1e3,
    }
    return metrics, 3 * repeats, problems + prove_problems + simulate_problems

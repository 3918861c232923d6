"""Requests, output checks and the closed timing loop of the three workloads.

Each workload is one client in one thread: the next request starts only after the
previous one returned. A *round* is the seed's whole input list; a run repeats whole
rounds until ``seconds`` have passed, so every run measures the same mix of inputs.
The package is reached only through module attributes looked up at call time, so the
traced run can rebind them.
"""

from __future__ import annotations

import hashlib
import importlib
import time
from collections import Counter
from dataclasses import dataclass, field

from inputs import ProveItem, World


def clbk_modules():
    """The package's modules, imported from whatever ``sys.path`` resolves first."""
    names = ("formula", "classical", "prover", "engine", "games", "agents", "scenario")
    return {name: importlib.import_module(f"clbk.{name}") for name in names}


@dataclass
class Tally:
    """Outcome of a batch of requests: scaled latencies in seconds (see speed.py),
    checked outputs."""

    latencies: list[float] = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)
    work: int = 0  # formulas completed, or simulated moves
    attempted: int = 0  # formulas, or sessions
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    by_input: dict[str, list[float]] = field(default_factory=dict)
    raw_by_input: dict[str, list[float]] = field(default_factory=dict)
    work_by_input: dict[str, int] = field(default_factory=dict)
    digests: dict[int, str] = field(default_factory=dict)  # by position in the ladder
    round_rates: list[float] = field(default_factory=list)  # work per scaled second of request time
    raw_round_rates: list[float] = field(default_factory=list)

    def record(self, key: str, raw: float, scaled: float) -> None:
        self.raw_latencies.append(raw)
        self.latencies.append(scaled)
        self.by_input.setdefault(key, []).append(scaled)
        self.raw_by_input.setdefault(key, []).append(raw)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(why)


# --- prover workloads ------------------------------------------------------------


def prove_request(m, item: ProveItem):
    """parse -> prove -> hybridize -> verify (plain and hybrid) -> format."""
    f = m["formula"].parse_formula(item.source)
    tree = m["prover"].prove(f)
    if tree is None:
        return None, None, None
    hybrid = m["prover"].hybridize(tree)
    verified = m["prover"].verify_proof(tree) and m["prover"].verify_proof(hybrid)
    return tree, verified, m["prover"].format_proof(hybrid)


def check_prove(item: ProveItem, tree, verified, listing) -> str | None:
    if not item.provable:
        return None if tree is None else "unprovable by construction, yet a proof was found"
    if tree is None:
        return "provable by construction, yet no proof was found"
    if not verified:
        return "proof does not pass verify_proof in both forms"
    nodes = tree.node_count()
    if item.nodes is not None and nodes != item.nodes:
        return f"proof has {nodes} nodes, expected {item.nodes}"
    if item.listing is not None and listing != item.listing:
        return "listing differs from the golden listing"
    if len(listing.splitlines()) != nodes:
        return "listing length differs from the proof size"
    return None


def run_prove_round(m, items: list[ProveItem], tally: Tally, clock, on_request=None) -> None:
    for rid, item in enumerate(items):
        if on_request:
            on_request(rid)
        clock.start()
        tree, verified, listing = prove_request(m, item)
        tally.record(item.source, *clock.stop())
        tally.attempted += 1
        problem = check_prove(item, tree, verified, listing)
        if problem:
            tally.fail(1, f"{item.source}: {problem}")
        else:
            tally.work += 1


# --- economy -------------------------------------------------------------------


def _fields(payloads) -> dict[str, int]:
    return {k: int(v) for k, v in (p.split("=") for p in payloads)}


def check_world(world: World, report) -> list[str]:
    """Every copy of the economy reaches the template's outcome: quiescence, every
    session won, 10 coffee and 10 dollar heuristic wins with exact answers, the copy's
    requirement scripts served one for one, and the user's ledger balanced."""
    problems = []
    if not report.quiescent:
        problems.append("not quiescent within the step budget")
    if not report.all_won():
        problems.append("some session was not won: " + report.summary())
    wins: dict[tuple[str, str], list[tuple[str, ...]]] = {}
    for w in report.heuristic_wins:
        wins.setdefault((w.agent, w.atom), []).append(w.payloads)
    for economy in world.economies:
        maker, bank, user = economy.agent("*C"), economy.agent("*1"), economy.agent("u")
        coffee, dollar = wins.get((maker, "C"), []), wins.get((bank, "D"), [])
        if len(coffee) != 10 or len(dollar) != 10:
            problems.append(f"{economy.suffix}: {len(coffee)}+{len(dollar)} heuristic wins, expected 10+10")
        if any((f := _fields(p)).get("z") != f["x"] * f["y"] + 1 for p in coffee):
            problems.append(f"{economy.suffix}: a coffee answer is not z = x*y+1")
        if any((f := _fields(p)).get("r") != 2 * f["v"] for p in dollar):
            problems.append(f"{economy.suffix}: a dollar answer is not r = 2v")
        orders = Counter(tuple(p[:2]) for p in coffee)
        if orders != Counter(economy.scripts[bank]):
            problems.append(f"{economy.suffix}: coffee orders differ from the bank's requirements")
        requests = Counter(tuple(p[:1]) for p in dollar)
        if requests != Counter(economy.scripts[maker]):
            problems.append(f"{economy.suffix}: dollar requests differ from the maker's requirements")
        ledger = report.ledgers.get(user, {})
        if ledger.get("received", {}).get("C") != 2 or ledger.get("paid", {}).get("D") != 2:
            problems.append(f"{economy.suffix}: user ledger is not received C=2, paid D=2")
    return problems


def trace_digest(report) -> str:
    return hashlib.sha256("\n".join(report.trace).encode()).hexdigest()


def run_economy_round(m, worlds: list[World], tally: Tally, clock, on_request=None) -> None:
    """One pass over the ladder. Simulations mutate their agents' resource bases, so
    each world is parsed afresh, outside its timed span."""
    for rid, world in enumerate(worlds):
        if on_request:
            on_request(rid)
        agents = m["scenario"].parse_scenario(world.text)
        clock.start()
        report = m["agents"].Simulation(agents).run()
        tally.record(f"N={world.n}", *clock.stop())
        tally.work_by_input[f"N={world.n}"] = len(report.trace)
        sessions = len(report.results)
        tally.attempted += sessions
        problems = check_world(world, report)
        digest = trace_digest(report)
        if tally.digests.setdefault(rid, digest) != digest:
            problems.append("global trace differs from the first pass of this seed")
        lost = sum(1 for r in report.results if r.status != "won")
        if problems:
            tally.fail(max(lost, 1), f"N={world.n}: " + "; ".join(problems))
        tally.work += len(report.trace)


def run_closed_loop(seconds: float, one_round, tally: Tally) -> None:
    """Repeat whole rounds into ``tally`` until ``seconds`` have passed, at least one."""
    start = time.perf_counter()
    while True:
        requests, work = len(tally.latencies), tally.work
        one_round(tally)
        done = tally.work - work
        tally.round_rates.append(done / sum(tally.latencies[requests:]))
        tally.raw_round_rates.append(done / sum(tally.raw_latencies[requests:]))
        if time.perf_counter() - start >= seconds:
            return


def world_digest(tally: Tally) -> str:
    joined = "".join(f"{rid}:{d}\n" for rid, d in sorted(tally.digests.items()))
    return hashlib.sha256(joined.encode()).hexdigest()[:16]

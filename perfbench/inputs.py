"""Seeded input generators for the three workloads.

Every generator takes a ``random.Random`` and returns plain text (formula sources or
scenario files) together with the verdict the input has by construction. Nothing here
imports clbk: generation is not part of the measured set-up, and the inputs must not
shift when the package or its tests change.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass

AND, OR, IMPLIES = "/\\", "\\/", "->"
CHAND, CHOR = "&", "|"

CRITERION_1 = "(C /\\ C) -> (C \\/ C) @ w"
# Hand-written golden listing of the hybridized criterion-1 proof (premises first).
CRITERION_1_LISTING = (
    "1. (C_p /\\ C_q) -> (C_p \\/ C_q) @ w, rule A, 0\n"
    "2. (C_p /\\ C) -> (C_p \\/ C) @ w, rule C, 1\n"
    "3. (C /\\ C) -> (C \\/ C) @ w, rule C, 2"
)

# Unprovable fixtures of the acceptance suite (hand-written verdicts).
UNPROVABLE_FIXTURES = ("P -> (P /\\ P)", "C \\/ C", "p | ~p")


@dataclass(frozen=True)
class ProveItem:
    """One prover request. ``nodes`` is the expected proof size where the construction
    fixes it; ``listing`` the expected hybrid listing where it is golden."""

    source: str
    provable: bool
    kind: str
    nodes: int | None = None
    listing: str | None = None


def chain(atoms: list[str], op: str) -> str:
    return f" {op} ".join(atoms)


def random_tree(rng: random.Random, atoms: list[str], ops: tuple[str, ...]) -> str:
    """Fully parenthesized random binary tree over ``atoms`` in the given leaf order."""
    if len(atoms) == 1:
        return atoms[0]
    cut = rng.randint(1, len(atoms) - 1)
    left = random_tree(rng, atoms[:cut], ops)
    right = random_tree(rng, atoms[cut:], ops)
    return f"({left} {rng.choice(ops)} {right})"


# --- prove-valid ---------------------------------------------------------------

FAMILY_SIZES = range(2, 12)

# Identity bodies are drawn to a fixed quota per body class (general atoms capped at 3,
# choice operators capped at 2, operators). These counts set the prover's work
# (pairings, closure premises, formula size), so fixed quotas keep the cost of a round,
# and its median request, steady across seeds.
IDENTITIES = 49


def random_body(rng: random.Random, depth: int) -> str:
    """Random body of operator depth <= ``depth`` over {C, D, p, q, ~, /\\, \\/, ->, &, |}."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice("CDpq")
    op = rng.choice(("~", AND, OR, IMPLIES, CHAND, CHOR))
    if op == "~":
        return f"~{random_body(rng, depth - 1)}"
    return f"({random_body(rng, depth - 1)} {op} {random_body(rng, depth - 1)})"


def body_class(body: str) -> tuple[int, int, int]:
    generals = sum(body.count(a) for a in "CD")
    choices = sum(body.count(op) for op in (CHAND, CHOR))
    operators = choices + sum(body.count(op) for op in ("~", AND, OR, IMPLIES))
    return min(generals, 3), min(choices, 2), operators


def identity_quotas(total: int, draws: int = 20_000) -> dict[tuple[int, int, int], int]:
    """Quotas proportional to each class's frequency among ``draws`` bodies drawn from a
    fixed seed, rounded to sum to ``total`` by largest remainder."""
    rng = random.Random(0)
    counts = Counter(body_class(random_body(rng, 2)) for _ in range(draws))
    shares = {key: count * total / draws for key, count in counts.items()}
    quotas = {key: int(share) for key, share in shares.items()}
    by_remainder = sorted(shares, key=lambda key: shares[key] - quotas[key], reverse=True)
    for key in by_remainder[: total - sum(quotas.values())]:
        quotas[key] += 1
    return quotas


def prove_valid_inputs(rng: random.Random, scale: int = 1) -> list[ProveItem]:
    """Formulas provable by construction.

    * ``(C^n) -> (C^n)``: rule C pairs the i-th antecedent C with the i-th consequent C;
      after n pairings ``(p1 /\\ ... /\\ pn) -> (p1 /\\ ... /\\ pn)`` is classically
      valid, so rule A closes. The search tries pairings first and its first path
      succeeds, so the proof has n + 1 nodes.
    * ``(C^n) -> (C \\/ ... \\/ C)``: the same n pairings leave
      ``(p1 /\\ ... /\\ pn) -> (p1 \\/ ... \\/ pn)``, which is valid.
    * ``(A -> A) @ w``: the copy-cat strategy wins every instance; the proof pairs each
      general atom of the antecedent copy with its twin in the consequent copy, mirrors
      the environment's choices with rule B and closes on an elementarization of the
      form ``E -> E``.
    * The criterion-1 formula, whose hybrid listing is golden.

    Bodies of operator depth 3 or more are left out: a few of them take seconds, which
    would make throughput depend on the seed. ``scale`` divides the identity count for
    the reduced-size self-check.
    """
    items = [ProveItem(CRITERION_1, True, "criterion-1", nodes=3, listing=CRITERION_1_LISTING)]
    for n in FAMILY_SIZES:
        cs = chain(["C"] * n, AND)
        items.append(ProveItem(f"({cs}) -> ({cs})", True, "family-and", nodes=n + 1))
        items.append(ProveItem(f"({cs}) -> ({chain(['C'] * n, OR)})", True, "family-or"))
    wanted = identity_quotas(IDENTITIES // scale)
    while any(wanted.values()):
        body = random_body(rng, 2)
        key = body_class(body)
        if wanted.get(key):
            wanted[key] -= 1
            items.append(ProveItem(f"({body} -> {body}) @ w", True, "identity"))
    return items


# --- prove-refute --------------------------------------------------------------

REFUTE_FAMILY_SIZES = range(1, 5)
# k = 3 draws per (C count in the antecedent, extra atom). The two all-same-atom
# combinations (all C plus C, all D plus D) search three to four times longer than the
# six mixed ones. With these counts a round has 106 requests, and its 90th percentile
# falls in the middle of the 12 all-same searches instead of on their upper edge.
REFUTE_K3_MIXED = 14
REFUTE_K3_SAME = 6
# k = 4 antecedents with 1, 2 or 3 Cs; an all-same k = 4 antecedent repeats the
# (C^4) -> (C^4 /\ C) member of the family.
REFUTE_K4_C_COUNTS = (1, 2, 3)


def refutable(rng: random.Random, c_count: int, k: int, extra: str) -> str:
    """``A -> B`` with A a random /\\ and \\/ tree over k general atoms (``c_count`` of them
    C, the rest D) and B a random /\\ tree over the same atoms plus ``extra``.

    Unprovable by construction: B has k + 1 positive general occurrences and A only k
    negative ones. Rule C consumes one negative occurrence per pairing, so every node of
    the search keeps an unpaired positive atom among B's conjuncts. Elementarization
    turns it into false, which makes B false, while A, monotone over truth constants and
    fresh atoms, is true when every atom is true; so no node is stable and rule A never
    applies. There is no choice operator, so rule B never applies either.
    """
    atoms = ["C"] * c_count + ["D"] * (k - c_count)
    rng.shuffle(atoms)
    antecedent = random_tree(rng, atoms, (AND, OR))
    conjuncts = atoms + [extra]
    rng.shuffle(conjuncts)
    return f"{antecedent} -> {random_tree(rng, conjuncts, (AND,))}"


def prove_refute_inputs(rng: random.Random, scale: int = 1) -> list[ProveItem]:
    """Formulas unprovable by construction: the family ``(C^n) -> (C^n /\\ C)`` for
    n <= 4 (n = 5 searches for minutes), the unprovable acceptance fixtures, and random
    k = 3 and k = 4 instances of :func:`refutable`. ``scale`` > 1 keeps one k = 3 draw per
    combination, no k = 4 draw and the family up to n = 3, for the reduced-size self-check."""
    items = []
    for n in REFUTE_FAMILY_SIZES if scale == 1 else range(1, 4):
        cs = chain(["C"] * n, AND)
        items.append(ProveItem(f"({cs}) -> ({cs} {AND} C)", False, "family"))
    items += [ProveItem(src, False, "fixture") for src in UNPROVABLE_FIXTURES]
    for c_count in range(4):
        for extra in "CD":
            same = (c_count, extra) in ((0, "D"), (3, "C"))
            for _ in range(1 if scale > 1 else REFUTE_K3_SAME if same else REFUTE_K3_MIXED):
                items.append(ProveItem(refutable(rng, c_count, 3, extra), False, "k3"))
    for c_count in REFUTE_K4_C_COUNTS if scale == 1 else ():
        items.append(ProveItem(refutable(rng, c_count, 4, rng.choice("CD")), False, "k4"))
    return items


# --- economy -------------------------------------------------------------------

# N = 8 three times: the median request falls among those worlds, from three times the
# samples.
LADDER = (1, 2, 4, 8, 8, 8, 16, 24, 32)

_AGENT_LINE = re.compile(r'^agent\s+(?:"([^"\s]+)"|([A-Za-z][A-Za-z0-9]*))(.*)$')
_ANNOTATION = re.compile(r'@\s*(?:"([^"\s]+)"|([A-Za-z][A-Za-z0-9]*))\s*$')
_GAME_LINE = re.compile(r"^game\s+\w+\s*=\s*(coffee|dollar)\s*\(\s*\w+\s*=\s*(\d+)\s*\)")
_SCRIPT_LINE = re.compile(r"^(\s*script\s+\w+\s*=\s*)\[([^\]]*)\](.*)$")


@dataclass(frozen=True)
class Economy:
    """One renamed copy of the template economy; ``scripts`` maps agent id to its
    redrawn requirement scripts (payload tuples, in file order)."""

    suffix: str
    scripts: dict[str, tuple[tuple[str, ...], ...]]

    def agent(self, base: str) -> str:
        return f"{base}{self.suffix}"


@dataclass(frozen=True)
class World:
    n: int
    text: str
    economies: tuple[Economy, ...]


def _redraw(rng: random.Random, payloads: list[str], limits: dict[str, int]) -> list[str]:
    """Fresh requirement payloads of the same game, inside its limits: coffee orders
    with x*y + 1 <= zmax (so an exact brew exists), dollar requests with 1 <= v <= vmax."""
    keys = [p.split("=")[0] for p in payloads]
    if keys == ["x", "y"]:
        zmax = limits["coffee"]
        while True:
            x, y = rng.randint(1, zmax - 1), rng.randint(1, zmax - 1)
            if x * y + 1 <= zmax:
                return [f"x={x}", f"y={y}"]
    if keys == ["v"]:
        return [f"v={rng.randint(1, limits['dollar'])}"]
    raise ValueError(f"no redraw rule for script {payloads!r}")


def renamed_economy(template: str, suffix: str, rng: random.Random) -> tuple[str, Economy]:
    """Copy of ``template`` with every agent id (except God) suffixed and every script
    redrawn. Agent ids are quoted so that the suffix may hold any non-space character."""
    ids = []
    for raw in template.splitlines():
        m = _AGENT_LINE.match(raw.strip())
        if m:
            ids.append(m.group(1) or m.group(2))
    out, scripts, limits = [], {}, {}
    current = None
    for raw in template.splitlines():
        line = raw.split("#")[0].rstrip()
        stripped = line.strip()
        m = _AGENT_LINE.match(stripped)
        if m:
            current = m.group(1) or m.group(2)
            scripts[current + suffix] = []
            limits = {}
            out.append(f'agent "{current}{suffix}"{m.group(3)}')
            continue
        if m := _GAME_LINE.match(stripped):
            limits[m.group(1)] = int(m.group(2))
        if m := _SCRIPT_LINE.match(line):
            payloads = [p.strip() for p in m.group(2).split(",") if p.strip()]
            fresh = _redraw(rng, payloads, limits)
            scripts[current + suffix].append(tuple(fresh))
            line = f"{m.group(1)}[{', '.join(fresh)}]{m.group(3)}"
        m = _ANNOTATION.search(line)
        if m and (m.group(1) or m.group(2)) in ids:
            line = line[: m.start()] + f'@ "{m.group(1) or m.group(2)}{suffix}"'
        out.append(line)
    economy = Economy(suffix, {aid: tuple(s) for aid, s in scripts.items()})
    return "\n".join(out) + "\n", economy


def economy_inputs(template: str, rng: random.Random, ladder=LADDER) -> list[World]:
    """Worlds of N renamed copies of the template economy for each N of the ladder.
    The copies never trade with each other, so every copy must reach the template's
    outcome on its own whatever N is; God's requirement scripts are redrawn per copy."""
    worlds = []
    for n in ladder:
        parts, economies = [], []
        for i in range(1, n + 1):
            text, economy = renamed_economy(template, f"_{i}", rng)
            parts.append(text)
            economies.append(economy)
        worlds.append(World(n, "".join(parts), tuple(economies)))
    return worlds

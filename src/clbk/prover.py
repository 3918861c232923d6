"""Three-rule proof system: search, checking, and conversion to the paired-atom (hybrid) form."""

from __future__ import annotations

from dataclasses import dataclass

from .classical import is_valid
from .formula import (
    Chand,
    Chor,
    Elementary,
    EnvAnn,
    Formula,
    FormulaError,
    General,
    Hybrid,
    NEGATIVE,
    Occurrence,
    POSITIVE,
    child_at,
    children,
    elementarize,
    elementary_names,
    env_chooses,
    print_formula,
    resolve_spec,
    substitute_at,
    surface_occurrences,
    transform,
)


@dataclass(frozen=True)
class RuleA:
    """Closure rule: stable conclusion, one premise per branch of every environment-choice occurrence."""


@dataclass(frozen=True)
class RuleB:
    """Machine-choice rule: the premise commits occurrence ``spec`` to ``branch``."""

    spec: str
    branch: int
    env: str | None


@dataclass(frozen=True)
class RuleC:
    """Atom-pairing rule: one positive and one negative occurrence of the same general atom
    are replaced by the fresh elementary atom ``name`` (rendered as a hybrid after conversion)."""

    pos_spec: str
    neg_spec: str
    name: str


RuleTag = RuleA | RuleB | RuleC


@dataclass
class ProofTree:
    conclusion: Formula
    rule: RuleTag
    premises: tuple["ProofTree", ...] = ()

    def node_count(self) -> int:
        return 1 + sum(p.node_count() for p in self.premises)

    def rules_preorder(self) -> list[RuleTag]:
        out = [self.rule]
        for p in self.premises:
            out.extend(p.rules_preorder())
        return out


@dataclass(frozen=True)
class BranchPremise:
    spec: str
    branch: int
    env: str | None
    formula: Formula


@dataclass(frozen=True)
class PairPremise:
    pos_spec: str
    neg_spec: str
    name: str
    formula: Formula


def measure(f: Formula) -> int:
    """Choice operators plus general-atom occurrences; strictly decreases along every rule."""
    match f:
        case Chand(parts) | Chor(parts):
            return 1 + sum(measure(p) for p in parts)
        case General(_, _):
            return 1
        case _:
            return sum(measure(c) for c in children(f))


def is_stable(f: Formula, winnable: frozenset[str] = frozenset()) -> bool:
    """Whether the elementarization of ``f`` is classically valid, counting a positive general
    atom as won when the machine holds a strategy for it: an inline 'h' note or membership
    in ``winnable``."""
    return is_valid(elementarize(f, lambda g: g.name in winnable or (g.note is not None and g.note.kind == "h")))


def _branch_premises(f: Formula, env_side: bool) -> list[BranchPremise]:
    return [
        BranchPremise(occ.spec, i, occ.env, substitute_at(f, occ.path, part))
        for occ in surface_occurrences(f, "choice")
        if env_chooses(occ) == env_side
        for i, part in enumerate(occ.node.parts, start=1)
    ]


def premises_A(f: Formula) -> list[BranchPremise]:
    """One premise per branch of each positive choice-conjunction / negative choice-disjunction."""
    return _branch_premises(f, True)


def premises_B(f: Formula) -> list[BranchPremise]:
    """One premise per branch of each negative choice-conjunction / positive choice-disjunction."""
    return _branch_premises(f, False)


_FRESH_BASE = "pqrstuvwxyz"


def fresh_elementary(f: Formula, avoid: frozenset[str] = frozenset()) -> str:
    taken = elementary_names(f) | avoid

    def candidates():
        yield from _FRESH_BASE
        n = 1
        while True:
            for ch in _FRESH_BASE:
                yield f"{ch}{n}"
            n += 1

    for name in candidates():
        if name not in taken:
            return name
    raise AssertionError("unreachable")


def _pairs(f: Formula):
    """Each (positive, negative) pair of surface occurrences of one general atom, by name in
    order of first occurrence, then by negative occurrence, then by positive occurrence."""
    occs = surface_occurrences(f, "general")
    for name in dict.fromkeys(occ.node.name for occ in occs):
        negs = [o for o in occs if o.node.name == name and o.polarity == NEGATIVE]
        poss = [o for o in occs if o.node.name == name and o.polarity == POSITIVE]
        for nu in negs:
            for pi in poss:
                yield pi, nu


def _paired(f: Formula, pi: Occurrence, nu: Occurrence, atom: Formula) -> Formula:
    """``f`` with both occurrences of the pair replaced by ``atom``."""
    return substitute_at(substitute_at(f, pi.path, atom), nu.path, atom)


def premises_C(f: Formula, avoid: frozenset[str] = frozenset()) -> list[PairPremise]:
    """One premise per (negative, positive) surface pair of the same general atom, both
    replaced by a fresh elementary atom not occurring in the conclusion."""
    fresh = fresh_elementary(f, avoid)
    return [PairPremise(pi.spec, nu.spec, fresh, _paired(f, pi, nu, Elementary(fresh))) for pi, nu in _pairs(f)]


class SearchBudgetExceeded(RuntimeError):
    """The proof search expanded more nodes than its ``max_nodes`` budget allows."""


class _Fresh(Elementary):
    """A fresh atom renamed in a memo key; never equal to an ``Elementary`` of any name."""


def memo_key(f: Formula, root_avoid: frozenset[str]) -> Formula:
    """The refutation-memo key of a search node: its skeleton with every fresh elementary atom
    (a name outside ``root_avoid``) renamed by order of first occurrence. Nodes that differ only
    in how the pairings named their fresh atoms share a key, and so share a verdict: a bijective
    renaming of fresh atoms maps one node's search space onto the other's and keeps stability."""
    renamed: dict[str, _Fresh] = {}
    return transform(f, lambda n: _canonical_node(n, root_avoid, renamed))


def _canonical_node(node: Formula, root_avoid: frozenset[str], renamed: dict[str, _Fresh]) -> Formula:
    if isinstance(node, EnvAnn):
        return node.child
    if isinstance(node, Elementary) and node.name not in root_avoid:
        if node.name not in renamed:
            renamed[node.name] = _Fresh(f"#{len(renamed)}")
        return renamed[node.name]
    return node


class _Search:
    """One proof search: its fixed inputs, its two memos and the number of nodes expanded."""

    def __init__(self, root_avoid: frozenset[str], winnable: frozenset[str], max_nodes: int | None):
        self.root_avoid = root_avoid
        self.winnable = winnable
        self.max_nodes = max_nodes
        self.trees: dict[Formula, ProofTree | None] = {}
        self.refuted: set[Formula] = set()
        self.expanded = 0


def prove(f: Formula, winnable: frozenset[str] = frozenset(), max_nodes: int | None = None) -> ProofTree | None:
    """Proof search with a fixed rule order: atom pairings first, then closure, then machine choices.

    Pairings are exhausted before closing so that fully general conclusions reproduce the
    canonical pairing-chain proofs. Proofs are memoized on the exact formula; refutations on
    its ``memo_key``, so a node refuted once prunes every renaming of its fresh atoms. With
    ``max_nodes`` set, expanding more nodes than that raises ``SearchBudgetExceeded``.
    """
    return _search(f, _Search(frozenset(elementary_names(f)), winnable, max_nodes))


def _search(g: Formula, s: _Search) -> ProofTree | None:
    if g in s.trees:
        return s.trees[g]
    # a provable search often refutes nothing, and then needs no key at all
    key = memo_key(g, s.root_avoid) if s.refuted else None
    if key in s.refuted:
        s.trees[g] = None
        return None
    if s.max_nodes is not None and s.expanded >= s.max_nodes:
        raise SearchBudgetExceeded(f"proof search exceeded {s.max_nodes} nodes")
    s.expanded += 1
    result = None
    for pair in premises_C(g, s.root_avoid):
        sub = _search(pair.formula, s)
        if sub is not None:
            result = ProofTree(g, RuleC(pair.pos_spec, pair.neg_spec, pair.name), (sub,))
            break
    if result is None and is_stable(g, s.winnable):
        subs = []
        for entry in premises_A(g):
            sub = _search(entry.formula, s)
            if sub is None:
                break
            subs.append(sub)
        else:
            result = ProofTree(g, RuleA(), tuple(subs))
    if result is None:
        for entry in premises_B(g):
            sub = _search(entry.formula, s)
            if sub is not None:
                result = ProofTree(g, RuleB(entry.spec, entry.branch, entry.env), (sub,))
                break
    s.trees[g] = result
    if result is None:
        s.refuted.add(memo_key(g, s.root_avoid) if key is None else key)
    return result


def provable(f: Formula, winnable: frozenset[str] = frozenset()) -> bool:
    return prove(f, winnable) is not None


def hybridize(t: ProofTree) -> ProofTree:
    """Replace each pairing rule's fresh atom by the matching hybrid atom throughout its premise
    subtree. One pass carries the renaming made by the pairings above each node down the tree,
    so every conclusion is rewritten once; an outer pairing's renaming wins over an inner one."""
    return _convert(t, {})


def _convert(node: ProofTree, renaming: dict[str, Hybrid]) -> ProofTree:
    rule = node.rule
    conclusion = node.conclusion
    inner = renaming
    if isinstance(rule, RuleC):
        pos = child_at(conclusion, resolve_spec(conclusion, rule.pos_spec))
        if not isinstance(pos, General):
            raise FormulaError("pairing rule must address a general atom")
        inner = {rule.name: Hybrid(pos.name, rule.name)} | renaming
    if renaming:
        conclusion = transform(conclusion, lambda n: renaming.get(n.name, n) if isinstance(n, Elementary) else n)
    return ProofTree(conclusion, rule, tuple(_convert(p, inner) for p in node.premises))


def verify_proof(t: ProofTree, winnable: frozenset[str] = frozenset()) -> bool:
    """Check that every node's premises are the ones its rule generates from its conclusion:
    all of ``premises_A``, in order, under a stable conclusion; the named ``premises_B`` entry;
    or the named pair given one atom absent from the conclusion, elementary or hybrid."""
    g = t.conclusion
    got = [p.conclusion for p in t.premises]
    match t.rule:
        case RuleA():
            ok = is_stable(g, winnable) and got == [e.formula for e in premises_A(g)]
        case RuleB(spec, branch, env):
            ok = any(got == [e.formula] for e in premises_B(g) if (e.spec, e.branch, e.env) == (spec, branch, env))
        case RuleC(pos_spec, neg_spec, name):
            ok = name not in elementary_names(g) and any(
                got == [_paired(g, pi, nu, atom)]
                for pi, nu in _pairs(g)
                if (pi.spec, nu.spec) == (pos_spec, neg_spec)
                for atom in (Elementary(name), Hybrid(pi.node.name, name))
            )
        case _:
            ok = False
    return ok and all(verify_proof(p, winnable) for p in t.premises)


_RULE_LETTER = {RuleA: "A", RuleB: "B", RuleC: "C"}


def format_proof(t: ProofTree) -> str:
    """Numbered listing, premises before conclusions: ``<id>. <formula>, rule <A|B|C>, <premise ids>``."""
    lines: list[str] = []
    _list_node(t, lines)
    return "\n".join(lines)


def _list_node(node: ProofTree, lines: list[str]) -> int:
    """Append ``node``'s premises, then ``node``, to ``lines``; return ``node``'s id."""
    ids = [_list_node(p, lines) for p in node.premises]
    refs = ", ".join(str(i) for i in ids) if ids else "0"
    lines.append(f"{len(lines) + 1}. {print_formula(node.conclusion)}, rule {_RULE_LETTER[type(node.rule)]}, {refs}")
    return len(lines)

"""Three-rule proof system: search, checking, and conversion to the paired-atom (hybrid) form."""

from __future__ import annotations

from dataclasses import dataclass

from .classical import is_valid
from .formula import (
    Chand,
    Chor,
    Elementary,
    Formula,
    FormulaError,
    General,
    Hybrid,
    NEGATIVE,
    POSITIVE,
    child_at,
    children,
    elementarize,
    elementary_names,
    env_chooses,
    print_formula,
    resolve_spec,
    skeleton,
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
    premise_index: dict[tuple[str, int], int] | None = None

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


def premises_C(f: Formula, avoid: frozenset[str] = frozenset()) -> list[PairPremise]:
    """One premise per (negative, positive) surface pair of the same general atom, both
    replaced by a fresh elementary atom not occurring in the conclusion."""
    occs = surface_occurrences(f, "general")
    names = list(dict.fromkeys(occ.node.name for occ in occs))
    fresh = fresh_elementary(f, avoid)
    out = []
    for name in names:
        negs = [o for o in occs if o.node.name == name and o.polarity == NEGATIVE]
        poss = [o for o in occs if o.node.name == name and o.polarity == POSITIVE]
        for nu in negs:
            for pi in poss:
                g = substitute_at(f, pi.path, Elementary(fresh))
                g = substitute_at(g, nu.path, Elementary(fresh))
                out.append(PairPremise(pi.spec, nu.spec, fresh, g))
    return out


def prove(f: Formula, winnable: frozenset[str] = frozenset()) -> ProofTree | None:
    """Proof search with a fixed rule order: atom pairings first, then closure, then machine choices.

    Pairings are exhausted before closing so that fully general conclusions reproduce the
    canonical pairing-chain proofs; verdicts are memoized on the annotation-erased formula.
    """
    root_avoid = frozenset(elementary_names(f))
    trees: dict[Formula, ProofTree | None] = {}
    verdicts: dict[Formula, bool] = {}

    def search(g: Formula) -> ProofTree | None:
        if g in trees:
            return trees[g]
        sk = skeleton(g)
        if verdicts.get(sk) is False:
            trees[g] = None
            return None
        m = measure(g)
        result = None
        for pair in premises_C(g, root_avoid):
            assert measure(pair.formula) < m, "termination measure must decrease"
            sub = search(pair.formula)
            if sub is not None:
                result = ProofTree(g, RuleC(pair.pos_spec, pair.neg_spec, pair.name), (sub,))
                break
        if result is None and is_stable(g, winnable):
            entries = premises_A(g)
            subs = []
            index: dict[tuple[str, int], int] = {}
            for k, entry in enumerate(entries):
                assert measure(entry.formula) < m, "termination measure must decrease"
                sub = search(entry.formula)
                if sub is None:
                    break
                subs.append(sub)
                index[(entry.spec, entry.branch)] = k
            else:
                result = ProofTree(g, RuleA(), tuple(subs), index)
        if result is None:
            for entry in premises_B(g):
                assert measure(entry.formula) < m, "termination measure must decrease"
                sub = search(entry.formula)
                if sub is not None:
                    result = ProofTree(g, RuleB(entry.spec, entry.branch, entry.env), (sub,))
                    break
        trees[g] = result
        verdicts[sk] = result is not None
        return result

    return search(f)


def provable(f: Formula, winnable: frozenset[str] = frozenset()) -> bool:
    return prove(f, winnable) is not None


def hybridize(t: ProofTree) -> ProofTree:
    """Replace each pairing rule's fresh atom by the matching hybrid atom throughout its premise
    subtree. One pass carries the renaming made by the pairings above each node down the tree,
    so every conclusion is rewritten once; an outer pairing's renaming wins over an inner one."""

    def convert(node: ProofTree, renaming: dict[str, Hybrid]) -> ProofTree:
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
        return ProofTree(conclusion, rule, tuple(convert(p, inner) for p in node.premises), node.premise_index)

    return convert(t, {})


def _find_choice(f: Formula, spec: str):
    return next((occ for occ in surface_occurrences(f, "choice") if occ.spec == spec), None)


def verify_proof(t: ProofTree, winnable: frozenset[str] = frozenset()) -> bool:
    """Check every node against its rule's side conditions, including stability and the
    completeness of closure premises. Accepts both the fresh-atom and hybrid forms."""
    g = t.conclusion
    match t.rule:
        case RuleA():
            if not is_stable(g, winnable):
                return False
            entries = premises_A(g)
            if len(entries) != len(t.premises):
                return False
            for k, entry in enumerate(entries):
                if t.premises[k].conclusion != entry.formula:
                    return False
            index = t.premise_index or {}
            if index != {(e.spec, e.branch): k for k, e in enumerate(entries)}:
                return False
        case RuleB(spec, branch, env):
            occ = _find_choice(g, spec)
            if occ is None or occ.env != env:
                return False
            if env_chooses(occ) or not 1 <= branch <= len(occ.node.parts):
                return False
            if len(t.premises) != 1:
                return False
            if t.premises[0].conclusion != substitute_at(g, occ.path, occ.node.parts[branch - 1]):
                return False
        case RuleC(pos_spec, neg_spec, name):
            poss = [o for o in surface_occurrences(g, "general") if o.spec == pos_spec and o.polarity == POSITIVE]
            negs = [o for o in surface_occurrences(g, "general") if o.spec == neg_spec and o.polarity == NEGATIVE]
            if len(poss) != 1 or len(negs) != 1:
                return False
            pi, nu = poss[0], negs[0]
            if pi.node.name != nu.node.name:
                return False
            if name in elementary_names(g):
                return False
            if len(t.premises) != 1:
                return False
            candidates = []
            for replacement in (Elementary(name), Hybrid(pi.node.name, name)):
                h = substitute_at(g, pi.path, replacement)
                h = substitute_at(h, nu.path, replacement)
                candidates.append(h)
            if t.premises[0].conclusion not in candidates:
                return False
        case _:
            return False
    return all(verify_proof(p, winnable) for p in t.premises)


_RULE_LETTER = {RuleA: "A", RuleB: "B", RuleC: "C"}


def format_proof(t: ProofTree) -> str:
    """Numbered listing, premises before conclusions: ``<id>. <formula>, rule <A|B|C>, <premise ids>``."""
    lines: list[str] = []

    def walk(node: ProofTree) -> int:
        ids = [walk(p) for p in node.premises]
        refs = ", ".join(str(i) for i in ids) if ids else "0"
        lines.append(f"{len(lines) + 1}. {print_formula(node.conclusion)}, rule {_RULE_LETTER[type(node.rule)]}, {refs}")
        return len(lines)

    walk(t)
    return "\n".join(lines)

"""Three-rule proof system: search, checking, and conversion to the paired-atom (hybrid) form."""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import count

from .classical import is_valid
from .formula import (
    And,
    Chand,
    Chor,
    Elementary,
    EnvAnn,
    Formula,
    FormulaError,
    General,
    Hybrid,
    Occurrence,
    Or,
    POSITIVE,
    SYMBOLS,
    Truth,
    atom_text,
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


def _backed(g: General, winnable: frozenset[str]) -> bool:
    """Whether the machine holds a strategy for the general atom ``g``: an inline 'h' note or
    membership in ``winnable``."""
    return g.name in winnable or (g.note is not None and g.note.kind == "h")


def is_stable(f: Formula, winnable: frozenset[str] = frozenset()) -> bool:
    """Whether the elementarization of ``f`` is classically valid, counting a positive general
    atom as won when it is backed (see ``_backed``)."""
    return is_valid(elementarize(f, lambda g: _backed(g, winnable)))


def names_valid(f: Formula, winnable: frozenset[str] = frozenset()) -> bool:
    """Whether the name-level elementarization of ``f`` is classically valid: each general
    atom that is not a backed positive one (see ``_backed``) is read as the elementary atom
    named after it. At a monotone node this is necessary for a stable matching (see ``prove``)."""
    return is_valid(elementarize(f, lambda g: _backed(g, winnable), names=True))


class _Walk:
    """One surface walk of a formula, from which every rule's premises are generated: its
    surface choice occurrences; its surface general-atom occurrences, as (positive, negative)
    lists per name in order of first occurrence; and every elementary name in it, under
    choices too, a hybrid counting by its elementary component."""

    __slots__ = ("choices", "atoms", "names")

    def __init__(self, f: Formula):
        self.choices: list[Occurrence] = []
        self.atoms: dict[str, tuple[list[Occurrence], list[Occurrence]]] = {}
        self.names: set[str] = set()
        for occ in surface_occurrences(f, "leaf"):
            node = occ.node
            if isinstance(node, General):
                poss, negs = self.atoms.setdefault(node.name, ([], []))
                (poss if occ.polarity == POSITIVE else negs).append(occ)
            elif isinstance(node, Elementary):
                self.names.add(node.name)
            elif isinstance(node, Hybrid):
                self.names.add(node.elementary)
            elif not isinstance(node, Truth):
                self.choices.append(occ)
                self.names |= elementary_names(node)

    def pairs(self, canonical: bool = False) -> list[tuple[Occurrence, Occurrence]]:
        """Each (positive, negative) pair of occurrences of one general atom, by name, then by
        negative occurrence, then by positive occurrence. With ``canonical``, if the first
        pairable name has at least as many positive occurrences as negative ones, only the
        pairs at its first negative occurrence, which are the first entries of the full list."""
        pairable = [(poss, negs) for poss, negs in self.atoms.values() if poss and negs]
        if canonical and pairable and len(pairable[0][0]) >= len(pairable[0][1]):
            poss, negs = pairable[0]
            return [(pi, negs[0]) for pi in poss]
        return [(pi, nu) for poss, negs in pairable for nu in negs for pi in poss]

    def monotone(self, winnable: frozenset[str]) -> bool:
        """No surface choice, and no backed positive occurrence of a pairable name."""
        return not self.choices and not any(
            negs and any(_backed(pi.node, winnable) for pi in poss) for poss, negs in self.atoms.values()
        )


def _branch_premises(f: Formula, choices: list[Occurrence], env_side: bool) -> list[BranchPremise]:
    return [
        BranchPremise(occ.spec, i, occ.env, substitute_at(f, occ.path, part))
        for occ in choices
        if env_chooses(occ) == env_side
        for i, part in enumerate(occ.node.parts, start=1)
    ]


def premises_A(f: Formula) -> list[BranchPremise]:
    """One premise per branch of each positive choice-conjunction / negative choice-disjunction."""
    return _branch_premises(f, surface_occurrences(f, "choice"), True)


def premises_B(f: Formula) -> list[BranchPremise]:
    """One premise per branch of each negative choice-conjunction / positive choice-disjunction."""
    return _branch_premises(f, surface_occurrences(f, "choice"), False)


_FRESH_BASE = "pqrstuvwxyz"


def _fresh_name(taken: set[str]) -> str:
    """The first of ``p``..``z``, ``p1``..``z1``, ``p2``.. not in ``taken``."""
    for n in count():
        for ch in _FRESH_BASE:
            name = f"{ch}{n}" if n else ch
            if name not in taken:
                return name


def _paired(f: Formula, pi: Occurrence, nu: Occurrence, atom: Formula) -> Formula:
    """``f`` with both occurrences of the pair replaced by ``atom``."""
    return substitute_at(substitute_at(f, pi.path, atom), nu.path, atom)


def premises_C(
    f: Formula, avoid: frozenset[str] = frozenset(), walk: _Walk | None = None, canonical: bool = False
) -> list[PairPremise]:
    """One premise per (positive, negative) surface pair of the same general atom, both
    replaced by a fresh elementary atom that occurs neither in the conclusion nor in
    ``avoid``. ``walk`` is the conclusion's walk if the caller has made it; ``canonical``
    keeps only the pairs that ``_Walk.pairs(canonical=True)`` keeps."""
    walk = _Walk(f) if walk is None else walk
    fresh = _fresh_name(walk.names | avoid)
    atom = Elementary(fresh)
    return [PairPremise(pi.spec, nu.spec, fresh, _paired(f, pi, nu, atom)) for pi, nu in walk.pairs(canonical)]


class SearchBudgetExceeded(RuntimeError):
    """The proof search expanded more nodes than its ``max_nodes`` budget allows."""


def memo_key(f: Formula, root_avoid: frozenset[str]) -> str:
    """The refutation-memo key of a search node: its skeleton written as text, with the
    operands of every chain of ``/\\`` or of ``\\/`` flattened and sorted, and then every
    fresh elementary atom (a name outside ``root_avoid``) renamed by order of first occurrence.
    The sort compares operands with every fresh atom written alike, so the names the pairings
    gave their fresh atoms decide only the order of operands that tie.

    Equal keys give equal verdicts. The key writes out one formula that the node equals up to
    annotations, associativity and commutativity of ``/\\`` and ``\\/``, and a bijective
    renaming of fresh atoms; atom names are identifiers, so the text is unambiguous. None of
    these changes a verdict: they keep every surface occurrence with its polarity and kind,
    map each rule's premises onto the other node's premises, and keep classical validity. The
    key need not be complete: nodes equal in this sense may still get different keys."""
    renamed: dict[str, str] = {}
    text = _key(f, root_avoid)[1]
    return _FRESH_REF.sub(lambda m: renamed.setdefault(m.group(1), f"#{len(renamed)}"), text)


_FRESH_REF = re.compile(r"#(\w+)")


def _key(node: Formula, root_avoid: frozenset[str]) -> tuple[str, str]:
    """``node``'s (shape, text) for ``memo_key``: the shape writes every fresh atom as ``#``,
    the text writes it as ``#`` followed by its name. Other atoms are written as they print;
    the parser's names tell elementary (lower case), general (upper case) and hybrid (with
    ``_``) atoms and the constants ``T`` and ``F`` apart."""
    kind = type(node)
    if kind is EnvAnn:
        return _key(node.child, root_avoid)
    if kind is Elementary and node.name not in root_avoid:
        return "#", "#" + node.name
    tag = SYMBOLS.get(kind)
    if tag is None:
        atom = atom_text(node)
        return atom, atom
    if kind is And or kind is Or:
        parts = sorted(_key(k, root_avoid) for k in _operands(node, kind, []))
    else:
        parts = [_key(k, root_avoid) for k in children(node)]
    return f"{tag}({','.join(p[0] for p in parts)})", f"{tag}({','.join(p[1] for p in parts)})"


def _operands(node: Formula, kind: type, out: list[Formula]) -> list[Formula]:
    """Append the operands of the chain of ``kind`` connectives at ``node`` to ``out``;
    annotations are transparent."""
    if type(node) is EnvAnn:
        node = node.child
    if type(node) is kind:
        _operands(node.left, kind, out)
        _operands(node.right, kind, out)
    else:
        out.append(node)
    return out


class _Search:
    """One proof search: its fixed inputs, its two memos and the number of nodes expanded."""

    def __init__(self, root_avoid: frozenset[str], winnable: frozenset[str], max_nodes: int | None):
        self.root_avoid = root_avoid
        self.winnable = winnable
        self.max_nodes = max_nodes
        self.trees: dict[Formula, ProofTree | None] = {}
        self.refuted: set[str] = set()
        self.expanded = 0


def prove(f: Formula, winnable: frozenset[str] = frozenset(), max_nodes: int | None = None) -> ProofTree | None:
    """Proof search with a fixed rule order: atom pairings first, then closure, then machine choices.

    Pairings are exhausted before closing so that fully general conclusions reproduce the
    canonical pairing-chain proofs. Proofs are memoized on the exact formula; refutations on
    its ``memo_key``, so a node refuted once prunes every node equal to it up to the order of
    ``/\\`` and ``\\/`` operands and a renaming of its fresh atoms. With ``max_nodes`` set,
    expanding more nodes than that raises ``SearchBudgetExceeded``.

    Pairings on disjoint occurrences commute, so the search enumerates matchings rather than
    pairing orders where that is sound: at a *monotone* node, one with no surface choice and
    no backed positive occurrence of a name that also occurs negatively. ``elementarize``
    makes an unbacked positive general atom false and a negative one true, so replacing both
    by one fresh atom can only raise the classical value: every pairing of a stable monotone
    node is stable and monotone again. Such a node is therefore provable exactly when some
    maximal matching leaves a stable node, and there the search

    * tries no closure while pairs remain, since a stable node's first pairing succeeds;
    * if the first pairable name has at least as many positive occurrences as negative ones,
      branches only on the partner of its first negative occurrence, which every maximal
      matching pairs. These are the first branches of the full rule, in its order;
    * refutes the node at once, trying no pairing, when its name-level elementarization
      ``N(g)`` is invalid (``names_valid``): ``g`` elementarized with each general atom that
      is not a backed positive one read as the elementary atom named after it. Take a
      valuation v that falsifies ``N(g)``, and give each fresh atom of any matching the
      value v gives its name. A paired occurrence then keeps its value in ``N(g)``, and an
      unpaired one takes its worst value, so, the node being monotone in each literal, every
      matched descendant is false under v. ``elementarize(g)`` is the matching with no pairs,
      so ``g`` itself is unstable too. This is the spanning condition of Bibel's connection
      method; it is necessary, not sufficient, since a matching links each occurrence once.
      Like ``memo_key``, the check runs at the root, and elsewhere only once something is
      refuted, so a search that refutes nothing pays it at the root alone.

    Each keeps the first successful branch of the full search, so proofs are unchanged."""
    return _search(f, _Search(frozenset(elementary_names(f)), winnable, max_nodes))


_UNSEEN = object()


def _search(g: Formula, s: _Search) -> ProofTree | None:
    seen = s.trees.get(g, _UNSEEN)
    if seen is not _UNSEEN:
        return seen
    # a provable search often refutes nothing, and then needs no key at all
    key = memo_key(g, s.root_avoid) if s.refuted else None
    if key in s.refuted:
        s.trees[g] = None
        return None
    if s.max_nodes is not None and s.expanded >= s.max_nodes:
        raise SearchBudgetExceeded(f"proof search exceeded {s.max_nodes} nodes")
    s.expanded += 1
    walk = _Walk(g)
    monotone = walk.monotone(s.winnable)
    pairs = premises_C(g, s.root_avoid, walk, monotone)
    # a monotone node has no choice, so with pairs left only a pairing can prove it, and none
    # can when its name-level elementarization is invalid (see prove)
    spanned = not (monotone and pairs and (s.refuted or s.expanded == 1)) or names_valid(g, s.winnable)
    result = None
    for pair in pairs if spanned else ():
        sub = _search(pair.formula, s)
        if sub is not None:
            result = ProofTree(g, RuleC(pair.pos_spec, pair.neg_spec, pair.name), (sub,))
            break
    # no closure at a monotone node with pairs left: had it been stable, its first pairing
    # would have succeeded
    if result is None and not (monotone and pairs) and is_stable(g, s.winnable):
        subs = []
        for entry in _branch_premises(g, walk.choices, True):
            sub = _search(entry.formula, s)
            if sub is None:
                break
            subs.append(sub)
        else:
            result = ProofTree(g, RuleA(), tuple(subs))
    if result is None:
        for entry in _branch_premises(g, walk.choices, False):
            sub = _search(entry.formula, s)
            if sub is not None:
                result = ProofTree(g, RuleB(entry.spec, entry.branch, entry.env), (sub,))
                break
    s.trees[g] = result
    if result is None:
        s.refuted.add(memo_key(g, s.root_avoid) if key is None else key)
    return result


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
            walk = _Walk(g)
            ok = name not in walk.names and any(
                got == [_paired(g, pi, nu, atom)]
                for pi, nu in walk.pairs()
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

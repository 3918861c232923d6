"""Three-rule proof system: search, checking, and conversion to the paired-atom (hybrid) form."""

from __future__ import annotations

import re
from collections.abc import Sequence
from itertools import count

from .classical import is_valid
from .formula import (
    BINARY_KINDS,
    And,
    Chand,
    Chor,
    Elementary,
    EnvAnn,
    Formula,
    FormulaError,
    General,
    Hybrid,
    Implies,
    NEGATIVE,
    Not,
    Occurrence,
    Or,
    POSITIVE,
    SYMBOLS,
    Truth,
    atom_text,
    children,
    elementary_names,
    env_chooses,
    occurrence_at,
    print_formula,
    rebuild,
    substitute_at,
    surface_leaves,
    surface_occurrences,
)
from .records import Frozen, Record, set_field


class RuleA(Frozen):
    """Closure rule: stable conclusion, one premise per branch of every environment-choice occurrence."""

    __slots__ = ()


class RuleB(Frozen):
    """Machine-choice rule: the premise commits occurrence ``spec`` to ``branch``."""

    __slots__ = __match_args__ = ("spec", "branch", "env")

    def __init__(self, spec: str, branch: int, env: str | None):
        set_field(self, "spec", spec)
        set_field(self, "branch", branch)
        set_field(self, "env", env)


class RuleC(Frozen):
    """Atom-pairing rule: one positive and one negative occurrence of the same general atom
    are replaced by the fresh elementary atom ``name`` (rendered as a hybrid after conversion)."""

    __slots__ = __match_args__ = ("pos_spec", "neg_spec", "name")

    def __init__(self, pos_spec: str, neg_spec: str, name: str):
        set_field(self, "pos_spec", pos_spec)
        set_field(self, "neg_spec", neg_spec)
        set_field(self, "name", name)


RuleTag = RuleA | RuleB | RuleC


class ProofTree(Record):
    __slots__ = __match_args__ = ("conclusion", "rule", "premises")

    def __init__(self, conclusion: Formula, rule: RuleTag, premises: tuple[ProofTree, ...] = ()):
        self.conclusion = conclusion
        self.rule = rule
        self.premises = premises

    def node_count(self) -> int:
        return 1 + sum(p.node_count() for p in self.premises)


class BranchPremise(Frozen):
    __slots__ = __match_args__ = ("spec", "branch", "env", "formula")

    def __init__(self, spec: str, branch: int, env: str | None, formula: Formula):
        set_field(self, "spec", spec)
        set_field(self, "branch", branch)
        set_field(self, "env", env)
        set_field(self, "formula", formula)


class PairPremise:
    """The premise of pairing the surface occurrences ``pos`` (positive) and ``neg``
    (negative) of one general atom in ``conclusion``, whose walk is ``walk``, by the fresh
    elementary atom ``name``. Its ``formula`` is built on first read and kept, so a search
    builds only the premises it tries, and its walk is derived from ``walk`` (see ``leaves``).
    A plain slotted class: the search makes one per pair at every node it expands."""

    __slots__ = ("name", "conclusion", "walk", "pos", "neg", "_formula")

    def __init__(self, name: str, conclusion: Formula, walk: _Walk, pos: Occurrence, neg: Occurrence):
        self.name = name
        self.conclusion = conclusion
        self.walk = walk
        self.pos = pos
        self.neg = neg
        self._formula: Formula | None = None

    @property
    def formula(self) -> Formula:
        """``conclusion`` with both occurrences replaced by ``Elementary(name)``."""
        f = self._formula
        if f is None:
            f = self._formula = _paired(self.conclusion, self.pos.spec, self.neg.spec, Elementary(self.name))
        return f

    def leaves(self) -> list[Occurrence]:
        """``surface_leaves(formula)``, derived from the conclusion's: the same list with the
        two paired occurrences now ``Elementary(name)`` at their spec, polarity and agent.
        ``_paired`` rebuilds only the nodes above them, so every other leaf is the same node
        at the same place in the premise. The two are found by identity (``is``), which
        costs less than comparing their fields."""
        atom, pos, neg = Elementary(self.name), self.pos, self.neg
        return [
            Occurrence(atom, o.spec, o.polarity, o.env) if o is pos or o is neg else o
            for o in self.walk.leaves
        ]


def _backed(g: General, winnable: frozenset[str]) -> bool:
    """Whether the machine holds a strategy for the general atom ``g``: an inline 'h' note or
    membership in ``winnable``."""
    return g.name in winnable or (g.note is not None and g.note.kind == "h")


def is_stable(f: Formula, winnable: frozenset[str] = frozenset()) -> bool:
    """Whether the elementarization of ``f`` is classically valid, counting a positive general
    atom as won when it is backed (see ``_backed``). ``is_valid`` folds the elementarization
    straight from ``f``: a negative general atom is T, a positive one T exactly when backed."""
    return is_valid(f, lambda g, sign: sign == NEGATIVE or _backed(g, winnable))


def names_valid(f: Formula, winnable: frozenset[str] = frozenset()) -> bool:
    """Whether the name-level elementarization of ``f`` is classically valid: each general
    atom that is not a backed positive one (see ``_backed``) is read as the elementary atom
    named after it, folded straight from ``f`` as in ``is_stable``. At a monotone node this
    is necessary for a stable matching (see ``prove``)."""
    return is_valid(f, lambda g, sign: (sign == POSITIVE and _backed(g, winnable)) or g.name)


class _Walk:
    """One surface walk of a formula, from which every rule's premises are generated: its
    surface ``leaves``, in order; its surface choice occurrences; its surface general-atom
    occurrences, as (positive, negative) lists per name in order of first occurrence; and
    every elementary name in it, under choices too, a hybrid counting by its elementary
    component. The leaves are ``surface_leaves`` of the formula, or, for a pairing premise,
    derived from its conclusion's walk (``PairPremise.leaves``). Nothing keeps the walk on
    its formula: the search's memo holds every proved node until ``prove`` returns."""

    __slots__ = ("leaves", "choices", "atoms", "names")

    def __init__(self, leaves: Sequence[Occurrence]):
        self.leaves = leaves
        self.choices: list[Occurrence] = []
        self.atoms: dict[str, tuple[list[Occurrence], list[Occurrence]]] = {}
        self.names: set[str] = set()
        for occ in leaves:
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
        BranchPremise(occ.spec, i, occ.env, substitute_at(f, occ.spec, part))
        for occ in choices
        if env_chooses(occ) == env_side
        for i, part in enumerate(occ.node.parts, start=1)
    ]


def premises_A(f: Formula) -> list[BranchPremise]:
    """One premise per branch of each positive choice-conjunction / negative choice-disjunction."""
    return _branch_premises(f, surface_occurrences(f, "choice"), True)


_FRESH_BASE = "pqrstuvwxyz"


def _fresh_name(taken: set[str]) -> str:
    """The first of ``p``..``z``, ``p1``..``z1``, ``p2``.. not in ``taken``."""
    for n in count():
        for ch in _FRESH_BASE:
            name = f"{ch}{n}" if n else ch
            if name not in taken:
                return name


def _paired(f: Formula, p: str, q: str, atom: Formula) -> Formula:
    """``f`` with the surface leaves at the specs ``p`` and ``q`` (two different ones) replaced
    by ``atom``, in one descent: the nodes above both are rebuilt once."""
    kind = type(f)
    if kind is Not or kind is EnvAnn:
        return rebuild(f, (_paired(f.child, p, q, atom),))
    if p[0] != q[0]:
        p, q = (p, q) if p[0] == "1" else (q, p)
        return kind(substitute_at(f.left, p[2:], atom), substitute_at(f.right, q[2:], atom))
    if p[0] == "1":
        return kind(_paired(f.left, p[2:], q[2:], atom), f.right)
    return kind(f.left, _paired(f.right, p[2:], q[2:], atom))


def premises_C(
    f: Formula, avoid: frozenset[str] = frozenset(), walk: _Walk | None = None, canonical: bool = False
) -> list[PairPremise]:
    """One premise per (positive, negative) surface pair of the same general atom, both
    replaced by a fresh elementary atom that occurs neither in the conclusion nor in
    ``avoid``. ``walk`` is the conclusion's walk if the caller has made it; ``canonical``
    keeps only the pairs that ``_Walk.pairs(canonical=True)`` keeps. No premise formula is
    built here: each is built when its ``formula`` is first read."""
    walk = _Walk(surface_leaves(f)) if walk is None else walk
    fresh = _fresh_name(walk.names | avoid)
    return [PairPremise(fresh, f, walk, pi, nu) for pi, nu in walk.pairs(canonical)]


class SearchBudgetExceeded(RuntimeError):
    """The proof search expanded more nodes than its ``max_nodes`` budget allows."""


def memo_key(f: Formula, root_avoid: frozenset[str]) -> str:
    """The refutation-memo key of a search node: the node without its annotations, written
    as text, with the operands of every chain of ``/\\`` or of ``\\/`` flattened and sorted,
    and then every fresh elementary atom (a name outside ``root_avoid``) renamed by order of
    first occurrence.
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
    """One proof search: its fixed inputs, its memos and the number of nodes expanded. A
    proof below a branch premise is kept by its exact formula (``proofs``), a refutation by
    its ``memo_key`` alone (``refuted``)."""

    def __init__(self, root_avoid: frozenset[str], winnable: frozenset[str], max_nodes: int | None):
        self.root_avoid = root_avoid
        self.winnable = winnable
        self.max_nodes = max_nodes
        self.proofs: dict[Formula, ProofTree] = {}
        self.refuted: set[str] = set()
        self.expanded = 0


def prove(f: Formula, winnable: frozenset[str] = frozenset(), max_nodes: int | None = None) -> ProofTree | None:
    """Proof search with a fixed rule order: atom pairings first, then closure, then machine choices.

    Pairings are exhausted before closing so that fully general conclusions reproduce the
    canonical pairing-chain proofs. Below the root, refutations are memoized on their
    ``memo_key``, so a node refuted once prunes every node equal to it up to the order of
    ``/\\`` and ``\\/`` operands and a renaming of its fresh atoms; proofs are memoized on the
    exact formula, and only below a branch premise (rule A or B). Count a node's choice
    operators and general-atom occurrences: every premise counts fewer than its conclusion,
    since a branch premise drops a choice and a pairing premise two general atoms, and nodes
    with equal keys count alike. So no node below the root meets it in either memo. Nor does
    a node on a pure pairing chain from the root meet an equal node: it keeps the root's
    choices, which a branch premise lowers; the k-th pairing on the chain names its atom with
    the k-th name outside the root's (``_fresh_name``), so two different pairing sequences
    leave different atoms at some leaf; and the search runs each sequence once. With
    ``max_nodes`` set, expanding more nodes than that raises ``SearchBudgetExceeded``.

    Pairings on disjoint occurrences commute, so the search enumerates matchings rather than
    pairing orders where that is sound: at a *monotone* node, one with no surface choice and
    no backed positive occurrence of a name that also occurs negatively. Elementarization
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
      matched descendant is false under v. The elementarization of ``g`` is the matching with
      no pairs, so ``g`` itself is unstable too. This is the spanning condition of Bibel's
      connection method; it is necessary, not sufficient, since a matching links each
      occurrence once. Like ``memo_key``, the check runs at the root, and elsewhere only once
      something is refuted, so a search that refutes nothing pays it at the root alone.

    Each keeps the first successful branch of the full search, so proofs are unchanged.

    A pairing premise is built only when the search tries it: ``premises_C`` lists a node's
    pairings once per expanded node, and a premise's formula is built, in one descent that
    rebuilds only the nodes above its two paired leaves, when the search first reads it. A
    node that the name-level check refutes builds none. A premise the search expands is not walked
    anew: its walk is its conclusion's, with the two paired leaves replaced
    (``PairPremise.leaves``)."""
    return _search(f, _Search(frozenset(elementary_names(f)), winnable, max_nodes))


def _search(g: Formula, s: _Search, pair: PairPremise | None = None, branched: bool = False) -> ProofTree | None:
    """``prove`` at ``g``; ``pair`` is the pairing whose premise ``g`` is, if it is one, and
    ``branched`` whether a branch premise (rule A or B) lies on the way from the root."""
    # proofs are looked up and kept only below a branch: a node on a pure pairing chain from
    # the root meets no equal node (see prove)
    if branched and (proof := s.proofs.get(g)) is not None:
        return proof
    # a provable search often refutes nothing, and then needs no key at all; an exact repeat
    # of a refuted node has its key, so it ends here too, before the budget check
    key = memo_key(g, s.root_avoid) if s.refuted else None
    if key in s.refuted:
        return None
    if s.max_nodes is not None and s.expanded >= s.max_nodes:
        raise SearchBudgetExceeded(f"proof search exceeded {s.max_nodes} nodes")
    root = not s.expanded
    s.expanded += 1
    walk = _Walk(surface_leaves(g) if pair is None else pair.leaves())
    monotone = walk.monotone(s.winnable)
    pairs = premises_C(g, s.root_avoid, walk, monotone)
    # a monotone node has no choice, so with pairs left only a pairing can prove it, and none
    # can when its name-level elementarization is invalid (see prove)
    spanned = not (monotone and pairs and (s.refuted or root)) or names_valid(g, s.winnable)
    result = None
    for premise in pairs if spanned else ():
        sub = _search(premise.formula, s, premise, branched)
        if sub is not None:
            result = ProofTree(g, RuleC(premise.pos.spec, premise.neg.spec, premise.name), (sub,))
            break
    # no closure at a monotone node with pairs left: had it been stable, its first pairing
    # would have succeeded
    if result is None and not (monotone and pairs) and is_stable(g, s.winnable):
        subs = []
        for entry in _branch_premises(g, walk.choices, True):
            sub = _search(entry.formula, s, None, True)
            if sub is None:
                break
            subs.append(sub)
        else:
            result = ProofTree(g, RuleA(), tuple(subs))
    if result is None:
        for entry in _branch_premises(g, walk.choices, False):
            sub = _search(entry.formula, s, None, True)
            if sub is not None:
                result = ProofTree(g, RuleB(entry.spec, entry.branch, entry.env), (sub,))
                break
    if result is None:
        if not root:  # no node below the root meets it (see prove)
            s.refuted.add(memo_key(g, s.root_avoid) if key is None else key)
    elif branched:
        s.proofs[g] = result
    return result


def hybridize(t: ProofTree) -> ProofTree:
    """``t`` with each pairing's atom ``Elementary(name)`` replaced by ``Hybrid(<general name>,
    name)``: its rules replayed from its conclusion, each premise built from its node's hybrid
    conclusion by the rule's builder (C: ``_paired``, B: ``substitute_at``, A: ``premises_A``),
    so it holds every child off the rule's paths as the same object. Only the rules and shape
    of ``t`` are read, so ``t`` should be a proof (``verify_proof(t)``); then so is the result.
    A rule that addresses no pair of general atoms (C) or no branch of a machine choice (B)
    raises ``FormulaError``; a node with more or fewer premises than its rule builds, ``ValueError``."""
    order, todo = [], [(t, t.conclusion)]
    while todo:  # each node with its hybrid conclusion, before its premises, which come last to first
        node, h = todo.pop()
        order.append((node, h))
        todo += zip(node.premises, _hybrid_premises(node.rule, h), strict=True)
    built: list[ProofTree] = []
    for node, h in reversed(order):  # each node after its premises' trees, which end ``built``
        k = len(built) - len(node.premises)
        built[k:] = [ProofTree(h, node.rule, tuple(built[k:]))]
    return built[0]


def _hybrid_premises(rule: RuleTag, h: Formula) -> list[Formula]:
    """The conclusions of the premises ``rule`` builds from the hybrid conclusion ``h``."""
    if isinstance(rule, RuleC):
        atom = _pair_atom(h, rule)
        built = None if atom is None else [_paired(h, rule.pos_spec, rule.neg_spec, Hybrid(atom.name, rule.name))]
    elif isinstance(rule, RuleB):
        built = None if (part := _chosen(h, rule)) is None else [substitute_at(h, rule.spec, part)]
    else:
        built = [e.formula for e in premises_A(h)]
    if built is None:
        raise FormulaError(f"{rule} addresses no occurrence it applies to")
    return built


def _pair_atom(g: Formula, rule: RuleC) -> General | None:
    """The general atom ``rule`` pairs in ``g``, if its specs address a positive and a negative one."""
    pos, neg = occurrence_at(g, rule.pos_spec), occurrence_at(g, rule.neg_spec)
    ok = (pos.spec, neg.spec, pos.polarity, neg.polarity) == (rule.pos_spec, rule.neg_spec, POSITIVE, NEGATIVE)
    ok = ok and type(pos.node) is General and type(neg.node) is General and pos.node.name == neg.node.name
    return pos.node if ok else None


def _chosen(g: Formula, rule: RuleB) -> Formula | None:
    """The branch ``rule`` takes in ``g``, if its spec addresses a machine choice of its agent with that branch."""
    occ = occurrence_at(g, rule.spec)
    ok = occ.spec == rule.spec and type(occ.node) in (Chand, Chor) and not env_chooses(occ) and occ.env == rule.env
    return occ.node.parts[rule.branch - 1] if ok and 1 <= rule.branch <= len(occ.node.parts) else None


def verify_proof(t: ProofTree, winnable: frozenset[str] = frozenset()) -> bool:
    """Check that every node's premises are the ones its rule generates from its conclusion:
    all of ``premises_A``, in order, under a stable conclusion; the named machine-choice branch;
    or the named pair given one atom absent from the conclusion, elementary or hybrid. This
    checks ``t`` itself; ``hybridize`` reads no premise's conclusion, so check both forms.

    A rule names each occurrence by its spec, its one address. Rule B finds its choice by one
    descent along the spec (``_chosen``) and builds the one premise it names along the same
    spec (``substitute_at``). Rule C builds none: it descends premise and conclusion together
    along its two specs, once (``_ends_off``), and reads its general atom and both polarities
    where that descent ends; ``hybridize`` alone finds the atom by two descents of its own
    (``_pair_atom``). Every child off the way must be equal (``==``, which returns at once on a
    shared subtree), and both paired leaves must be the same atom, ``Elementary(name)`` or
    ``Hybrid(<general name>, name)`` (``_pairs_as``). The freshness check walks the conclusion
    of the first rule C on a path only: a checked pairing replaces two general atoms, so its
    premise's names are the conclusion's and ``name``, and they are carried down."""
    todo: list[tuple[ProofTree, set[str] | None]] = [(t, None)]
    while todo:  # a loop, not recursion: each node with its conclusion's names, None if not known
        node, names = todo.pop()
        g = node.conclusion
        got = [p.conclusion for p in node.premises]
        below = None
        match node.rule:
            case RuleA():
                ok = is_stable(g, winnable) and got == [e.formula for e in premises_A(g)]
            case RuleB(spec):
                ok = (part := _chosen(g, node.rule)) is not None and got == [substitute_at(g, spec, part)]
            case RuleC(pos_spec, neg_spec, name):
                ok = (
                    len(got) == 1
                    and (ends := _ends_off(got[0], g, pos_spec, neg_spec)) is not None
                    and _pairs_as(ends, name)
                    and name not in (names := elementary_names(g) if names is None else names)
                )
                below = names | {name} if ok else None
            case _:
                ok = False
        if not ok:
            return False
        todo += [(p, below) for p in node.premises]
    return True


def _pairs_as(ends: list[tuple[Formula, Formula, int]], name: str) -> bool:
    """Whether ``ends`` (see ``_ends_off``) are a positive and a negative occurrence of one
    general atom in the conclusion that the premise both replaces by ``Elementary(name)`` or
    both by ``Hybrid(<general name>, name)``, read by type and fields rather than compared."""
    (leaf, pos, pos_sign), (other, neg, neg_sign) = ends
    ok = (pos_sign, neg_sign) == (POSITIVE, NEGATIVE) and type(pos) is type(neg) is General
    if not ok or pos.name != neg.name or leaf != other:
        return False
    kind = type(leaf)
    if kind is Elementary:
        return leaf.name == name
    return kind is Hybrid and leaf.elementary == name and leaf.name == pos.name and leaf.note is None


def _ends_off(h: Formula, g: Formula, p: str, q: str) -> list[tuple[Formula, Formula, int]] | None:
    """The ends of one descent through ``h`` and ``g`` together along ``g``'s specs ``p`` and
    ``q``, ``p``'s first (see ``_end_off``), if the specs part with a ``1.`` and a ``2.`` step
    at a binary node and ``h`` agrees with ``g`` off the way; None if not."""
    fork = next((i for i, (a, b) in enumerate(zip(p, q)) if a != b), None)  # None: equal, or one a prefix
    top = None if fork is None else _end_off(h, g, POSITIVE, p[:fork])
    if top is None or (kind := type(top[1])) not in BINARY_KINDS or type(top[0]) is not kind:
        return None
    h, g, sign = top
    sides = {"1.": (h.left, g.left, -sign if kind is Implies else sign), "2.": (h.right, g.right, sign)}
    ends = []
    for spec in (p, q):  # a step other than 1. or 2. at the fork has no side
        side = sides.get(spec[fork : fork + 2])
        ends.append(side and _end_off(*side, spec[fork + 2 :]))
    return None if None in ends else ends


def _end_off(h: Formula, g: Formula, sign: int, spec: str) -> tuple[Formula, Formula, int] | None:
    """The nodes of ``h`` and of ``g`` where the descent along ``spec`` stops, past the
    negations and annotations below its last step, and the polarity there of ``g``'s node if
    ``g`` has polarity ``sign``, as ``occurrence_at`` finds them in ``g``. None unless each step
    is ``1.`` or ``2.`` at a binary node, and ``h`` agrees with ``g`` off the way: each node
    passed has ``g``'s connective and agent, and each child off the way equals ``g``'s (``==``,
    which returns at once on a shared subtree)."""
    i = 0
    while (kind := type(g)) is Not or kind is EnvAnn or i < len(spec):
        if type(h) is not kind or (kind is EnvAnn and h.agent != g.agent):
            return None
        if kind is Not or kind is EnvAnn:
            h, g, sign = h.child, g.child, -sign if kind is Not else sign
            continue
        if kind not in BINARY_KINDS:
            return None
        if spec.startswith("1.", i):
            h, g, off, g_off, sign = h.left, g.left, h.right, g.right, -sign if kind is Implies else sign
        elif spec.startswith("2.", i):
            h, g, off, g_off = h.right, g.right, h.left, g.left
        else:
            return None
        if off is not g_off and off != g_off:
            return None
        i += 2
    return h, g, sign


_RULE_LETTER = {RuleA: "A", RuleB: "B", RuleC: "C"}


def format_proof(t: ProofTree) -> str:
    """Numbered listing, premises before conclusions: ``<id>. <formula>, rule <A|B|C>, <premise ids>``."""
    order, todo = [], [t]
    while todo:  # each node before its premises, which come last to first
        order.append(node := todo.pop())
        todo += node.premises
    lines: list[str] = []
    ids: list[int] = []
    for node in reversed(order):  # each node after its premises, whose ids end ``ids``
        k = len(ids) - len(node.premises)
        refs = ", ".join(map(str, ids[k:])) or "0"
        lines.append(f"{len(lines) + 1}. {print_formula(node.conclusion)}, rule {_RULE_LETTER[type(node.rule)]}, {refs}")
        ids[k:] = [len(lines)]
    return "\n".join(lines)

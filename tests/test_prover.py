import random
import sys
import time
from collections import Counter, defaultdict
from operator import is_not
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clbk import prover
from clbk.classical import is_valid
from clbk.formula import (
    BINARY_KINDS,
    NEGATIVE,
    POSITIVE,
    And,
    Chand,
    Chor,
    Elementary,
    EnvAnn,
    FormulaError,
    General,
    Hybrid,
    Implies,
    Not,
    Or,
    Truth,
    children,
    elementary_names,
    env_chooses,
    occurrence_at,
    parse_formula,
    print_formula,
    rebuild,
    surface_leaves,
    surface_occurrences,
    transform,
)
from clbk.prover import (
    ProofTree,
    RuleA,
    RuleB,
    RuleC,
    SearchBudgetExceeded,
    format_proof,
    hybridize,
    is_stable,
    memo_key,
    names_valid,
    premises_A,
    premises_C,
    prove,
    verify_proof,
)
from clbk.records import Frozen
from genlib import (
    child_at,
    elementarize,
    evaluate,
    leaf_paths,
    measure,
    path_to,
    premises_B,
    random_ast,
    random_body,
    random_provable,
    replace_at,
    rules_preorder,
    skeleton,
    spec_strings,
)
from test_acceptance import _mutations, _replace_node, _tree_nodes


def test_stability_examples():
    assert is_stable(parse_formula("(p /\\ q) -> (p \\/ q)"))
    assert not is_stable(parse_formula("P -> P"))
    assert is_stable(parse_formula("(p & q) -> (p & q)"))


def test_stability_with_winnable_atoms():
    f = parse_formula("(D /\\ D) -> (C /\\ C)")
    assert not is_stable(f)
    assert is_stable(f, winnable=frozenset({"C"}))
    assert is_stable(parse_formula("D -> C{h=make}"))
    assert not is_stable(parse_formula("D -> C{s=make}"))


def test_premises_A_axiom_case():
    assert premises_A(parse_formula("(p /\\ q) -> (p \\/ q)")) == []


def test_premises_A_positive_chand():
    f = parse_formula("((p & q) -> (p & q)) @ w")
    entries = premises_A(f)
    assert [(e.spec, e.branch, e.env) for e in entries] == [("2.", 1, "w"), ("2.", 2, "w")]
    assert entries[0].formula == parse_formula("((p & q) -> p) @ w")
    assert entries[1].formula == parse_formula("((p & q) -> q) @ w")


def test_premises_A_negative_chor_under_negation():
    f = parse_formula("~((p | q) @ w)")
    entries = premises_A(f)
    assert [(e.spec, e.branch, e.env) for e in entries] == [("", 1, "w"), ("", 2, "w")]
    assert entries[0].formula == parse_formula("~(p @ w)")


def test_premises_B_examples():
    f = parse_formula("(p & q) -> p")
    entries = premises_B(f)
    assert [(e.spec, e.branch) for e in entries] == [("1.", 1), ("1.", 2)]
    assert entries[0].formula == parse_formula("p -> p")
    assert entries[1].formula == parse_formula("q -> p")

    assert premises_B(parse_formula("p -> q")) == []
    chor = premises_B(parse_formula("p | q"))
    assert [e.formula for e in chor] == [parse_formula("p"), parse_formula("q")]


def test_premises_C_counts():
    assert len(premises_C(parse_formula("(C /\\ C) -> (C \\/ C)"))) == 4
    assert len(premises_C(parse_formula("P -> (P /\\ P)"))) == 2
    assert premises_C(parse_formula("p -> p")) == []


def test_premises_C_uses_fresh_atom():
    entries = premises_C(parse_formula("(C /\\ p) -> C"))
    assert entries[0].name == "q"
    assert entries[0].formula == parse_formula("(q /\\ p) -> q")


def test_prove_example_three_nodes():
    t = prove(parse_formula("(C /\\ C) -> (C \\/ C) @ w"))
    assert t is not None
    assert t.node_count() == 3
    assert [type(r) for r in rules_preorder(t)] == [RuleC, RuleC, RuleA]


def test_prove_unprovable_verdicts():
    assert prove(parse_formula("P -> (P /\\ P)")) is None
    assert prove(parse_formula("C \\/ C")) is None
    assert prove(parse_formula("p | ~p")) is None


def test_prove_choice_tree_shape():
    t = prove(parse_formula("((p & q) -> (p & q)) @ w"))
    assert t is not None
    rules = rules_preorder(t)
    assert [type(r) for r in rules] == [RuleA, RuleB, RuleA, RuleB, RuleA]
    assert t.node_count() == 5


def test_prove_closure_premises_follow_premises_A():
    t = prove(parse_formula("((p & q) -> (p & q)) @ w"))
    entries = premises_A(t.conclusion)
    assert [(e.spec, e.branch) for e in entries] == [("2.", 1), ("2.", 2)]
    assert [p.conclusion for p in t.premises] == [e.formula for e in entries]
    assert [p.conclusion for p in t.premises] == [parse_formula(f"((p & q) -> {x}) @ w") for x in "pq"]



def test_hybridize_paper_lines():
    t = hybridize(prove(parse_formula("(C /\\ C) -> (C \\/ C) @ w")))
    leaf = t.premises[0].premises[0]
    assert print_formula(leaf.conclusion) == "(C_p /\\ C_q) -> (C_p \\/ C_q) @ w"
    assert print_formula(t.premises[0].conclusion) == "(C_p /\\ C) -> (C_p \\/ C) @ w"
    assert print_formula(t.conclusion) == "(C /\\ C) -> (C \\/ C) @ w"
    assert verify_proof(t)


def test_hybridize_without_pairings_is_identity():
    t = prove(parse_formula("((p & q) -> (p & q)) @ w"))
    assert hybridize(t) == t


def test_hybridize_nested_pairings_disjoint():
    t = hybridize(prove(parse_formula("((C /\\ D) -> (C /\\ D)) @ w")))
    leaf = t
    while leaf.premises:
        leaf = leaf.premises[0]
    names = {a.elementary for a in _hybrids(leaf.conclusion)}
    assert len(names) == 2


def _hybrids(f):
    from clbk.formula import Hybrid, children

    out = []
    if isinstance(f, Hybrid):
        out.append(f)
    for c in children(f):
        out.extend(_hybrids(c))
    return out


def test_verify_accepts_prover_output():
    for src in ["(C /\\ C) -> (C \\/ C) @ w", "((p & q) -> (p & q)) @ w", "(C -> C) @ w", "p -> p"]:
        t = prove(parse_formula(src))
        assert verify_proof(t)
        assert verify_proof(hybridize(t))


def test_verify_rejects_unstable_axiom():
    bogus = ProofTree(parse_formula("P -> P"), RuleA(), ())
    assert not verify_proof(bogus)


def test_verify_rejects_wrong_branch():
    t = prove(parse_formula("((p & q) -> p) @ w"))
    assert isinstance(t.rule, RuleB)
    wrong = ProofTree(t.conclusion, RuleB(t.rule.spec, 2, t.rule.env), t.premises)
    assert not verify_proof(wrong)


def test_verify_rejects_a_rule_that_is_no_rule_tag():
    f = parse_formula("p -> p")
    assert verify_proof(ProofTree(f, RuleA()))
    assert not verify_proof(ProofTree(f, "A"))


def test_prove_format_listing():
    t = prove(parse_formula("(C /\\ C) -> (C \\/ C) @ w"))
    lines = format_proof(t).splitlines()
    assert len(lines) == 3
    assert lines[0].endswith("rule A, 0")
    assert lines[1].endswith("rule C, 1")
    assert lines[2].endswith("rule C, 2")


def test_env_irrelevance():
    pairs = [
        ("(C /\\ C) -> (C \\/ C) @ w", "(C /\\ C) -> (C \\/ C) @ zebra"),
        ("((p & q) -> p) @ w", "((p & q) -> p) @ u"),
        ("(P -> (P /\\ P)) @ w", "(P -> (P /\\ P)) @ u"),
    ]
    for a, b in pairs:
        assert (prove(parse_formula(a)) is None) == (prove(parse_formula(b)) is None)


def test_prove_deterministic():
    f = parse_formula("((C /\\ p) -> (C /\\ p)) @ w")
    assert prove(f) == prove(f)


def test_measure_strictly_decreases():
    rng = random.Random(23)
    violations = 0
    for f, _tree in random_provable(rng, 30):
        m = measure(f)
        for entry in premises_A(f) + premises_B(f):
            violations += 0 if measure(entry.formula) < m or m == 0 else 1
        for pair in premises_C(f):
            violations += 0 if measure(pair.formula) < m else 1
    assert violations == 0


def test_random_provable_all_verify():
    rng = random.Random(29)
    for f, tree in random_provable(rng, 25):
        assert verify_proof(tree), print_formula(f)
        assert verify_proof(hybridize(tree))


def _reference_prove(f, winnable=frozenset()):
    """The search with its refutation memo keyed on the exact annotation-erased formula:
    the oracle for the canonically keyed memo of ``prove``."""
    return _reference_search(f, {}, {}, frozenset(elementary_names(f)), winnable)


def _reference_search(g, trees, verdicts, root_avoid, winnable):
    if g in trees:
        return trees[g]
    sk = skeleton(g)
    if verdicts.get(sk) is False:
        trees[g] = None
        return None
    result = None
    for pair in premises_C(g, root_avoid):
        sub = _reference_search(pair.formula, trees, verdicts, root_avoid, winnable)
        if sub is not None:
            result = ProofTree(g, RuleC(pair.pos.spec, pair.neg.spec, pair.name), (sub,))
            break
    if result is None and is_stable(g, winnable):
        subs = []
        for entry in premises_A(g):
            sub = _reference_search(entry.formula, trees, verdicts, root_avoid, winnable)
            if sub is None:
                break
            subs.append(sub)
        else:
            result = ProofTree(g, RuleA(), tuple(subs))
    if result is None:
        for entry in premises_B(g):
            sub = _reference_search(entry.formula, trees, verdicts, root_avoid, winnable)
            if sub is not None:
                result = ProofTree(g, RuleB(entry.spec, entry.branch, entry.env), (sub,))
                break
    trees[g] = result
    verdicts[sk] = result is not None
    return result


def _reference_hybridize(t):
    """The hybrid form with every conclusion rewritten in full, each pairing's renaming carried
    down its premise subtree and an outer pairing's winning: the oracle for ``hybridize``,
    which rewrites only what each rule rebuilt."""
    return _reference_convert(t, {})


def _reference_convert(node, renaming):
    rule, inner = node.rule, renaming
    if isinstance(rule, RuleC):
        general = child_at(node.conclusion, path_to(node.conclusion, rule.pos_spec)).name
        inner = {rule.name: Hybrid(general, rule.name)} | renaming
    conclusion = transform(node.conclusion, lambda n: renaming.get(n.name, n) if isinstance(n, Elementary) else n)
    return ProofTree(conclusion, rule, tuple(_reference_convert(p, inner) for p in node.premises))


def _listings(tree, convert=hybridize):
    return None if tree is None else (format_proof(tree), format_proof(convert(tree)))


def test_prove_agrees_with_reference_search():
    rng = random.Random(53)
    formulas = [random_ast(rng, depth=4) for _ in range(1000)]
    formulas += [f for f, _ in random_provable(rng, 60) + random_provable(rng, 40, need_pairing=True)]
    verdicts = set()
    for f in formulas:
        got, expected = prove(f), _reference_prove(f)
        assert _listings(got) == _listings(expected, _reference_hybridize), print_formula(f)
        verdicts.add(got is None)
    assert verdicts == {True, False}


def _reference_verify(t, winnable=frozenset()):
    """The checker with rules B and C written out on their own, apart from the search's
    premise generators: the oracle for ``verify_proof``."""
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
        case RuleB(spec, branch, env):
            occ = next((o for o in surface_occurrences(g, "choice") if o.spec == spec), None)
            if occ is None or occ.env != env:
                return False
            if env_chooses(occ) or not 1 <= branch <= len(occ.node.parts):
                return False
            if len(t.premises) != 1:
                return False
            if t.premises[0].conclusion != replace_at(g, path_to(g, spec), occ.node.parts[branch - 1]):
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
                h = replace_at(g, path_to(g, pi.spec), replacement)
                h = replace_at(h, path_to(g, nu.spec), replacement)
                candidates.append(h)
            if t.premises[0].conclusion not in candidates:
                return False
        case _:
            return False
    return all(_reference_verify(p, winnable) for p in t.premises)


def _rule_c_mutants(tree):
    """(kind, mutant) for each rule-C node of ``tree``: its premise's conclusion changed off
    the paired paths, on them and at their ends, or paired at two general names, and its rule
    given a name already in the conclusion, swapped specs, a spec without its trailing dot,
    equal specs, a positive spec that ends at the negative leaf's parent, a step other than
    ``1.`` or ``2.`` where the specs part, or a spec into a choice."""
    for at, node in _tree_nodes(tree):
        rule = node.rule
        if not isinstance(rule, RuleC):
            continue
        g, premise = node.conclusion, node.premises[0]
        h = premise.conclusion
        pos, neg = path_to(g, rule.pos_spec), path_to(g, rule.neg_spec)
        general = child_at(g, pos).name
        end = child_at(h, pos)

        def paired(f, p, q, atom):
            return replace_at(replace_at(f, p, atom), q, atom)

        def with_premise(conclusion, rule=rule):
            # a proof of the new premise, where there is one, leaves the verdict to this node
            proof = prove(conclusion) or ProofTree(conclusion, premise.rule, premise.premises)
            return _replace_node(tree, at, rule=rule, premises=(proof,))

        off = [path for path in leaf_paths(h) if path not in (pos, neg)]
        if off:
            yield "off-path leaf", with_premise(replace_at(h, off[0], Elementary("zz")))
        for annotated in (pos[:i] for i in range(len(pos))):
            ann = child_at(h, annotated)
            if type(ann) is EnvAnn:
                yield "agent on a path", with_premise(replace_at(h, annotated, EnvAnn(ann.child, ann.agent + "x")))
                break
        other = "D" if general != "D" else "C"
        yield "hybrid of another name", with_premise(paired(h, pos, neg, Hybrid(other, rule.name)))
        mixed = Hybrid(general, rule.name) if type(end) is Elementary else Elementary(rule.name)
        yield "unlike ends", with_premise(replace_at(h, neg, mixed))
        for taken in sorted(elementary_names(g))[:1]:
            atom = Hybrid(general, taken) if type(end) is Hybrid else Elementary(taken)
            renamed = RuleC(rule.pos_spec, rule.neg_spec, taken)
            yield "name in conclusion", with_premise(paired(h, pos, neg, atom), renamed)
        for occ in surface_occurrences(g, "general"):
            if occ.polarity == NEGATIVE and occ.node.name != general:
                crossed = RuleC(rule.pos_spec, occ.spec, rule.name)
                yield "two names", with_premise(paired(g, pos, path_to(g, occ.spec), end), crossed)
                break
        yield "swapped specs", _replace_node(tree, at, rule=RuleC(rule.neg_spec, rule.pos_spec, rule.name))
        for undotted in (rule.pos_spec[:-1], rule.pos_spec + "1"):
            yield "undotted spec", _replace_node(tree, at, rule=RuleC(undotted, rule.neg_spec, rule.name))
        for spec in (rule.pos_spec, rule.neg_spec):
            yield "equal specs", _replace_node(tree, at, rule=RuleC(spec, spec, rule.name))
        yield "spec above a leaf", _replace_node(tree, at, rule=RuleC(rule.neg_spec[:-2], rule.neg_spec, rule.name))
        fork = next(i for i, (a, b) in enumerate(zip(rule.pos_spec, rule.neg_spec)) if a != b)
        for step in ("0.", "3."):
            stepped = rule.pos_spec[:fork] + step + rule.pos_spec[fork + 2 :]
            yield "step 0 or 3 at the fork", _replace_node(tree, at, rule=RuleC(stepped, rule.neg_spec, rule.name))
        for choice in surface_occurrences(g, "choice")[:1]:
            crossing = RuleC(rule.pos_spec, choice.spec + "1.", rule.name)
            yield "spec into a choice", _replace_node(tree, at, rule=crossing)


def _prover_corpus(rng):
    """The proofs of 1,000 random formulas, where there is one, and of 100 random provable
    formulas, 40 of them with a pairing."""
    trees = [prove(random_ast(rng, depth=4)) for _ in range(1000)]
    trees += [t for _, t in random_provable(rng, 60) + random_provable(rng, 40, need_pairing=True)]
    return list(filter(None, trees))


def _rule_b_mutants(tree):
    """(kind, mutant) for each rule-B node of ``tree``: its rule given another agent, branch 0
    or a leaf that is no choice; and for each rule-A node with premises, rule B at the
    environment's choice of its first premise, which keeps that premise."""
    for at, node in _tree_nodes(tree):
        rule, g = node.rule, node.conclusion
        if isinstance(rule, RuleA) and node.premises:
            entry = premises_A(g)[0]
            choice = RuleB(entry.spec, 1, entry.env)
            yield "environment's choice", _replace_node(tree, at, rule=choice, premises=node.premises[:1])
        if not isinstance(rule, RuleB):
            continue
        yield "another agent", _replace_node(tree, at, rule=RuleB(rule.spec, rule.branch, (rule.env or "w") + "x"))
        yield "branch 0", _replace_node(tree, at, rule=RuleB(rule.spec, 0, rule.env))
        for occ in surface_occurrences(g, "leaf"):
            if not children(occ.node):
                yield "no choice", _replace_node(tree, at, rule=RuleB(occ.spec, 1, occ.env))
                break


def test_verify_agrees_with_reference_checker():
    """Every proof, its hybrid form, five mutants of each and the mutants of each rule-B and
    rule-C node (``_rule_b_mutants``, ``_rule_c_mutants``) get the same verdict from
    ``verify_proof`` and from the oracle."""
    rng = random.Random(67)
    verdicts = Counter()
    kinds = Counter()
    for tree in _prover_corpus(rng):
        for form in (tree, hybridize(tree)):
            mutants = [("form", form)] + [("label", m) for m in _mutations(form, rng, 5)]
            mutants += [*_rule_b_mutants(form), *_rule_c_mutants(form)]
            for kind, candidate in mutants:
                verdict = verify_proof(candidate)
                assert verdict == _reference_verify(candidate), (kind, format_proof(candidate))
                verdicts[verdict] += 1
                kinds[kind, verdict] += 1
    assert verdicts[True] >= 200 and verdicts[False] >= 1000, verdicts
    for kind in {k for k, _ in kinds} - {"form", "label"}:
        assert kinds[kind, False] >= 20 and not kinds[kind, True], kinds


def _renamed(t, old, new, memo):
    """``t`` with the elementary atom ``old`` renamed ``new`` in every conclusion and pairing.
    Each subtree is renamed once (``memo``), so what ``t``'s conclusions share stays shared."""

    def rename(f):
        if id(f) not in memo:
            kids = [rename(k) for k in children(f)]
            changed = any(map(is_not, kids, children(f)))
            memo[id(f)] = Elementary(new) if f == Elementary(old) else rebuild(f, kids) if changed else f
        return memo[id(f)]

    rule = t.rule
    if isinstance(rule, RuleC) and rule.name == old:
        rule = RuleC(rule.pos_spec, rule.neg_spec, new)
    return ProofTree(rename(t.conclusion), rule, tuple(_renamed(p, old, new, memo) for p in t.premises))


def _fresh_name_mutants(tree):
    """``tree`` with one pairing's name renamed throughout its premise subtree onto another
    name that occurs nowhere in the pairing's subtree: ``zz``, or a name that a pairing in
    another branch gave its atom. The names stay fresh, so each mutant is a proof. (A name
    above a pairing stays in every conclusion below it, so no pairing below can take it.)"""
    paired = {node.rule.name for _, node in _tree_nodes(tree) if isinstance(node.rule, RuleC)}
    for at, node in _tree_nodes(tree):
        rule = node.rule
        if isinstance(rule, RuleC):
            below = set().union(*(elementary_names(n.conclusion) for _, n in _tree_nodes(node)))
            for name in sorted(paired - below) + ["zz"]:
                premise = _renamed(node.premises[0], rule.name, name, {})
                yield _replace_node(tree, at, rule=RuleC(rule.pos_spec, rule.neg_spec, name), premises=(premise,))


def _off_path_pairs(h, g, paths):
    """(``h``'s child, ``g``'s child) for each child off ``paths`` of the nodes on them."""
    if () in paths:
        return
    for i, (a, b) in enumerate(zip(children(h), children(g)), start=1):
        below = [p[1:] for p in paths if p[0] == i]
        if below:
            yield from _off_path_pairs(a, b, below)
        else:
            yield a, b


# Provable, with pairings in more than one branch of a closure.
_BRANCHING_PAIRINGS = [
    "(((p | C) \\/ (C & D)) -> ((p | C) \\/ (C & D))) @ w",
    "((C /\\ D) & (D | C)) -> ((C /\\ D) & (D | C))",
    "((C & D) /\\ (C | D)) -> ((C & D) /\\ (C | D))",
]


def test_hybridize_agrees_with_full_rewrite_and_shares_off_path_children():
    """On the prover corpus, three proofs with pairings in several branches, and each proof's
    fresh-name mutants, ``hybridize`` equals the full rewrite, and each hybrid rule-B and
    rule-C premise holds its hybrid conclusion's children off the rule's paths as the same
    objects."""
    rng = random.Random(67)
    checked = Counter()
    trees = _prover_corpus(rng) + [prove(parse_formula(src)) for src in _BRANCHING_PAIRINGS]
    for tree in trees:
        for form in [tree, *_fresh_name_mutants(tree)]:
            assert verify_proof(form), format_proof(form)
            hybrid = hybridize(form)
            assert hybrid == _reference_hybridize(form), format_proof(form)
            for (_, node), (_, hnode) in zip(_tree_nodes(form), _tree_nodes(hybrid)):
                g, rule = node.conclusion, node.rule
                if isinstance(rule, RuleB):
                    paths = [path_to(g, rule.spec)]
                elif isinstance(rule, RuleC):
                    paths = [path_to(g, rule.pos_spec), path_to(g, rule.neg_spec)]
                else:
                    continue
                for a, b in _off_path_pairs(hnode.premises[0].conclusion, hnode.conclusion, paths):
                    assert a is b, format_proof(form)
                    checked[type(rule), form is tree] += 1
            paired = {n.rule.name for _, n in _tree_nodes(form) if isinstance(n.rule, RuleC)}
            checked["another branch's name"] += form is not tree and "zz" not in paired
    assert checked.pop("another branch's name") >= 3, checked
    assert min(checked.values()) >= 50 and len(checked) == 4, checked


def test_name_in_conclusion_mutants_fail_once_hybridized():
    """A pairing given a name its conclusion holds fails ``verify_proof`` in the hybrid form
    too, whatever ``hybridize`` shares below it."""
    rng = random.Random(67)
    failed = 0
    for tree in _prover_corpus(rng):
        for kind, mutant in _rule_c_mutants(tree):
            if kind == "name in conclusion":
                assert not verify_proof(hybridize(mutant)), format_proof(mutant)
                failed += 1
    assert failed >= 20, failed


_MISADDRESSED = {
    *("environment's choice", "another agent", "branch 0", "no choice"),  # rule B
    *("two names", "swapped specs", "undotted spec", "spec into a choice"),  # rule C
}


def test_hybridize_refuses_rules_that_address_nothing_they_apply_to():
    """``hybridize`` builds each premise by its node's rule, so a rule B that takes no branch of
    a machine choice of its agent, or a rule C that addresses no positive and negative
    occurrence of one general atom, raises ``FormulaError``: every such mutant of a proof
    (``_rule_b_mutants``, ``_rule_c_mutants``) is refused."""
    rng = random.Random(67)
    refused = Counter()
    for tree in _prover_corpus(rng):
        for kind, mutant in [*_rule_b_mutants(tree), *_rule_c_mutants(tree)]:
            if kind in _MISADDRESSED:
                with pytest.raises(FormulaError, match="addresses no occurrence it applies to"):
                    hybridize(mutant)
                refused[kind] += 1
    assert set(refused) == _MISADDRESSED and min(refused.values()) >= 10, refused


def _unprovable_family(n):
    return parse_formula(" /\\ ".join(["C"] * n) + " -> (" + " /\\ ".join(["C"] * (n + 1)) + ")")


def _count_calls(monkeypatch, name):
    """Count the calls the prover makes to its module attribute ``name``."""
    calls = []
    original = getattr(prover, name)
    monkeypatch.setattr(prover, name, lambda *args: calls.append(1) or original(*args))
    return calls


def test_refutation_memo_expansions_pinned(monkeypatch):
    """The search expands each node with one premises_C call. It pairs the first antecedent
    C with each consequent C in turn; the first path refutes its leaf and every other
    branch meets that refutation in the memo, up to the order of /\\ operands."""
    calls = _count_calls(monkeypatch, "premises_C")
    assert prove(_unprovable_family(4)) is None
    assert len(calls) == 5


def test_refutation_family_is_linear(monkeypatch):
    """(C^n) -> (C^n /\\ C) takes n + 1 expansions, one per pairing and one for the leaf."""
    calls = _count_calls(monkeypatch, "premises_C")
    start = time.perf_counter()
    assert prove(_unprovable_family(12)) is None
    assert time.perf_counter() - start < 1.0
    assert len(calls) == 13


def test_refutation_family_checks_one_leaf(monkeypatch):
    """Closure is tried only where no pair remains, so the n = 4 search checks the
    stability of one node: the leaf of its first path. Its one other validity check is the
    name-level check at the root, which passes: (C^4) -> (C^5) is valid name by name."""
    stable = _count_calls(monkeypatch, "is_stable")
    names = _count_calls(monkeypatch, "names_valid")
    valid = _count_calls(monkeypatch, "is_valid")
    assert prove(_unprovable_family(4)) is None
    assert (len(stable), len(names), len(valid)) == (1, 1, 2)


def _wide_identity(n):
    conjunction = " /\\ ".join(f"p{i}" for i in range(n))
    return parse_formula(f"({conjunction}) -> ({conjunction})")


def test_wide_identity_is_valid():
    """24 atoms: a truth table would have 2^24 rows, truth-value analysis splits 24 times."""
    assert prover.is_valid(_wide_identity(24))


def test_wide_identity_closes_in_one_node():
    """The n = 18 identity is elementary, so rule A closes it at the root at once."""
    start = time.perf_counter()
    tree = prove(_wide_identity(18))
    assert time.perf_counter() - start < 1.0
    assert tree.node_count() == 1
    assert [type(r) for r in rules_preorder(tree)] == [RuleA]


def test_memo_key_ignores_pairing_order():
    """The same two pairings (1.1. with 2.1.1., 1.2. with 2.1.2.), made in either order,
    share a key. So does the crossed pairing (1.1. with 2.1.2., 1.2. with 2.1.1.), which is
    the same node up to the order of /\\ operands; all three have one verdict."""
    f = parse_formula("(C /\\ C) -> (C /\\ C /\\ C)")
    root = frozenset(elementary_names(f))
    first = premises_C(f, root)
    a = premises_C(first[0].formula, root)[0].formula
    b = premises_C(first[4].formula, root)[0].formula
    assert print_formula(a) == "(p /\\ q) -> (p /\\ q /\\ C)"
    assert print_formula(b) == "(q /\\ p) -> (q /\\ p /\\ C)"
    crossed = premises_C(first[1].formula, root)[0].formula
    assert print_formula(crossed) == "(p /\\ q) -> (q /\\ p /\\ C)"
    assert memo_key(a, root) == memo_key(b, root) == memo_key(crossed, root)
    assert {_reference_prove(g) is None for g in (a, b, crossed)} == {True}


def test_memo_key_keeps_root_atoms():
    """Root atoms keep their names and fresh atoms are never keyed like them. A node with no
    fresh atom gets the key of every regrouping and reordering of its /\\ and \\/ operands,
    and all of these have its verdict."""
    a = parse_formula("(p /\\ q) -> (p /\\ q /\\ C)")
    b = parse_formula("(q /\\ p) -> (q /\\ p /\\ C)")
    root = frozenset({"p", "q"})
    assert memo_key(a, root) == memo_key(b, root)
    assert memo_key(parse_formula("p -> p"), root) != memo_key(parse_formula("q -> q"), root)
    assert memo_key(parse_formula("(p /\\ q) -> p"), root) != memo_key(parse_formula("(p /\\ q) -> q"), root)
    # q is fresh under the root atom p, and must not be keyed like the root atom
    assert memo_key(parse_formula("(q /\\ p) -> q"), frozenset({"p"})) != memo_key(
        parse_formula("(p /\\ p) -> p"), frozenset({"p"})
    )
    rng = random.Random(59)
    for _ in range(300):
        f = random_ast(rng, depth=4)
        variant = _ac_variant(f, rng)
        root = frozenset(elementary_names(f))
        assert memo_key(variant, root) == memo_key(f, root), print_formula(f)
        assert (_reference_prove(variant) is None) == (_reference_prove(f) is None), print_formula(f)


def _ac_variant(f, rng):
    """``f`` with the operands of every chain of /\\ or of \\/ shuffled and regrouped at random."""
    kids = children(f)
    if not isinstance(f, (And, Or)):
        return rebuild(f, [_ac_variant(k, rng) for k in kids]) if kids else f
    operands, stack = [], [f]
    while stack:
        node = stack.pop()
        if type(node) is type(f):
            stack += [node.right, node.left]
        else:
            operands.append(_ac_variant(node, rng))
    rng.shuffle(operands)
    while len(operands) > 1:
        i = rng.randrange(len(operands) - 1)
        operands[i : i + 2] = [type(f)(operands[i], operands[i + 1])]
    return operands[0]


def _converse_variant(f, rng):
    """``f`` with the two sides of some of its implications swapped: a node the key must
    tell apart from ``f`` wherever the verdicts differ."""
    kids = [_converse_variant(k, rng) for k in children(f)]
    if isinstance(f, Implies) and rng.random() < 0.5:
        kids.reverse()
    return rebuild(f, kids) if kids else f


def _fresh_variant(f, root, rng):
    """``f`` with its atoms outside ``root`` renamed at random onto names outside ``root``,
    sometimes two onto one."""
    names = [n for n in "tuvwxyz" if n not in root]
    renaming = {n: rng.choice(names) for n in sorted(elementary_names(f) - root)}
    return transform(f, lambda n: Elementary(renaming[n.name]) if type(n) is Elementary and n.name in renaming else n)


def _pairing_body(rng, size):
    """A random /\\ and \\/ tree of ``size`` operands, most of them general atoms."""
    if size == 1:
        return rng.choice([General("C"), General("C"), General("D"), Not(General("C")), Elementary("p")])
    left = rng.randint(1, size - 1)
    return rng.choice([And, Or])(_pairing_body(rng, left), _pairing_body(rng, size - left))


def test_equal_memo_keys_have_equal_verdicts():
    """Soundness of the refutation memo: nodes with one key have one verdict. The nodes are
    random formulas and the search's descendants of each, found by random descents; each of
    these regrouped, reordered and with its fresh atoms renamed, sometimes two onto one; and
    each with the sides of some implications swapped. Their keys are taken under one root set."""
    rng = random.Random(71)
    root = frozenset({"p", "q", "r", "s"})
    roots = [Implies(_pairing_body(rng, rng.randint(1, 4)), _pairing_body(rng, rng.randint(1, 4))) for _ in range(100)]
    roots += [random_ast(rng, depth=3) for _ in range(100)]
    nodes = list(roots)
    for f in roots:
        for _ in range(3):
            g = f
            for _ in range(4):
                premises = [e.formula for e in premises_C(g, root) + premises_A(g) + premises_B(g)]
                if not premises:
                    break
                g = rng.choice(premises)
                nodes.append(g)
    originals = list(nodes)
    nodes += [_fresh_variant(_ac_variant(g, rng), root, rng) for g in originals]
    nodes += [_converse_variant(g, rng) for g in originals]
    groups = {}
    for g in nodes:
        groups.setdefault(memo_key(g, root), set()).add(skeleton(g))
    shared = 0
    for members in groups.values():
        verdicts = {_reference_prove(g) is None for g in members}
        assert len(verdicts) == 1, [print_formula(g) for g in members]
        shared += len(members) > 1
    assert shared >= 300, shared


def _agrees_with_reference(sources, winnable=frozenset()):
    verdicts = set()
    for src in sources:
        f = parse_formula(src)
        got = prove(f, winnable)
        assert _listings(got) == _listings(_reference_prove(f, winnable), _reference_hybridize), src
        verdicts.add(got is None)
    return verdicts


def test_backed_atom_falls_back_to_every_pairing_order():
    """A backed positive atom elementarizes to true, and pairing it can make a stable node
    unstable: these nodes are searched over every pairing and closed wherever stable."""
    sources = [
        "(D \\/ D) -> D{h=m}",
        "(q \\/ C{h=m}) -> C{h=m}",
        "(~D \\/ C) -> C{h=m}",
        "C -> (C{h=m} /\\ C)",
        "C -> (C{h=m} /\\ D)",
    ]
    assert _agrees_with_reference(sources) == {True, False}


def test_winnable_name_falls_back_to_every_pairing_order():
    sources = ["(C \\/ C) -> C", "(C \\/ C) -> (C /\\ C)", "(C \\/ ~C /\\ C) -> C", "(D /\\ q \\/ C) -> C"]
    sources.append("C -> (C /\\ D)")
    assert _agrees_with_reference(sources, frozenset({"C"})) == {True, False}


def test_surface_choice_falls_back_to_every_pairing_order():
    sources = [
        "(C | D) -> (~D /\\ (C & p) \\/ (C \\/ D))",
        "((C | D) /\\ (C \\/ ~D)) -> C",
        "((C | D) /\\ (p | C)) -> (((p | C) \\/ ~C) /\\ p \\/ C)",
        "(C /\\ D) -> ((C /\\ D) & C)",
        "(C /\\ D) -> ((C /\\ D /\\ C) & C)",
    ]
    assert _agrees_with_reference(sources) == {True, False}


def test_scarce_positive_side_falls_back_to_every_pairing():
    """With fewer positive than negative occurrences of the first pairable name, a maximal
    matching may leave its first negative occurrence unpaired, so every pair is a branch."""
    sources = [
        "((D \\/ C) /\\ C) -> C",
        "(C \\/ p) -> (~C \\/ C)",
        "((C \\/ C) /\\ ~C) -> (~C \\/ D)",
        "(C /\\ C /\\ C) -> (C /\\ C)",
        "(C /\\ C /\\ D) -> (C /\\ D /\\ D)",
    ]
    assert _agrees_with_reference(sources) == {True, False}


# Unprovable, and 713 expansions even with matchings searched once: the antecedent's
# disjuncts and the consequent's conjuncts pair up in many ways that differ beyond the
# order of operands. The name-level check cuts it to 19.
_HARD_REFUTATION = (
    "((C /\\ D) \\/ (C /\\ D) \\/ (D /\\ C) \\/ (C /\\ D))"
    " -> ((C \\/ D) /\\ (D \\/ C) /\\ (C \\/ D) /\\ (C \\/ D \\/ C))"
)

# Valid name by name at the root, so these still search: 361 and 572 expansions.
_CLAUSE_VARIANT_4 = (
    "((C \\/ D) /\\ (C \\/ D) /\\ (D \\/ C) /\\ (C \\/ D))"
    " -> ((C /\\ D) \\/ (D /\\ C) \\/ (C /\\ D) \\/ (D /\\ D) \\/ (C /\\ C))"
)
_CLAUSE_VARIANT_5 = (
    "((C \\/ D) /\\ (C \\/ D) /\\ (D \\/ C) /\\ (C \\/ D) /\\ (D \\/ C))"
    " -> ((C /\\ D) \\/ (D /\\ C) \\/ (C /\\ D) \\/ (D /\\ D) \\/ (C /\\ C))"
)

# Invalid name by name at the root: C true and D false (for the (C /\\ C) swap, the converse)
# make every antecedent clause true and every consequent conjunction false. Each is refuted
# in one node.
_CLAUSE_REFUTATION_5 = (
    "((C \\/ D) /\\ (C \\/ D) /\\ (D \\/ C) /\\ (C \\/ D) /\\ (D \\/ C))"
    " -> ((C /\\ D) \\/ (D /\\ C) \\/ (C /\\ D) \\/ (C /\\ D /\\ C) \\/ (D /\\ D))"
)
_CLAUSE_REFUTATION_5_CC = _CLAUSE_REFUTATION_5.replace("(D /\\ D))", "(C /\\ C))")


def test_prove_search_budget():
    f = parse_formula(_CLAUSE_VARIANT_5)
    assert prove(f, max_nodes=572) is None
    with pytest.raises(SearchBudgetExceeded):
        prove(f, max_nodes=571)
    g = parse_formula("(C /\\ C) -> (C \\/ C) @ w")
    assert format_proof(prove(g, max_nodes=3)) == format_proof(prove(g))


@pytest.mark.parametrize(
    "source, nodes",
    [
        (_CLAUSE_REFUTATION_5, 1),
        (_CLAUSE_REFUTATION_5_CC, 1),
        (_HARD_REFUTATION, 19),
        (_CLAUSE_VARIANT_4, 361),
        (_CLAUSE_VARIANT_5, 572),
    ],
)
def test_name_level_check_expansions_pinned(monkeypatch, source, nodes):
    """Refutations by the name-level check: one node where the root fails it, and searches
    cut short where only later nodes do (one premises_C call per expanded node)."""
    calls = _count_calls(monkeypatch, "premises_C")
    assert prove(parse_formula(source)) is None
    assert len(calls) == nodes


def test_pairing_premises_built_only_when_tried(monkeypatch):
    """A pairing premise is built when the search tries it. The (C^8) -> (C^8) search expands
    9 nodes and lists 8 + 7 + ... + 1 = 36 pairing premises, but tries only the first at each
    of 8 nodes, so it builds 8; ``hybridize`` builds one per pairing, 8 more, and
    ``verify_proof`` builds none, in either form. The 4-clause variant still expands 361
    nodes, and builds 466 of the premises it lists (all of them took 840 builds). Both paths
    of every pair here part at the root, so each build is one ``_paired`` call."""
    calls = _count_calls(monkeypatch, "premises_C")
    builds = _count_calls(monkeypatch, "_paired")
    c8 = " /\\ ".join(["C"] * 8)
    tree = prove(parse_formula(f"({c8}) -> ({c8})"))
    assert (len(calls), len(builds)) == (9, 8)
    hybrid = hybridize(tree)
    assert len(builds) == 16
    builds.clear()
    assert verify_proof(tree) and verify_proof(hybrid)
    assert not builds
    calls.clear()
    builds.clear()
    assert prove(parse_formula(_CLAUSE_VARIANT_4)) is None
    assert (len(calls), len(builds)) == (361, 466)


def _choice_count(f):
    """The number of choice operators in ``f``, under choices too."""
    return isinstance(f, (Chand, Chor)) + sum(map(_choice_count, children(f)))


def test_search_memoizes_proofs_by_formula_and_refutations_by_key_alone(monkeypatch):
    """Below the root, ``_Search.proofs`` holds exactly the proved nodes below a branch
    premise, each by its own conclusion: those with fewer choice operators than the root, since
    a pairing keeps the count and a branch premise lowers it. ``_Search.refuted`` holds the
    ``memo_key`` of each refuted node: no refuted node enters ``proofs``. The root is in
    neither. On the 4-clause variant, which is refuted, and on three proofs whose searches
    refute nodes on the way; the last pairs twice before it branches, and those two chain
    nodes are not kept."""
    searches, verdicts = [], []
    search, new_search = prover._search, prover._Search
    monkeypatch.setattr(prover, "_Search", lambda *args: searches.append(new_search(*args)) or searches[-1])
    monkeypatch.setattr(prover, "_search", lambda g, *rest: verdicts.append((g, search(g, *rest))) or verdicts[-1][1])
    chain = "((C /\\ D /\\ (p & q)) -> (C /\\ D /\\ (p & q))) @ w"
    cases = [(_CLAUSE_VARIANT_4, False), (_BRANCHING_PAIRINGS[0], True), (_BRANCHING_PAIRINGS[2], True), (chain, True)]
    for source, provable in cases:
        searches.clear()
        verdicts.clear()
        root = parse_formula(source)
        assert (prove(root) is not None) == provable
        (s,) = searches
        avoid = frozenset(elementary_names(root))
        below = [(g, tree) for g, tree in verdicts if g is not root]
        refuted = [g for g, tree in below if tree is None]
        assert refuted and all(g not in s.proofs for g in refuted)
        assert s.refuted == {memo_key(g, avoid) for g in refuted}
        branched = {g: tree for g, tree in below if tree is not None and _choice_count(g) < _choice_count(root)}
        assert s.proofs == branched
        assert all(g is tree.conclusion for g, tree in s.proofs.items())
        assert root not in s.proofs and memo_key(root, avoid) not in s.refuted
    # the chain case: its root and two chain nodes, the last three proved, keep the root's two choices
    proved = [g for g, tree in verdicts if tree is not None]
    assert (s.expanded, len(proved), len(s.proofs)) == (8, 7, 4)
    assert [_choice_count(g) for g in proved[-3:]] == [2, 2, 2]


def test_pairing_sequences_from_the_root_give_unequal_formulas():
    """Why the proof memo is used only below a branch premise (see ``prove``): from random
    formulas and random identities, distinct sequences of up to three pairings, each taken
    from all of ``premises_C`` rather than the canonical ones, give pairwise unequal formulas,
    each with the root's count of choice operators."""
    rng = random.Random(83)
    sequences = 0
    for i in range(2000):
        root = random_ast(rng, depth=rng.randint(3, 6)) if i % 2 else Implies(body := random_body(rng), body)
        avoid, count = frozenset(elementary_names(root)), _choice_count(root)
        seen, level = {root: ()}, [((), root)]
        for _ in range(3):
            level = [(seq + (k,), pair.formula) for seq, f in level for k, pair in enumerate(premises_C(f, avoid))]
            for seq, f in level:
                assert seen.setdefault(f, seq) == seq and _choice_count(f) == count, (print_formula(root), seq)
            sequences += len(level)
    assert sequences >= 5000, sequences


def test_proving_the_11_chain_hashes_no_formula(monkeypatch):
    """The 11-chain's proof is a pure pairing chain closed by rule A, so its search looks up
    and keeps no proof, and hashes no record."""
    c11 = " /\\ ".join(["C"] * 11)
    root = parse_formula(f"({c11}) -> ({c11})")
    hashes = []
    original = Frozen.__hash__
    monkeypatch.setattr(Frozen, "__hash__", lambda record: hashes.append(1) or original(record))
    assert prove(root).node_count() == 12
    assert hashes == []


class _CountingProofs(dict):
    """A proof memo that counts the lookups that find a proof."""

    hits = 0

    def get(self, key, default=None):
        found = super().get(key, default)
        self.hits += found is not None
        return found


_GOLDEN = Path(__file__).parent / "golden" / "prover"


def test_choices_golden_search_hits_its_proof_memo_four_times(monkeypatch):
    """Every node of the choices golden's search but the root lies below a branch premise,
    so it still meets four proved nodes again."""
    searches = []
    new_search = prover._Search

    def counted(*args):
        searches.append(new_search(*args))
        searches[-1].proofs = _CountingProofs()
        return searches[-1]

    monkeypatch.setattr(prover, "_Search", counted)
    tree = prove(parse_formula(_BRANCHING_PAIRINGS[0]))
    assert format_proof(tree) + "\n" == (_GOLDEN / "choices.txt").read_text(encoding="utf-8")
    (s,) = searches
    assert (s.proofs.hits, s.expanded) == (4, 37)


def test_a_320_pairing_chain_is_converted_checked_and_listed_at_the_default_recursion_limit():
    """``hybridize``, ``verify_proof`` and ``format_proof`` walk a proof in loops, not one or
    two frames per level, so they take every proof ``prove`` returns at the default recursion
    limit: here the (C^320) -> (C^320) chain, 321 nodes deep, in both forms."""
    c = " /\\ ".join(["C"] * 320)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        tree = prove(parse_formula(f"({c}) -> ({c})"))
        for form in (tree, hybridize(tree)):
            assert verify_proof(form)
            lines = format_proof(form).splitlines()
            assert len(lines) == 321 and lines[-1].endswith(", rule C, 320")
    finally:
        sys.setrecursionlimit(limit)


def _keeps_a_walk(f):
    """Whether ``f`` or a node under it holds a walk in its slot ``_surface``, the one place
    besides its fields that a formula has."""
    return f._surface is not None or any(map(_keeps_a_walk, children(f)))


def _fields(leaves):
    return [tuple(o) for o in leaves]


def test_search_keeps_no_walk_on_its_nodes(monkeypatch):
    """The search walks each node it expands once, and its memo holds a proved node until
    ``prove`` returns, so a walk kept on the node would only cost memory. A pairing premise's walk is
    derived from its conclusion's (``PairPremise.leaves``), and equals the premise's own
    ``surface_leaves`` field by field and in order: on the 4-clause variant and on random
    provable formulas."""
    nodes, derived = [], []
    original = prover.premises_C
    monkeypatch.setattr(prover, "premises_C", lambda g, *rest: nodes.append(g) or original(g, *rest))
    leaves = prover.PairPremise.leaves
    record = lambda pair: derived.append((pair, leaves(pair))) or derived[-1][1]
    monkeypatch.setattr(prover.PairPremise, "leaves", record)
    assert prove(parse_formula(_CLAUSE_VARIANT_4)) is None
    assert len(nodes) == 361
    assert len(derived) == 360
    for f, _ in random_provable(random.Random(31), 40, need_pairing=True):
        assert prove(f) is not None
    assert len(derived) > 400
    for pair, walk in derived:
        assert _fields(walk) == _fields(surface_leaves(pair.formula)), print_formula(pair.formula)
    assert not any(map(_keeps_a_walk, nodes))


def test_a_pairing_premise_is_built_once(monkeypatch):
    """``PairPremise.formula`` is built on its first read, by one ``_paired`` call, and every
    later read returns the same object."""
    builds = _count_calls(monkeypatch, "_paired")
    pair = premises_C(parse_formula("(C /\\ p) -> (q \\/ C)"))[0]
    assert builds == []
    first = pair.formula
    assert first == parse_formula("(r /\\ p) -> (q \\/ r)")
    assert all(pair.formula is first for _ in range(3))
    assert len(builds) == 1


@pytest.mark.parametrize(
    "spec",
    ["", "1", "1..", "3.", "0.", "1.1.1.", "1.1.1.1.", "2.1.", "2.2.", "12.", "1.2"],
    ids=lambda spec: repr(spec),
)
def test_leaf_at_refuses_a_spec_that_addresses_no_leaf(spec):
    """Rules B and C read a spec by ``occurrence_at``, and it addresses no leaf with the empty
    spec of a binary root, an undotted or doubled dot, a step other than 1 or 2, a step past
    a leaf, or a step into a choice (the consequent ``C | D``): the read stops short of the
    spec or lands on a connective."""
    f = parse_formula("~((C /\\ p) @ w) -> (C | D)")
    occ = occurrence_at(f, spec)
    assert occ.spec != spec or type(occ.node) in BINARY_KINDS


def test_verify_proof_reads_a_rule_spec_as_the_reference_does():
    """A rule-B or rule-C node whose spec (the positive one for rule C) is replaced by any
    of ``spec_strings`` of its conclusion verifies exactly when that string is the
    ``specification`` of the path of the occurrence the rule named (``path_to``):
    ``verify_proof`` reads the spec grammar the path reference writes."""
    rng = random.Random(73)
    checked = Counter()
    for _, tree in random_provable(rng, 30) + random_provable(rng, 20, need_pairing=True):
        for _, node in _tree_nodes(tree):
            rule, g = node.rule, node.conclusion
            if isinstance(rule, RuleB):
                named, respec = rule.spec, lambda s: RuleB(s, rule.branch, rule.env)
            elif isinstance(rule, RuleC):
                named, respec = rule.pos_spec, lambda s: RuleC(s, rule.neg_spec, rule.name)
            else:
                continue
            target = path_to(g, named)
            for spec in spec_strings(g):
                same = path_to(g, spec) == target
                assert verify_proof(ProofTree(g, respec(spec), node.premises)) == same, (format_proof(tree), spec)
                checked[type(rule), same] += 1
    assert len(checked) == 4 and min(checked.values()) >= 20, checked


def test_names_valid_examples():
    assert names_valid(parse_formula("(C /\\ D) -> (D /\\ C)"))
    assert names_valid(parse_formula("(C /\\ C) -> (C /\\ C /\\ C)"))
    assert not names_valid(parse_formula(_CLAUSE_REFUTATION_5))
    assert not names_valid(parse_formula("D -> C"))
    # a backed positive atom is won outright, a negative one is its name at any rate
    assert names_valid(parse_formula("D -> C"), frozenset({"C"}))
    assert names_valid(parse_formula("D -> C{h=mk}"))
    assert not names_valid(parse_formula("C -> D"), frozenset({"C"}))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**63))
def test_invalid_name_level_form_refutes_monotone_node(seed):
    """Whenever a monotone node with pairs has an invalid name-level elementarization, the
    reference search, which tries every pairing, refutes it."""
    rng = random.Random(seed)
    winnable = frozenset(name for name in "CD" if rng.random() < 0.2)
    for _ in range(40):
        g = Implies(random_body(rng), random_body(rng)) if rng.random() < 0.7 else random_ast(rng, depth=4)
        walk = prover._Walk(surface_leaves(g))
        if walk.monotone(winnable) and walk.pairs() and not names_valid(g, winnable):
            assert _reference_prove(g, winnable) is None, print_formula(g)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**63))
def test_folded_elementarization_agrees_with_the_built_one(seed):
    """``is_stable``, ``names_valid`` and ``is_valid`` with a general-atom fold read the
    elementarization straight from the formula; each agrees with the same check of the copy
    ``elementarize`` builds, on arbitrary formulas (choices, hybrids, notes and annotations
    included). On the formula with a valuation's constants put for its elementary atoms, the
    fold's value is the built copy's value under that valuation."""
    rng = random.Random(seed)
    winnable = frozenset(name for name in "PQCD" if rng.random() < 0.3)
    backed = lambda g: prover._backed(g, winnable)
    for _ in range(20):
        f = random_ast(rng, depth=rng.randint(0, 5))
        assert is_stable(f, winnable) == is_valid(elementarize(f, backed)), print_formula(f)
        assert names_valid(f, winnable) == is_valid(elementarize(f, backed, names=True)), print_formula(f)
        valuation = defaultdict(bool, {name: rng.random() < 0.5 for name in "pqrs"})
        closed = transform(f, lambda n: _constant(n, valuation))
        default = is_valid(closed, lambda g, sign: sign == NEGATIVE)
        assert default == evaluate(elementarize(f), valuation), print_formula(f)


def _constant(node, valuation):
    """``node`` as a truth constant under ``valuation`` if it is an elementary atom or a hybrid
    one (by its elementary component), else ``node`` itself."""
    if isinstance(node, Elementary):
        return Truth(valuation[node.name])
    if isinstance(node, Hybrid):
        return Truth(valuation[node.elementary])
    return node


def test_the_root_is_never_keyed(monkeypatch):
    """``measure`` falls along every rule, so no node below the root meets it in a memo. A root
    that the name-level check refutes, or that is unstable with no pair, computes no
    ``memo_key`` at all; a search that refutes deeper keys every node it stores but the root."""
    keyed = []
    original = prover.memo_key
    monkeypatch.setattr(prover, "memo_key", lambda g, *rest: keyed.append(g) or original(g, *rest))
    for source in ("(C /\\ C) -> (C /\\ D)", _CLAUSE_REFUTATION_5, "D -> C"):
        assert prove(parse_formula(source)) is None
        assert keyed == [], source
    root = parse_formula("(C /\\ C) -> (C /\\ C /\\ C)")
    assert prove(root) is None
    assert keyed and root not in keyed


def test_verify_proof_lists_the_names_of_one_conclusion_per_pairing_chain(monkeypatch):
    """A checked pairing's premise holds the conclusion's names and the fresh one, so checking
    the n = 12 identity, a chain of 12 pairings above one closure, lists the elementary names
    of its root alone, in either form."""
    c12 = " /\\ ".join(["C"] * 12)
    tree = prove(parse_formula(f"({c12}) -> ({c12})"))
    hybrid = hybridize(tree)
    calls = _count_calls(monkeypatch, "elementary_names")
    assert verify_proof(tree)
    assert len(calls) == 1
    assert verify_proof(hybrid)
    assert len(calls) == 2

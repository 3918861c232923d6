import random
from collections import Counter

import pytest

from clbk import prover
from clbk.formula import (
    NEGATIVE,
    POSITIVE,
    Elementary,
    Hybrid,
    elementary_names,
    env_chooses,
    parse_formula,
    print_formula,
    skeleton,
    substitute_at,
    surface_occurrences,
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
    measure,
    memo_key,
    premises_A,
    premises_B,
    premises_C,
    prove,
    verify_proof,
)
from genlib import random_ast, random_provable
from test_acceptance import _mutations


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
    assert [type(r) for r in t.rules_preorder()] == [RuleC, RuleC, RuleA]


def test_prove_unprovable_verdicts():
    assert prove(parse_formula("P -> (P /\\ P)")) is None
    assert prove(parse_formula("C \\/ C")) is None
    assert prove(parse_formula("p | ~p")) is None


def test_prove_choice_tree_shape():
    t = prove(parse_formula("((p & q) -> (p & q)) @ w"))
    assert t is not None
    rules = t.rules_preorder()
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
            result = ProofTree(g, RuleC(pair.pos_spec, pair.neg_spec, pair.name), (sub,))
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


def _listings(tree):
    return None if tree is None else (format_proof(tree), format_proof(hybridize(tree)))


def test_prove_agrees_with_reference_search():
    rng = random.Random(53)
    formulas = [random_ast(rng, depth=4) for _ in range(1000)]
    formulas += [f for f, _ in random_provable(rng, 60) + random_provable(rng, 40, need_pairing=True)]
    verdicts = set()
    for f in formulas:
        got, expected = prove(f), _reference_prove(f)
        assert _listings(got) == _listings(expected), print_formula(f)
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
    return all(_reference_verify(p, winnable) for p in t.premises)


def test_verify_agrees_with_reference_checker():
    """Every proof, its hybrid form and five mutants of each get the same verdict from
    ``verify_proof`` and from the oracle."""
    rng = random.Random(67)
    trees = [prove(random_ast(rng, depth=4)) for _ in range(1000)]
    trees += [t for _, t in random_provable(rng, 60) + random_provable(rng, 40, need_pairing=True)]
    verdicts = Counter()
    for tree in filter(None, trees):
        for form in (tree, hybridize(tree)):
            for candidate in (form, *_mutations(form, rng, 5)):
                verdict = verify_proof(candidate)
                assert verdict == _reference_verify(candidate), format_proof(candidate)
                verdicts[verdict] += 1
    assert verdicts[True] >= 200 and verdicts[False] >= 1000, verdicts


def _unprovable_family(n):
    return parse_formula(" /\\ ".join(["C"] * n) + " -> (" + " /\\ ".join(["C"] * (n + 1)) + ")")


def test_refutation_memo_expansions_pinned(monkeypatch):
    """The search expands each node with one premises_C call; the exact-formula memo
    expanded 4,581 nodes here."""
    calls = []
    original = prover.premises_C
    monkeypatch.setattr(prover, "premises_C", lambda *args: calls.append(1) or original(*args))
    assert prove(_unprovable_family(4)) is None
    assert len(calls) == 501


def test_memo_key_ignores_pairing_order():
    """The same two pairings (1.1. with 2.1.1., 1.2. with 2.1.2.), made in either order,
    share a key; the crossed pairings (1.1. with 2.1.2., 1.2. with 2.1.1.) do not."""
    f = parse_formula("(C /\\ C) -> (C /\\ C /\\ C)")
    root = frozenset(elementary_names(f))
    first = premises_C(f, root)
    a = premises_C(first[0].formula, root)[0].formula
    b = premises_C(first[4].formula, root)[0].formula
    assert print_formula(a) == "(p /\\ q) -> (p /\\ q /\\ C)"
    assert print_formula(b) == "(q /\\ p) -> (q /\\ p /\\ C)"
    assert memo_key(a, root) == memo_key(b, root)
    crossed = premises_C(first[1].formula, root)[0].formula
    assert print_formula(crossed) == "(p /\\ q) -> (q /\\ p /\\ C)"
    assert memo_key(crossed, root) != memo_key(a, root)


def test_memo_key_keeps_root_atoms():
    a = parse_formula("(p /\\ q) -> (p /\\ q /\\ C)")
    b = parse_formula("(q /\\ p) -> (q /\\ p /\\ C)")
    root = frozenset({"p", "q"})
    assert memo_key(a, root) != memo_key(b, root)
    # q is fresh under the root atom p, and must not be keyed like the root atom
    assert memo_key(parse_formula("(q /\\ p) -> q"), frozenset({"p"})) != memo_key(
        parse_formula("(p /\\ p) -> p"), frozenset({"p"})
    )
    rng = random.Random(59)
    for _ in range(300):
        f = random_ast(rng, depth=5)
        assert memo_key(f, frozenset(elementary_names(f))) == skeleton(f)


def test_prove_search_budget():
    f = _unprovable_family(4)
    assert prove(f, max_nodes=501) is None
    with pytest.raises(SearchBudgetExceeded):
        prove(f, max_nodes=500)
    g = parse_formula("(C /\\ C) -> (C \\/ C) @ w")
    assert format_proof(prove(g, max_nodes=3)) == format_proof(prove(g))

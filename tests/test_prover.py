import random

from clbk.formula import parse_formula, print_formula
from clbk.prover import (
    ProofTree,
    RuleA,
    RuleB,
    RuleC,
    format_proof,
    hybridize,
    is_stable,
    measure,
    premises_A,
    premises_B,
    premises_C,
    prove,
    verify_proof,
)
from genlib import random_provable


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


def test_prove_records_choice_index():
    t = prove(parse_formula("((p & q) -> (p & q)) @ w"))
    assert t.premise_index == {("2.", 1): 0, ("2.", 2): 1}


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
    bogus = ProofTree(parse_formula("P -> P"), RuleA(), (), {})
    assert not verify_proof(bogus)


def test_verify_rejects_wrong_branch():
    t = prove(parse_formula("((p & q) -> p) @ w"))
    assert isinstance(t.rule, RuleB)
    wrong = ProofTree(t.conclusion, RuleB(t.rule.spec, 2, t.rule.env), t.premises, None)
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

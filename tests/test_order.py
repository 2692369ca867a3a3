from __future__ import annotations

import random
import time
from itertools import combinations

import pytest

from ttrees import (
    StructuralProblem,
    TTree,
    TreeOrdering,
    canonicalize,
    chain_problem,
    compare,
    enumerate_all,
    is_canonical,
    is_canonical_counted,
    isomorphic,
    parse_ttree,
    parse_ttrees,
    render_ttree,
)
from oracles import (
    all_conforming_trees,
    isomorphic_oracle,
    min_variant,
    order_key,
    partition_classes,
    random_tree,
    shuffled,
    sorted_by_key,
)

LESS, EQUAL, GREATER = TreeOrdering.LESS, TreeOrdering.EQUAL, TreeOrdering.GREATER


def test_equal_leaves(abcd):
    assert compare(parse_ttree("B", abcd), parse_ttree("B", abcd)) is EQUAL


def test_shorter_earlier_list_wins(abcd):
    # A(C) has an empty B-list, and B-lists compare before C-lists
    assert compare(parse_ttree("A(C)", abcd), parse_ttree("A(B)", abcd)) is LESS


def test_first_differing_member_decides(abcd):
    a = parse_ttree("A(B,B(D))", abcd)
    b = parse_ttree("A(B(D),B)", abcd)
    assert compare(a, b) is LESS
    assert compare(b, a) is GREATER


def test_leaf_is_minimal(abcd):
    leaf = parse_ttree("A", abcd)
    for expr in ["A", "A(B)", "A(B(D),B)", "A(C,C)"]:
        assert compare(leaf, parse_ttree(expr, abcd)) is not GREATER
    assert compare(parse_ttree("A(B)", abcd), leaf) is GREATER


def test_compare_requires_same_root(abcd):
    with pytest.raises(ValueError, match="distinct root types"):
        compare(parse_ttree("B", abcd), parse_ttree("C", abcd))
    with pytest.raises(ValueError, match="distinct root types"):
        compare(parse_ttree("B", abcd), parse_ttree("C", abcd)) is not GREATER


def test_compare_rejects_mixed_universes():
    a = parse_ttree("A(B)")        # universe {A, B}
    b = parse_ttree("A(C)")        # universe {A, C}: C also gets rank 1
    with pytest.raises(ValueError, match="universes"):
        compare(a, b)


def test_canonical_examples(abcd):
    assert is_canonical(parse_ttree("D", abcd))
    assert is_canonical(parse_ttree("A(B,B(D))", abcd))
    assert not is_canonical(parse_ttree("A(B(D),B)", abcd))


def test_canonical_count_in_chain22(chain22_corpus):
    assert len(chain22_corpus) == 13
    assert sum(is_canonical(t) for t in chain22_corpus) == 10


def test_canonicalize_examples(abcd):
    leaf = parse_ttree("D", abcd)
    assert canonicalize(leaf) == leaf
    assert canonicalize(parse_ttree("A(B(D),B)", abcd)) == parse_ttree("A(B,B(D))", abcd)


def test_canonicalize_idempotent_and_canonical(chain22_corpus):
    for tree in chain22_corpus:
        once = canonicalize(tree)
        assert is_canonical(once)
        assert canonicalize(once) == once


def test_canonicalize_matches_bruteforce_minimum(abcd):
    small = [t for t in all_conforming_trees(abcd) if t.node_count <= 7]
    assert len(small) > 20
    for tree in small:
        assert canonicalize(tree) == min_variant(tree, abcd)


def test_isomorphic_examples(abcd):
    a = parse_ttree("A(B(D),B)", abcd)
    b = parse_ttree("A(B,B(D))", abcd)
    assert isomorphic(a, a)
    assert isomorphic(a, b)
    assert not isomorphic(parse_ttree("A(B)", abcd), parse_ttree("A(C)", abcd))
    assert not isomorphic(parse_ttree("B", abcd), parse_ttree("C", abcd))


def test_isomorphism_invariant_canonical_form(chain22_corpus):
    for a in chain22_corpus:
        for b in chain22_corpus:
            if isomorphic(a, b):
                assert canonicalize(a) == canonicalize(b)


def test_oracle_agrees_on_corpus(chain22_corpus):
    for a in chain22_corpus:
        for b in chain22_corpus:
            assert isomorphic(a, b) == isomorphic_oracle(a, b)


def test_oracle_counts_ten_classes(chain22_corpus):
    classes = partition_classes(chain22_corpus, isomorphic_oracle)
    assert len(classes) == 10


def test_totality_on_chain22(chain22_corpus):
    for a in chain22_corpus:
        for b in chain22_corpus:
            assert compare(a, b) is not GREATER or compare(b, a) is not GREATER


def test_antisymmetry_on_chain22(chain22_corpus):
    for a in chain22_corpus:
        for b in chain22_corpus:
            assert (compare(a, b) is not GREATER and compare(b, a) is not GREATER) == (a == b)


def test_transitivity_on_chain22(chain22_corpus):
    corpus = chain22_corpus
    for a, b, c in combinations(corpus, 3):
        for x, y, z in [(a, b, c), (a, c, b), (b, a, c)]:
            if compare(x, y) is not GREATER and compare(y, z) is not GREATER:
                assert compare(x, z) is not GREATER


def test_compare_agrees_with_key_oracle(wide):
    rng = random.Random(11)
    trees = [random_tree(wide, rng.randrange(1, 14), rng) for _ in range(80)]
    for a in trees:
        for b in trees:
            if a.label != b.label:
                continue
            expected = (order_key(a, wide) > order_key(b, wide)) - (
                order_key(a, wide) < order_key(b, wide)
            )
            assert compare(a, b).value == expected


def test_counted_variant_matches(chain22_corpus):
    for tree in chain22_corpus:
        verdict, comparisons = is_canonical_counted(tree)
        assert verdict == is_canonical(tree)
        assert comparisons >= 0


def _abcd_with_two_d_leaves(abcd):
    a, b, d = map(abcd.type, "ABD")
    return TTree(a, [TTree(b, [TTree(d)]), TTree(b, [TTree(d)])])


def _self_nested(_):
    problem = StructuralProblem(
        "R", ["R", "A"], [("R", "A", 2), ("A", "A", 2)], allow_cyclic=True
    )
    return parse_ttree("R(A(A(A,A(A))),A(A,A(A)))", problem)


@pytest.mark.parametrize(
    "build, expected",
    [
        # Two B(D) objects: one step for the pair and one for their D leaves.
        (_abcd_with_two_d_leaves, (True, 2)),
        # Parsed, the two members are one object and are not compared.
        (lambda abcd: parse_ttree("A(B(D),B(D))", abcd), (True, 0)),
        # The parser makes `A(A,A(A))` one object at depths 1 and 2, and
        # its T-list is checked at each depth.
        (_self_nested, (True, 3)),
    ],
    ids=["distinct", "shared", "shared-across-depths"],
)
def test_counted_steps_are_exact(abcd, build, expected):
    assert is_canonical_counted(build(abcd)) == expected


def test_canonicity_of_sorted_enumeration():
    problem = chain_problem(2, 3)
    for tree in enumerate_all(problem):
        key_sorted = all(
            order_key(x, problem) <= order_key(y, problem)
            for _, members in tree.groups
            for x, y in zip(members, members[1:])
        )
        deep = all(
            is_canonical(member)
            for _, members in tree.groups
            for member in members
        )
        assert is_canonical(tree) == (key_sorted and deep)


@pytest.fixture
def code_corpora(wide, cyclic):
    """(problem, trees) pairs for cross-checking the class codes.  In the
    last problem, siblings can hold T-lists of different types."""
    forked = StructuralProblem("A", ["A", "B", "C", "D"], [("A", "B", 3), ("B", "C", 1), ("B", "D", 1)])
    return [
        (problem, list(enumerate_all(problem, max_height=height)))
        for problem, height in [(chain_problem(2, 3), None), (wide, 2), (cyclic, 3), (forked, None)]
    ]


def test_canonicalize_matches_oracles(code_corpora):
    for problem, trees in code_corpora:
        for tree in trees:
            if tree.node_count <= 7:
                expected = min_variant(tree, problem)
            else:
                expected = sorted_by_key(tree, problem)
            assert canonicalize(tree) == expected, tree


def test_isomorphic_matches_oracle_on_sampled_pairs(code_corpora):
    rng = random.Random(1974)
    for _, trees in code_corpora:
        pairs = [(rng.choice(trees), rng.choice(trees)) for _ in range(1500)]
        pairs += [(a, shuffled(a, rng)) for a in rng.sample(trees, min(300, len(trees)))]
        pairs += [(a, shuffled(b, rng)) for a, b in pairs[:300]]
        verdicts = [isomorphic(a, b) for a, b in pairs]
        assert verdicts == [isomorphic_oracle(a, b) for a, b in pairs]
        assert any(verdicts) and not all(verdicts)


def test_isomorphic_tells_apart_types_of_equal_rank():
    # Parsed separately, B and C both get rank 1 in their own universe.
    assert not isomorphic(parse_ttree("A(B)"), parse_ttree("A(C)"))
    assert not isomorphic(parse_ttree("A(B(D))"), parse_ttree("A(B(E))"))
    assert isomorphic(parse_ttree("A(B,B(C))"), parse_ttree("A(B(C),B)"))


def test_canonical_forms_of_deep_trees():
    # Caterpillars far deeper than the interpreter's recursion limit:
    # every inner B holds a leaf B and the next B, in either order.
    problem = StructuralProblem(
        "A", ["A", "B"], [("A", "B", 1), ("B", "B", 2)], allow_cyclic=True
    )
    depth = 5_000
    leaf_last = "A(" + "B(" * depth + "B" + ",B)" * depth + ")"
    leaf_first = "A(" + "B(B," * depth + "B" + ")" * depth + ")"
    longer = "A(" + "B(B," * depth + "B(B)" + ")" * depth + ")"
    a, b, c = parse_ttrees([leaf_last, leaf_first, longer], problem)
    assert not is_canonical(a) and is_canonical(b)
    assert render_ttree(canonicalize(a)) == leaf_first
    assert canonicalize(b) is b
    assert isomorphic(a, b)
    assert not isomorphic(a, c)
    # A path whose only T-list out of order is at the bottom: every node
    # above it is rebuilt, and deciding which ones to reuse must not walk
    # the subtrees again, level after level.
    bottom = "A(" + "B(" * depth + "B(B),B" + ")" * (depth + 1)
    tree = parse_ttree(bottom, problem)
    start = time.perf_counter()
    canonical = canonicalize(tree)
    elapsed = time.perf_counter() - start
    assert render_ttree(canonical) == "A(" + "B(" * depth + "B,B(B)" + ")" * (depth + 1)
    assert elapsed < 2, f"took {elapsed:.2f}s, budget 2s"

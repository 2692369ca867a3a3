"""Trees that share equal subtrees answer as trees that share nothing.

The parsers, `config_to_ttree` and `canonicalize` build one object per
distinct subtree, and the walkers visit each object once.  Here every
answer on a shared tree is checked against the same tree rebuilt by
`TTree(label, children)` with no sharing, and against the oracles.
"""

from __future__ import annotations

import random

import pytest

from ttrees import (
    StructuralProblem,
    TTree,
    TypeSymbol,
    canonicalize,
    chain_problem,
    config_to_ttree,
    is_canonical,
    isomorphic,
    make_config,
    parse_ttree,
    parse_ttrees,
    render_ttree,
    ttree_conforms,
    ttree_to_config,
)
from oracles import random_tree, shuffled, sorted_by_key, unshared


def _tight(problem: StructuralProblem) -> StructuralProblem:
    """The same types with every cap 1, so that some trees do not conform."""
    relations = [(above.name, below.name, 1) for above, below, _ in problem.relations]
    return StructuralProblem(
        problem.root_type.name, [t.name for t in problem.types], relations, allow_cyclic=True
    )


@pytest.fixture
def corpora(abcd, wide, cyclic):
    """(problem, unshared trees) on four problems; the cyclic one repeats
    a subtree at several depths."""
    rng = random.Random(2006)
    problems = [abcd, wide, chain_problem(2, 3), cyclic]
    return [(p, [random_tree(p, rng.randint(1, 40), rng) for _ in range(80)]) for p in problems]


def _shared_copies(tree, problem):
    return parse_ttree(render_ttree(tree), problem), config_to_ttree(ttree_to_config(tree))


def _inner_objects(tree) -> int:
    """The number of distinct inner node objects in `tree`."""
    stack, seen = [tree], set()
    while stack:
        node = stack.pop()
        if node.groups and id(node) not in seen:
            seen.add(id(node))
            stack.extend(m for _, members in node.groups for m in members)
    return len(seen)


def test_shared_and_unshared_trees_answer_alike(corpora):
    shared = 0
    for problem, trees in corpora:
        tight = _tight(problem)
        for tree in trees:
            plain = unshared(tree)
            expected = sorted_by_key(plain, problem)
            for copy in _shared_copies(tree, problem):
                assert copy.node_count == plain.node_count
                shared += _inner_objects(copy) < _inner_objects(plain)
                assert copy == plain and plain == copy
                assert render_ttree(copy) == render_ttree(plain)
                assert ttree_to_config(copy) == ttree_to_config(plain)
                assert canonicalize(copy) == canonicalize(plain) == expected
                assert render_ttree(canonicalize(copy)) == render_ttree(expected)
                assert is_canonical(copy) == is_canonical(plain) == (plain == expected)
                assert is_canonical(canonicalize(copy))
                assert ttree_conforms(copy, problem) and ttree_conforms(plain, problem)
                assert ttree_conforms(copy, tight) == ttree_conforms(plain, tight)
    assert shared > 400  # copies that hold an inner node in several places


def test_isomorphism_on_shared_pairs(corpora):
    rng = random.Random(1980)
    for problem, trees in corpora:
        pairs = [(rng.choice(trees), rng.choice(trees)) for _ in range(150)]
        pairs += [(a, shuffled(a, rng)) for a in trees]
        verdicts = []
        for a, b in pairs:
            expected = sorted_by_key(a, problem) == sorted_by_key(b, problem)
            left, right = parse_ttrees([render_ttree(a), render_ttree(b)], problem)
            assert isomorphic(left, right) == isomorphic(unshared(a), unshared(b)) == expected
            assert isomorphic(left, unshared(b)) == expected
            verdicts.append(expected)
        assert any(verdicts) and not all(verdicts)


def test_parsers_and_conversion_share_equal_subtrees(abcd):
    tree = parse_ttree("A(B(D),B(D))", abcd)
    first, second = tree.groups[0][1]
    assert first is second
    # One table serves all texts of a call.
    left, right = parse_ttrees(["A(B(D,D),C)", "A(B,B(D,D))"], abcd)
    assert left.groups[0][1][0] is right.groups[0][1][1]
    # A deeper repeat is shared too, not only its leaves.
    deep = parse_ttree("A(B(D),C,B(D))", abcd)
    assert deep.groups[0][1][0] is deep.groups[0][1][1]
    again = config_to_ttree(ttree_to_config(tree))
    assert again.groups[0][1][0] is again.groups[0][1][1]


def test_canonicalize_makes_one_object_per_class(abcd, cyclic):
    tree = canonicalize(unshared(parse_ttree("A(B(D,D),C,B(D,D),B)", abcd)))
    assert render_ttree(tree) == "A(B,B(D,D),B(D,D),C)"
    b, bdd, bdd_again = tree.groups[0][1]
    assert bdd is bdd_again and bdd.groups[0][1][0] is bdd.groups[0][1][1]
    # Equal codes at one depth but other labels: the label keeps them apart.
    assert render_ttree(canonicalize(parse_ttree("A(C,B)", abcd))) == "A(B,C)"
    # One object at several depths of a cyclic problem gets a code at each.
    tree = parse_ttree("A(B(B(B),B),B(B))", cyclic)  # B(B) at depths 1 and 2
    assert render_ttree(canonicalize(tree)) == "A(B(B),B(B,B(B)))"
    assert isomorphic(tree, parse_ttree("A(B(B),B(B,B(B)))", cyclic))
    assert not is_canonical(tree)


def test_canonicalize_shares_members_whose_labels_are_equal():
    # Two separate but equal B symbols label one type, so one class.
    a, b, again, c = TypeSymbol("A", 0), TypeSymbol("B", 1), TypeSymbol("B", 1), TypeSymbol("C", 2)
    tree = TTree(a, [TTree(b, [TTree(c)]), TTree(again, [TTree(c)])])
    first, second = canonicalize(tree).groups[0][1]
    assert first is second


def test_node_count_of_a_shared_parse_counts_every_occurrence():
    # 10 000 objects of a chain of seven types, six to eight children each,
    # parsed back from their T-tree: the parse holds 208 inner objects, and
    # the count over them is the configuration's.
    types = "ABCDEFG"
    problem = StructuralProblem("A", list(types), [(a, b, 8) for a, b in zip(types, types[1:])])
    rng = random.Random(2003)
    objects, links = [(0, "A")], []
    for parent, name in objects:  # breadth first; the list grows as it is read
        below = types[types.index(name) + 1 :][:1]
        for _ in range(rng.randint(6, 8) if below else 0):
            if len(objects) < 10_000:
                links.append((parent, len(objects)))
                objects.append((len(objects), below))
    config = make_config(objects, links, problem)
    tree = parse_ttree(render_ttree(config_to_ttree(config)), problem)
    assert _inner_objects(tree) < 1_000
    assert tree.node_count == len(config.ids) == 10_000

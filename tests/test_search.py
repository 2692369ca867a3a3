from __future__ import annotations

from itertools import islice

import pytest

from ttrees import (
    StructuralProblem,
    TreeOrdering,
    apply_extension,
    canonical_removal,
    canonical_unit_extensions,
    canonicalize,
    chain_problem,
    compare,
    count_all,
    count_canonical,
    enumerate_all,
    enumerate_canonical,
    extension_sites,
    is_canonical,
    is_canonical_incremental,
    parse_ttree,
    render_ttree,
    unit_extensions,
)
from ttrees import search
from ttrees.search import _children, _growth_table, _walk
from oracles import all_conforming_trees


def cyclic_problem() -> StructuralProblem:
    """A holds up to two B; B holds up to two B."""
    return StructuralProblem(
        "A", ["A", "B"], [("A", "B", 2), ("B", "B", 2)], allow_cyclic=True
    )


def renderings(trees):
    return sorted(render_ttree(t) for t in trees)


def test_extensions_of_root_leaf(abcd):
    assert renderings(unit_extensions(parse_ttree("A", abcd), abcd)) == ["A(B)", "A(C)"]


def test_extensions_respect_cardinalities(abcd):
    saturated = parse_ttree("A(B(D,D),B(D,D),C,C)", abcd)
    assert unit_extensions(saturated, abcd) == []


def test_extensions_of_relationless_problem():
    p = StructuralProblem("T", ["T"])
    assert unit_extensions(p.root_leaf(), p) == []


def test_extension_appends_at_list_end(abcd):
    tree = parse_ttree("A(B(D))", abcd)
    grown = renderings(unit_extensions(tree, abcd))
    # appending a B leaf lands after the existing member, never before
    assert "A(B(D),B)" in grown
    assert "A(B,B(D))" not in grown


def test_extension_sites_address_every_node(abcd):
    tree = parse_ttree("A(B,B(D))", abcd)
    sites = extension_sites(tree, abcd)
    grown = {render_ttree(apply_extension(tree, s)) for s in sites}
    assert grown == {
        "A(B,B(D),C)",       # C leaf under the root
        "A(B(D),B(D))",      # D under the first B
        "A(B,B(D,D))",       # D under the second B
    }


def test_apply_extension_rejects_bad_site(abcd):
    tree = parse_ttree("A(B)", abcd)
    sites = extension_sites(parse_ttree("A(B,B)", abcd), abcd)
    deep = [s for s in sites if s.path and s.path[0][1] == 1]
    with pytest.raises(ValueError, match="does not address"):
        apply_extension(tree, deep[0])


def test_canonical_extensions_filter(abcd):
    tree = parse_ttree("A(B,B)", abcd)
    kept = renderings(canonical_unit_extensions(tree, abcd))
    assert "A(B,B(D))" in kept
    assert "A(B(D),B)" not in kept


def test_canonical_extensions_of_leaf(abcd):
    kept = renderings(canonical_unit_extensions(parse_ttree("A", abcd), abcd))
    assert kept == ["A(B)", "A(C)"]


def test_canonical_extensions_require_canonical_input(abcd):
    with pytest.raises(ValueError, match="not canonical"):
        canonical_unit_extensions(parse_ttree("A(B(D),B)", abcd), abcd)


def test_removal_examples(abcd):
    assert render_ttree(canonical_removal(parse_ttree("A(B)", abcd))) == "A"
    assert render_ttree(canonical_removal(parse_ttree("A(B,B(D))", abcd))) == "A(B,B)"
    # first non-leaf member is recursed into, not the last leaf
    assert (
        render_ttree(canonical_removal(parse_ttree("A(B(D),B)", abcd))) == "A(B,B)"
    )


def test_growth_and_removal_of_deep_path_tree():
    # A 100 000-level path: far deeper than the interpreter's recursion
    # limit, and only its bottom node can grow.
    problem = StructuralProblem("A", ["A", "B"], [("A", "B", 1), ("B", "B", 1)], allow_cyclic=True)
    depth = 100_000
    tree = parse_ttree("A(" + "B(" * (depth - 1) + "B" + ")" * depth, problem)
    (site,) = extension_sites(tree, problem)
    assert len(site.path) == depth and site.leaf_type == problem.type("B")
    assert extension_sites(tree, problem, max_height=depth) == []
    grown = apply_extension(tree, site)
    assert grown.node_count == depth + 2 and grown.height == depth + 1
    assert canonical_removal(grown) == tree
    assert canonical_removal(tree).height == depth - 1


def test_removal_of_single_node_fails(abcd):
    with pytest.raises(ValueError, match="single-node"):
        canonical_removal(parse_ttree("A", abcd))


def test_removal_properties_on_corpus():
    problem = chain_problem(2, 3)
    for tree in enumerate_all(problem):
        if tree.is_leaf:
            continue
        shrunk = canonical_removal(tree)
        assert shrunk.node_count == tree.node_count - 1
        assert compare(shrunk, tree) is not TreeOrdering.GREATER
        if is_canonical(tree):
            assert is_canonical(shrunk)
            assert tree in unit_extensions(shrunk, problem)


def test_enumerate_all_counts():
    assert len(list(enumerate_all(chain_problem(1, 4)))) == 5
    assert len(list(enumerate_all(chain_problem(2, 2)))) == 13
    assert len(list(enumerate_all(chain_problem(2, 3)))) == 85


def test_enumerate_all_matches_product_oracle(abcd, wide):
    for problem in [abcd, chain_problem(2, 2), chain_problem(3, 2)]:
        assert set(enumerate_all(problem)) == set(all_conforming_trees(problem))
    bounded = set(enumerate_all(wide, max_height=2))
    assert bounded == set(all_conforming_trees(wide, max_height=2))


def test_enumerate_all_yields_each_once():
    trees = list(enumerate_all(chain_problem(2, 3)))
    assert len(trees) == len(set(trees))


def test_enumerate_all_of_cyclic_problem_matches_product_oracle():
    trees = list(enumerate_all(cyclic_problem(), max_height=3))
    assert len(trees) == len(set(trees))
    assert set(trees) == set(all_conforming_trees(cyclic_problem(), 3))


@pytest.fixture
def walk_corpora(abcd, wide):
    return [
        (chain_problem(2, 4), None),
        (chain_problem(3, 2), None),
        (abcd, None),
        (wide, 2),
        (cyclic_problem(), 3),
    ]


def test_parent_rule_matches_removal(walk_corpora):
    # All-trees mode: exactly the extensions whose removal leads back.  Canonical
    # mode (on canonical trees): exactly those that also pass the incremental check.
    for problem, max_height in walk_corpora:
        table = _growth_table(problem)
        for tree in all_conforming_trees(problem, max_height):
            line = render_ttree(tree)
            sites = extension_sites(tree, problem, max_height=max_height)
            grown = [(site, apply_extension(tree, site)) for site in sites]
            preimages = [(site, child) for site, child in grown if canonical_removal(child) == tree]
            children = [child for child, _ in _children(tree, line, table, max_height, False)]
            assert len(children) == len(set(children)) == len(preimages), line
            assert set(children) == {child for _, child in preimages}, line
            if is_canonical(tree):
                kept = {child for site, child in preimages if is_canonical_incremental(child, site)}
                children = [child for child, _ in _children(tree, line, table, max_height, True)]
                assert len(children) == len(kept) and set(children) == kept, line


def test_walk_carries_each_tree_line(walk_corpora):
    for problem, max_height in walk_corpora:
        for canonical in (False, True):
            for tree, line in _walk(problem, max_height, canonical):
                assert line == render_ttree(tree)


def test_canonical_enumeration_decides_before_building(monkeypatch):
    # A rejected child is dropped before its root is built, so every root
    # tree built is emitted; only the root leaf is not built by the walk.
    # Members equal to their right neighbour are never grown: growing them
    # too would build 30 095 trees here.
    problem = chain_problem(3, 3)
    roots = built = 0
    real = search._trusted_ttree

    def counted(label, groups=()):
        nonlocal roots, built
        roots += label == problem.root_type
        built += 1
        return real(label, groups)

    monkeypatch.setattr(search, "_trusted_ttree", counted)
    emitted = sum(1 for _ in enumerate_canonical(problem))
    assert emitted == 8436
    assert roots == 8435
    assert built <= 25_756


def test_enumerate_canonical_counts():
    assert len(list(enumerate_canonical(chain_problem(2, 2)))) == 10
    assert len(list(enumerate_canonical(chain_problem(2, 3)))) == 35


def test_enumerate_canonical_large_instance():
    assert sum(1 for _ in enumerate_canonical(chain_problem(3, 3))) == 8436


def test_enumerate_canonical_emits_canonical_trees_once():
    trees = list(enumerate_canonical(chain_problem(2, 3)))
    assert len(trees) == len(set(trees))
    assert all(is_canonical(t) for t in trees)


def test_canonical_enumeration_covers_all_classes(abcd):
    for problem in [abcd, chain_problem(2, 2), chain_problem(2, 3)]:
        classes = {canonicalize(t) for t in enumerate_all(problem)}
        generated = set(enumerate_canonical(problem))
        assert generated == classes


def test_reachability_by_repeated_canonical_extension(abcd):
    # closure of {leaf} under canonical extension = all canonical trees
    frontier = [abcd.root_leaf()]
    reached = {abcd.root_leaf()}
    while frontier:
        tree = frontier.pop()
        for grown in canonical_unit_extensions(tree, abcd):
            if grown not in reached:
                reached.add(grown)
                frontier.append(grown)
    expected = {t for t in enumerate_all(abcd) if is_canonical(t)}
    assert reached == expected


def test_enumerators_are_lazy():
    stream = enumerate_all(chain_problem(3, 3))
    first = list(islice(stream, 5))
    assert len(first) == 5
    stream = enumerate_canonical(chain_problem(3, 3))
    assert len(list(islice(stream, 50))) == 50


def test_cyclic_problem_requires_bound():
    p = StructuralProblem("X", ["X", "Y"], [("X", "Y", 1), ("Y", "Y", 1)], allow_cyclic=True)
    with pytest.raises(ValueError, match="max_height"):
        list(enumerate_all(p))
    with pytest.raises(ValueError, match="max_height"):
        list(enumerate_canonical(p))
    # path-shaped trees X, X(Y), X(Y(Y)), X(Y(Y(Y)))
    assert len(list(enumerate_all(p, max_height=3))) == 4
    assert len(list(enumerate_canonical(p, max_height=3))) == 4


def test_bounded_enumeration_of_branching_problem(wide):
    bounded = list(enumerate_all(wide, max_height=1))
    # root with any mix of up to three B's and two C's as leaves
    assert len(bounded) == 4 * 3
    canonical_bounded = list(enumerate_canonical(wide, max_height=1))
    assert len(canonical_bounded) == len(bounded)  # leaves only: no symmetry


def test_incremental_canonicity_examples(abcd):
    base = parse_ttree("A(B,B)", abcd)
    pairs = [
        (site, apply_extension(base, site))
        for site in extension_sites(base, abcd)
    ]
    by_render = {render_ttree(tree): (site, tree) for site, tree in pairs}
    site, tree = by_render["A(B,B(D))"]
    assert is_canonical_incremental(tree, site)
    site, tree = by_render["A(B(D),B)"]
    assert not is_canonical_incremental(tree, site)
    leaf = parse_ttree("A", abcd)
    for site in extension_sites(leaf, abcd):
        assert is_canonical_incremental(apply_extension(leaf, site), site)


def test_incremental_agrees_with_full_check(abcd):
    for problem in [abcd, chain_problem(2, 3)]:
        for tree in enumerate_canonical(problem):
            for site in extension_sites(tree, problem):
                grown = apply_extension(tree, site)
                assert is_canonical_incremental(grown, site) == is_canonical(grown)


def test_counts_match_enumeration():
    for depth, branch in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2)]:
        problem = chain_problem(depth, branch)
        assert count_all(depth, branch) == len(list(enumerate_all(problem)))
        assert count_canonical(depth, branch) == len(list(enumerate_canonical(problem)))

from __future__ import annotations

from itertools import islice

import pytest

from ttrees import (
    StructuralProblem,
    apply_extension,
    canonical_removal,
    canonical_unit_extensions,
    canonicalize,
    chain_problem,
    count_all,
    count_canonical,
    enumerate_all,
    enumerate_canonical,
    extension_sites,
    is_canonical,
    is_canonical_incremental,
    less,
    parse_ttree,
    render_ttree,
    unit_extensions,
)
from ttrees import search
from ttrees.search import _child_sites
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
        assert less(shrunk, tree)
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


def test_parent_rule_matches_removal(abcd, wide):
    corpora = [
        (chain_problem(2, 4), None),
        (chain_problem(3, 2), None),
        (abcd, None),
        (wide, 2),
        (cyclic_problem(), 3),
    ]
    for problem, max_height in corpora:
        for tree in all_conforming_trees(problem, max_height):
            accepted = _child_sites(tree, problem, max_height)
            parent_sites = {
                site
                for site in extension_sites(tree, problem, max_height=max_height)
                if canonical_removal(apply_extension(tree, site)) == tree
            }
            assert len(accepted) == len(set(accepted))
            assert set(accepted) == parent_sites, render_ttree(tree)


def test_canonical_enumeration_decides_before_building(monkeypatch):
    # Children whose removal does not lead back are never built; only the
    # canonicity filter discards built trees.
    calls = 0
    real = search.apply_extension

    def counted(tree, site):
        nonlocal calls
        calls += 1
        return real(tree, site)

    monkeypatch.setattr(search, "apply_extension", counted)
    emitted = sum(1 for _ in enumerate_canonical(chain_problem(3, 3)))
    assert emitted == 8436
    assert calls <= 2 * emitted


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

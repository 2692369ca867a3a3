from __future__ import annotations

import hashlib
import random
from functools import cmp_to_key
from itertools import islice

import pytest

from ttrees import (
    StructuralProblem,
    TreeOrdering,
    apply_extension,
    canonical_removal,
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
from ttrees.search import _enumerate
from oracles import all_conforming_trees, random_problem


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


def test_removal_examples(abcd):
    assert render_ttree(canonical_removal(parse_ttree("A(B)", abcd))) == "A"
    assert render_ttree(canonical_removal(parse_ttree("A(B,B(D))", abcd))) == "A(B,B)"
    # first non-leaf member is recursed into, not the last leaf
    assert (
        render_ttree(canonical_removal(parse_ttree("A(B(D),B)", abcd))) == "A(B,B)"
    )


def test_extension_sites_refuses_a_bad_height_bound():
    # The enumerators' check: at 0.5 the leaf A would get a site for A(B), of height 1.
    problem = StructuralProblem("A", ["A", "B"], [("A", "B", 1)])
    tree = parse_ttree("A", problem)
    for bound, message in ((0.5, "an int"), (True, "an int"), (-1, ">= 0")):
        with pytest.raises(ValueError, match=f"height bound must be {message}"):
            extension_sites(tree, problem, max_height=bound)
    assert extension_sites(tree, problem, max_height=0) == []


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
    # 451 trees.  Distinct sites give distinct trees: a leaf is appended,
    # so old nodes keep their positions, and at the deeper of two grown
    # nodes only one of the two trees has grown.
    corpora = [(chain_problem(2, 3), None), (chain_problem(3, 2), None), (cyclic_problem(), 3)]
    for problem, max_height in corpora:
        for tree in enumerate_all(problem, max_height=max_height):
            grown = unit_extensions(tree, problem)
            assert len(set(grown)) == len(grown), render_ttree(tree)
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
def walk_corpora(abcd, pc, wide, cyclic):
    # In pc a leaf Mainboard grows two ways; the height bounds stop growth
    # on the path and on the leaves beside it.
    return [
        (chain_problem(2, 4), None),
        (chain_problem(3, 2), None),
        (abcd, None),
        (pc, None),
        (wide, 1),
        (wide, 2),
        (cyclic, 0),
        (cyclic, 1),
        (cyclic, 3),
    ]


def closure(problem, max_height, canonical):
    """The trees reached from the root leaf by unit extensions within the
    height bound, through canonical trees only with `canonical`, sorted
    by `compare`: reverse search's state space, read without its order."""
    root = problem.root_leaf()
    reached, frontier = {render_ttree(root): root}, [root]
    while frontier:
        tree = frontier.pop()
        for site in extension_sites(tree, problem, max_height=max_height):
            grown = apply_extension(tree, site)
            line = render_ttree(grown)
            if line not in reached and (not canonical or is_canonical(grown)):
                reached[line] = grown
                frontier.append(grown)
    return sorted(reached.values(), key=cmp_to_key(lambda a, b: compare(a, b).value))


@pytest.mark.parametrize("table_chars", [None, 0, 40])
def test_enumeration_streams_the_closure_in_tree_order(walk_corpora, monkeypatch, table_chars):
    # With no room for tables every level is stepped by descending into it;
    # with 40 characters the first tables stop growing in mid-level.
    if table_chars is not None:
        monkeypatch.setattr(search, "_TABLE_CHARS", table_chars)
    for problem, max_height in walk_corpora:
        for canonical in (False, True):
            expected = closure(problem, max_height, canonical)
            # One tree past the closure is enough to fail a stream that never ends.
            stream = _enumerate(problem, max_height, canonical)
            trees = [tree for tree, _ in islice(stream, len(expected) + 1)]
            for a, b in zip(trees, trees[1:]):
                assert compare(a, b) is TreeOrdering.LESS
            assert trees == expected


def _assert_lines_carried(walk_corpora):
    for problem, max_height in walk_corpora:
        for canonical in (False, True):
            for tree, line in _enumerate(problem, max_height, canonical):
                assert line == render_ttree(tree)


def test_walk_carries_each_tree_line(walk_corpora):
    # Lines are rewritten from the stepped position on, or taken from a table.
    _assert_lines_carried(walk_corpora)


def test_walk_carries_each_tree_line_without_tables(walk_corpora, monkeypatch):
    # With no room for tables every line is rewritten by descending.
    monkeypatch.setattr(search, "_TABLE_CHARS", 0)
    _assert_lines_carried(walk_corpora)


def test_walk_carries_each_tree_line_in_partly_filled_tables(walk_corpora, monkeypatch):
    # Members step by lookup up to where their table stopped, then descend.
    monkeypatch.setattr(search, "_TABLE_CHARS", 40)
    _assert_lines_carried(walk_corpora)


def long_chain():
    """1 000 types, one slot each: the trees are the paths from the root."""
    names = [f"T{i}" for i in range(1000)]
    return StructuralProblem("T0", names, [(a, b, 1) for a, b in zip(names, names[1:])])


def test_long_chain_enumerates_without_recursion():
    # The path to each stepped position is 1 000 levels long at most.
    heights = [tree.height for tree in enumerate_all(long_chain())]
    assert heights == list(range(1000))


@pytest.mark.parametrize("problem, max_height", [
    (long_chain(), 1000),
    (StructuralProblem("A", ["A", "B"], [("A", "B", 3), ("B", "B", 3)], allow_cyclic=True), 6),
], ids=["long-chain", "cyclic"])
def test_tables_hold_at_most_the_budget(problem, max_height):
    # The lines that the tables of one enumeration add past their leaves sum
    # to at most _TABLE_CHARS; both runs stop their tables at that bound.
    levels, root = search._Levels(problem, canonical=False), problem.root_leaf()
    trees = search._trees(levels, search._Level(root.label, max_height, root))
    assert sum(1 for _ in islice(trees, 200_000)) in (1000, 200_000)
    lines = sum(len(line) for level in levels.made.values() for _, line in level.table[1:])
    assert levels.budget == 0
    assert search._TABLE_CHARS * 0.9 < lines <= search._TABLE_CHARS


def test_an_unbounded_run_makes_one_level_per_type(monkeypatch):
    # B is reachable at depths 1 and 2; without a height bound it is one
    # level, with one table and one top.
    problem = StructuralProblem("R", ["R", "A", "B"], [("R", "A", 1), ("R", "B", 1), ("A", "B", 1)])
    made = []

    class Recorded(search._Levels):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(search, "_Levels", Recorded)
    for canonical in (False, True):
        lines = [line for _, line in _enumerate(problem, None, canonical)]
        assert lines == ["R", "R(B)", "R(A)", "R(A,B)", "R(A(B))", "R(A(B),B)"]
        assert sorted(made.pop().made) == [(0, None), (1, None), (2, None)]
        assert not made


def test_random_problem_streams_are_pinned():
    # The first 2 000 lines of each stream of 300 random problems, in both
    # modes: at one random bound, and unbounded when the problem is acyclic.
    rng, digest = random.Random(23), hashlib.sha256()
    for _ in range(300):
        problem = random_problem(rng)
        for bound in [rng.randint(0, 4)] + ([] if problem.is_cyclic else [None]):
            for canonical in (False, True):
                for _, line in islice(_enumerate(problem, bound, canonical), 2000):
                    digest.update(line.encode() + b"\n")
                digest.update(b"\n")
    assert digest.hexdigest() == "fd2ae9e789f52f88bc59d21c7b3807e1177a9b2fe4f39e1f2fafd6cda53264f7"


def test_canonical_enumeration_decides_before_building(monkeypatch):
    # Each emitted tree costs one root build, the root leaf included, which
    # its level makes: the members of chain(3, 3)'s root step through the
    # table of their level, filled as they first reach its trees, and no
    # level below is rebuilt.
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
    assert roots == 8436
    assert built <= 8_500


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
    # closure of {leaf} under canonical extension = all canonical trees; a
    # tree's canonical extensions are the grown trees that pass the
    # incremental check at their site
    frontier = [abcd.root_leaf()]
    reached = {abcd.root_leaf()}
    while frontier:
        tree = frontier.pop()
        for site in extension_sites(tree, abcd):
            grown = apply_extension(tree, site)
            if is_canonical_incremental(grown, site) and grown not in reached:
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
    # A bound must be an int, and a bool is none: at 0.5 or inf the walk would never end.
    for bound in (0.5, float("inf"), True, 2.0):
        for enumerate_trees in (enumerate_all, enumerate_canonical):
            with pytest.raises(ValueError, match="height bound must be an int"):
                enumerate_trees(p, max_height=bound)
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

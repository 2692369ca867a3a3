"""Growing, shrinking, and enumerating the T-trees of a problem.

The state space of a structural problem is the set of conforming T-trees
connected by *unit extensions*: adding one leaf at a legal site.
`canonical_removal` maps every tree but the root leaf to a smaller one, so
reading it backwards makes the conforming trees a tree of trees rooted at
the root leaf: reverse search (Avis & Fukuda, 1996).  Both enumerators are
one depth-first walk of that tree, which emits each tree exactly once and
keeps no visited set; its memory is the pending children along one
root-to-tree chain.

A child is never built to learn whether its removal leads back: the
parent test is decided on the parent, along the removal spine only
(`_child_sites`).  The removal keeps canonical trees canonical, so the
canonical trees are a subtree of the same walk; `enumerate_canonical`
prunes every child that fails the incremental canonicity check, which is
canonical augmentation in the sense of McKay (1998).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import StructuralProblem, TList, TTree, TypeSymbol, _trusted_ttree
from .order import _compare, TreeOrdering, is_canonical

_GREATER = TreeOrdering.GREATER


@dataclass(frozen=True)
class ExtensionSite:
    """Where a unit extension inserts its leaf.

    `path` walks from the root to the receiving node: each step names a
    component type and an index into that T-list.  `leaf_type` selects the
    T-list of the receiving node; the new leaf always lands at its end.
    """

    path: tuple[tuple[TypeSymbol, int], ...]
    leaf_type: TypeSymbol


def extension_sites(
    tree: TTree,
    problem: StructuralProblem,
    *,
    max_height: int | None = None,
) -> list[ExtensionSite]:
    """All sites where a leaf may be added without violating a cardinality
    bound (or the height bound, when given)."""
    sites: list[ExtensionSite] = []

    def walk(node: TTree, path: tuple[tuple[TypeSymbol, int], ...]) -> None:
        if max_height is None or len(path) < max_height:
            for symbol in problem.component_types(node.label):
                schema = problem.schema(node.label, symbol)
                assert schema is not None
                if len(node.tlist(symbol)) < schema.max_cardinality:
                    sites.append(ExtensionSite(path, symbol))
        for symbol, members in node.groups:
            for index, member in enumerate(members):
                walk(member, path + ((symbol, index),))

    walk(tree, ())
    return sites


def _replace_tlist(node: TTree, symbol: TypeSymbol, members: TList) -> TTree:
    """Copy of `node` with the `symbol` T-list replaced (dropped if empty)."""
    groups = [(t, m) for t, m in node.groups if t != symbol]
    if members:
        groups.append((symbol, members))
        groups.sort(key=lambda pair: pair[0].rank)
    return _trusted_ttree(node.label, tuple(groups))


def apply_extension(tree: TTree, site: ExtensionSite) -> TTree:
    """The unit extension of `tree` at `site`."""

    def rebuild(node: TTree, depth: int) -> TTree:
        if depth == len(site.path):
            members = node.tlist(site.leaf_type) + (_trusted_ttree(site.leaf_type),)
            return _replace_tlist(node, site.leaf_type, members)
        symbol, index = site.path[depth]
        members = node.tlist(symbol)
        if index >= len(members):
            raise ValueError(f"site {site} does not address a node of this tree")
        grown = rebuild(members[index], depth + 1)
        return _replace_tlist(
            node, symbol, members[:index] + (grown,) + members[index + 1 :]
        )

    return rebuild(tree, 0)


def _extension_pairs(
    tree: TTree, problem: StructuralProblem
) -> list[tuple[ExtensionSite, TTree]]:
    return [(site, apply_extension(tree, site)) for site in extension_sites(tree, problem)]


def unit_extensions(tree: TTree, problem: StructuralProblem) -> list[TTree]:
    """All distinct T-trees obtained by adding one leaf to `tree`."""
    grown = (extended for _, extended in _extension_pairs(tree, problem))
    return list(dict.fromkeys(grown))


def is_canonical_incremental(tree: TTree, site: ExtensionSite) -> bool:
    """Canonicity of a tree that grew by one leaf at `site`.

    Contract: the tree without that leaf was canonical.  Only the T-lists
    along the insertion path can then be out of order, and within each
    only at one boundary, so the check runs in path length times
    comparison cost instead of touching every node.  Equals
    `is_canonical(tree)` whenever the contract holds (violations are not
    detected).
    """
    node = tree
    for symbol, index in site.path:
        members = node.tlist(symbol)
        # The grown subtree moved up in the order, so only its right
        # neighbour can now be out of place.
        if index + 1 < len(members):
            if _compare(members[index], members[index + 1], None) is _GREATER:
                return False
        node = members[index]
    members = node.tlist(site.leaf_type)
    if len(members) >= 2:
        # The new leaf sits at the end and is minimal for its type, so the
        # list stays sorted only if its predecessor is also a leaf.
        if _compare(members[-2], members[-1], None) is _GREATER:
            return False
    return True


def canonical_unit_extensions(tree: TTree, problem: StructuralProblem) -> list[TTree]:
    """The canonical members of `unit_extensions(tree, problem)`.

    Requires `tree` itself to be canonical (ValueError otherwise); the
    per-extension test is then the incremental path check.  Whenever any
    canonical extension of a canonical tree exists, this returns it.
    """
    if not is_canonical(tree):
        raise ValueError("tree is not canonical")
    kept = (
        extended
        for site, extended in _extension_pairs(tree, problem)
        if is_canonical_incremental(extended, site)
    )
    return list(dict.fromkeys(kept))


def canonical_removal(tree: TTree) -> TTree:
    """Remove one leaf, deterministically, without leaving the canonical
    subspace.

    Descend into the first non-empty T-list; recurse into its first
    non-leaf member if one exists, otherwise drop the list's last leaf.
    The result always precedes the input in the tree order, and is
    canonical whenever the input is.
    """
    if tree.is_leaf:
        raise ValueError("cannot remove a node from a single-node tree")
    symbol, members = tree.groups[0]
    target = next((i for i, m in enumerate(members) if not m.is_leaf), None)
    if target is None:
        shrunk = members[:-1]
    else:
        shrunk = (
            members[:target]
            + (canonical_removal(members[target]),)
            + members[target + 1 :]
        )
    return _replace_tlist(tree, symbol, shrunk)


def _require_bounded(problem: StructuralProblem, max_height: int | None) -> None:
    if problem.is_cyclic and max_height is None:
        raise ValueError(
            "problem has a cyclic type graph; enumeration needs max_height"
        )


def _child_sites(
    tree: TTree,
    problem: StructuralProblem,
    max_height: int | None,
) -> list[ExtensionSite]:
    """The extension sites of `tree` whose grown tree `canonical_removal`
    maps back to `tree`, found without growing it.

    The removal of the grown tree must end at the new leaf.  So on the way
    down every step enters the node's first T-list with only leaves before
    it, and at the receiving node the new leaf's T-list is, or becomes, the
    first one and holds only leaves.  Only that spine is walked.
    """
    sites: list[ExtensionSite] = []
    frontier: list[tuple[TTree, tuple[tuple[TypeSymbol, int], ...]]] = [(tree, ())]
    while frontier:
        node, path = frontier.pop()
        first_type, first_members = node.groups[0] if node.groups else (None, ())
        if max_height is None or len(path) < max_height:
            for symbol in problem.component_types(node.label):
                if first_type is not None and symbol.rank > first_type.rank:
                    break
                members = first_members if symbol == first_type else ()
                schema = problem.schema(node.label, symbol)
                assert schema is not None
                if len(members) < schema.max_cardinality and all(m.is_leaf for m in members):
                    sites.append(ExtensionSite(path, symbol))
        for index, member in enumerate(first_members):
            frontier.append((member, path + ((first_type, index),)))
            if not member.is_leaf:
                break
    return sites


def _enumerate(
    problem: StructuralProblem, max_height: int | None, canonical: bool
) -> Iterator[TTree]:
    """Depth-first reverse search from the root leaf along `canonical_removal`;
    with `canonical`, children failing the incremental check are pruned."""
    _require_bounded(problem, max_height)
    stack = [problem.root_leaf()]
    while stack:
        tree = stack.pop()
        yield tree
        for site in _child_sites(tree, problem, max_height):
            child = apply_extension(tree, site)
            if not canonical or is_canonical_incremental(child, site):
                stack.append(child)


def enumerate_all(
    problem: StructuralProblem,
    *,
    max_height: int | None = None,
) -> Iterator[TTree]:
    """Every conforming T-tree exactly once, in depth-first order.

    One reverse-search walk: each tree is grown only at the sites whose
    `canonical_removal` leads straight back to it, so no visited set is
    kept.  The order is unspecified beyond being deterministic.
    `max_height` bounds tree height and is mandatory for cyclic type
    graphs.
    """
    return _enumerate(problem, max_height, canonical=False)


def enumerate_canonical(
    problem: StructuralProblem,
    *,
    max_height: int | None = None,
) -> Iterator[TTree]:
    """Every canonical conforming T-tree exactly once.

    Generates constructively: the same walk as `enumerate_all`, keeping
    only children that pass `is_canonical_incremental`.  The removal of a
    canonical tree is canonical, so every canonical tree is reached
    through canonical trees alone; nothing is emitted twice and nothing is
    missed.
    """
    return _enumerate(problem, max_height, canonical=True)

"""Growing, shrinking, and enumerating the T-trees of a problem.

The state space of a structural problem is the set of conforming T-trees
connected by *unit extensions*: adding one leaf at a legal site.
`canonical_removal` maps every tree but the root leaf to a smaller one, so
reading it backwards makes the conforming trees a tree of trees rooted at
the root leaf: reverse search (Avis & Fukuda, 1996).  Both enumerators are
one depth-first walk of that tree, which emits each tree exactly once and
keeps no visited set; its memory is the pending children along one
root-to-tree chain.

A tree's children are found on its removal spine alone (`_children`): the
path through the first non-leaf member of each first T-list, and the
leaves left of it.  Each is grown in place and only the path above it is
rebuilt, bottom up.  The removal keeps canonical trees canonical, so the
canonical trees are a subtree of the same walk; `enumerate_canonical`
drops a child as soon as a rebuilt member passes its right neighbour,
before the level above is built (canonical augmentation, McKay 1998).  So
every emitted child is built once and a rejected child is never finished.
Each tree's line is carried along: its parent's line plus one piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .core import StructuralProblem, TTree, TypeSymbol, _trusted_ttree
from .order import _compare, TreeOrdering

_EQUAL = TreeOrdering.EQUAL
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
    bound (or the height bound, when given), in depth-first pre-order."""
    sites: list[ExtensionSite] = []
    path: list[tuple[TypeSymbol, int]] = []  # the steps to the node visited
    stack: list[tuple] = [(tree, 0, None)]  # node, depth, last step
    while stack:
        node, depth, step = stack.pop()
        if depth:
            del path[depth - 1 :]
            path.append(step)
        if max_height is None or depth < max_height:
            for symbol in problem.component_types(node.label):
                if len(node.tlist(symbol)) < problem.schema(node.label, symbol).max_cardinality:
                    sites.append(ExtensionSite(tuple(path), symbol))
        for symbol, members in reversed(node.groups):
            for index in range(len(members) - 1, -1, -1):
                stack.append((members[index], depth + 1, (symbol, index)))
    return sites


def _rise(node: TTree, trail: tuple | None, canonical: bool = False) -> TTree | None:
    """The root of `trail` with `node` in place of the member it leads to.

    `trail` links `(ancestor, group position, member index, trail above)`
    from that member's parent to the root.  With `canonical`, None as soon
    as a rebuilt member is greater than its right neighbour.
    """
    while trail is not None:
        ancestor, g, i, trail = trail
        groups = ancestor.groups
        symbol, members = groups[g]
        if canonical and i + 1 < len(members) and _compare(node, members[i + 1], None) is _GREATER:
            return None
        group = ((symbol, members[:i] + (node,) + members[i + 1 :]),)
        node = _trusted_ttree(ancestor.label, groups[:g] + group + groups[g + 1 :])
    return node


def apply_extension(tree: TTree, site: ExtensionSite) -> TTree:
    """The unit extension of `tree` at `site`."""
    node, trail = tree, None
    for symbol, index in site.path:
        g = next((g for g, (t, _) in enumerate(node.groups) if t == symbol), None)
        if g is None or index >= len(node.groups[g][1]):
            raise ValueError(f"site {site} does not address a node of this tree")
        trail = (node, g, index, trail)
        node = node.groups[g][1][index]
    groups = [(t, m) for t, m in node.groups if t != site.leaf_type]
    groups.append((site.leaf_type, node.tlist(site.leaf_type) + (_trusted_ttree(site.leaf_type),)))
    groups.sort(key=lambda pair: pair[0].rank)
    return _rise(_trusted_ttree(node.label, tuple(groups)), trail)


def unit_extensions(tree: TTree, problem: StructuralProblem) -> list[TTree]:
    """Every T-tree obtained by adding one leaf to `tree`, one per site."""
    return [apply_extension(tree, s) for s in extension_sites(tree, problem)]


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


def canonical_removal(tree: TTree) -> TTree:
    """Remove one leaf, deterministically, without leaving the canonical
    subspace.

    Descend into the first non-empty T-list, and on into its first
    non-leaf member while one exists; there drop the list's last leaf.
    The result always precedes the input in the tree order, and is
    canonical whenever the input is.
    """
    if tree.is_leaf:
        raise ValueError("cannot remove a node from a single-node tree")
    node, trail = tree, None
    while True:
        symbol, members = node.groups[0]
        target = next((i for i, m in enumerate(members) if m.groups), None)
        if target is None:
            break
        trail = (node, 0, target, trail)
        node = members[target]
    rest = node.groups[1:]
    shrunk = ((symbol, members[:-1]),) + rest if len(members) > 1 else rest
    return _rise(_trusted_ttree(node.label, shrunk), trail)


def _growth_table(problem: StructuralProblem) -> list[tuple]:
    """Per type rank: (component, rank, max cardinality, leaf, name) rows."""
    leaves = {r.component: _trusted_ttree(r.component) for r in problem.relations}
    return [
        [(c, c.rank, problem.schema(t, c).max_cardinality, leaves[c], c.name)
         for c in problem.component_types(t)]
        for t in problem.types
    ]


def _children(
    tree: TTree, line: str, table: list[tuple], max_height: int | None, canonical: bool
) -> list[tuple[TTree, str]]:
    """The children of `tree`, whose line is `line`, each with its line;
    with `canonical`, the canonical children of a canonical `tree`.

    A child's removal must end at its new leaf, so only the removal spine
    grows: the path through the first non-leaf member `j` of each first
    T-list, and the leaves left of each `j`, all of one type, which places
    the new text.  A path node grows a T-list that is or becomes its first
    and holds only leaves.  The path grows top down, then its leaves bottom
    up, in descending index.  Canonically only the last leaf left of `j`
    grows, as the others equal their right neighbours, and the path stops
    at a member equal to its right neighbour, which would pass it when
    grown.
    """
    found = []
    levels = []  # path nodes whose leaves grow: node, leaf type, j, offset of "(", trail
    node, depth, at, trail = tree, 0, 0, None
    while True:
        label, groups = node.label, node.groups
        at += len(label.name)  # where "(" is or would go
        if groups:
            first_type, first = groups[0]
            rank, count = first_type.rank, len(first)
            j = 0
            while j < count and not first[j].groups:
                j += 1
        if max_height is None or depth < max_height:
            for symbol, symbol_rank, cap, leaf, name in table[label.rank]:
                if not groups:
                    grown, cut, piece = ((symbol, (leaf,)),), at, "(" + name + ")"
                elif symbol_rank < rank:
                    grown, cut, piece = ((symbol, (leaf,)),) + groups, at + 1, name + ","
                elif symbol_rank == rank and j == count < cap:
                    grown = ((symbol, first + (leaf,)),) + groups[1:]
                    cut, piece = at + count * (len(name) + 1), "," + name
                else:
                    break
                child = _rise(_trusted_ttree(label, grown), trail, canonical)
                if child is not None:
                    found.append((child, line[:cut] + piece + line[cut:]))
        if not groups:
            break
        if j and table[rank] and (max_height is None or depth + 1 < max_height):
            levels.append((node, first_type, j, at, trail))
        if j == count or (canonical and j + 1 < count
                          and _compare(first[j], first[j + 1], None) is _EQUAL):
            break
        trail = (node, 0, j, trail)
        node, depth, at = first[j], depth + 1, at + 1 + j * (len(first_type.name) + 1)
    for node, leaf_type, j, at, trail in reversed(levels):
        step = len(leaf_type.name) + 1
        grown = [(_trusted_ttree(leaf_type, ((symbol, (leaf,)),)), "(" + name + ")")
                 for symbol, _, _, leaf, name in table[leaf_type.rank]]
        for i in range(j - 1, j - 2 if canonical else -1, -1):
            cut = at + (i + 1) * step  # the end of leaf i's name
            for leaf, piece in grown:
                child = _rise(leaf, (node, 0, i, trail), canonical)
                if child is not None:
                    found.append((child, line[:cut] + piece + line[cut:]))
    return found


def _walk(
    problem: StructuralProblem, max_height: int | None, canonical: bool
) -> Iterator[tuple[TTree, str]]:
    """Depth-first reverse search from the root leaf: each tree (only the
    canonical ones with `canonical`) with its `render_ttree` line."""
    if problem.is_cyclic and max_height is None:
        raise ValueError(
            "problem has a cyclic type graph; enumeration needs a height bound "
            "(max_height or --max-depth)"
        )
    if max_height is not None and max_height < 0:
        raise ValueError(f"height bound must be >= 0, got {max_height}")
    table = _growth_table(problem)
    root = problem.root_leaf()
    stack = [(root, root.label.name)]
    while stack:
        tree, line = stack.pop()
        yield tree, line
        stack += _children(tree, line, table, max_height, canonical)


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
    return map(itemgetter(0), _walk(problem, max_height, canonical=False))


def enumerate_canonical(
    problem: StructuralProblem,
    *,
    max_height: int | None = None,
) -> Iterator[TTree]:
    """Every canonical conforming T-tree exactly once.

    Generates constructively: the same walk as `enumerate_all`, keeping
    only children whose grown members stay in order, which is what
    `is_canonical_incremental` checks.  The removal of a canonical tree is
    canonical, so every canonical tree is reached through canonical trees
    alone; nothing is emitted twice and nothing is missed.
    """
    return map(itemgetter(0), _walk(problem, max_height, canonical=True))

"""Growing, shrinking, and enumerating the T-trees of a problem.

Unit extensions add one leaf at a legal site; `canonical_removal` takes
one away and keeps canonical trees canonical.  With `extension_sites`,
`apply_extension` and `is_canonical_incremental` they are the growth API
a configurator builds on.

The enumerators stream trees in increasing tree order, lexicographic over
the T-lists in type order, each by length, then member by member.  So a
*level* (one type under one height budget) is the positions of an odometer,
its canonical trees those with sorted T-lists (Beyer & Hedetniemi, 1980;
Ruskey, *Combinatorial Generation*).  Small levels are drained into tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .core import StructuralProblem, TTree, TypeSymbol, _trusted_ttree, render_ttree
from .order import _compare, TreeOrdering

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


def _rise(node: TTree, trail: tuple | None) -> TTree:
    """The root of `trail` with `node` in place of the member it leads to.

    `trail` links `(ancestor, group position, member index, trail above)`
    from that member's parent to the root.
    """
    while trail is not None:
        ancestor, g, i, trail = trail
        groups = ancestor.groups
        symbol, members = groups[g]
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


_TABLE_CHARS = 1 << 16  # text in the level tables of one enumeration: count x top width


class _Level:
    """The trees of one type under one height budget.  `parts`: (component,
    cap, level below).  A member equal to `top`, the greatest tree, is that
    object, so "cannot grow" is an identity test; `width` is its line's
    length.  A small level has its trees and lines in `table`, `index`."""

    __slots__ = ("label", "height", "leaf", "parts", "top", "width", "table", "index")

    def __init__(self, label: TypeSymbol, height: int, leaf: TTree):
        self.label, self.height, self.leaf = label, height, leaf
        self.parts = self.top = self.width = self.table = self.index = None


class _Levels:
    """The levels one enumeration reaches, made when first reached.  One is
    tabled, after the levels below it, when its tree count times its top
    width fits in what is left of `_TABLE_CHARS`.  Both numbers saturate
    past the budget.  A level of height h has h + 1 trees or more, of width
    h + 1 or more, unless its type cannot reach that height: so whether it
    fits is the same at every height from sqrt(budget) + (number of types) on."""

    def __init__(self, problem: StructuralProblem, canonical: bool):
        self.problem, self.canonical, self.budget = problem, canonical, _TABLE_CHARS
        self.made: dict[tuple[int, int], _Level] = {}
        self.sizes: dict[tuple[int, int], tuple[int, int]] = {}  # count, top width
        self.clamp = math.isqrt(_TABLE_CHARS) + len(problem.types)
        self.components = [[(c, problem.schema(t, c).max_cardinality, c.rank)
                            for c in problem.component_types(t)] for t in problem.types]

    def open(self, level: _Level) -> list[tuple]:
        h, parts = level.height, self.components[level.label.rank]
        level.parts = [(c, cap, self.get((rank, h - 1))) for c, cap, rank in parts if h]
        return level.parts

    def cost(self, rank: int, height: int) -> int:
        """The level's tree count times its top width, both saturated."""
        bound, key, sizes = _TABLE_CHARS + 1, (rank, min(height, self.clamp)), self.sizes
        stack = [key]
        while stack:
            rank, h = stack[-1]
            parts = self.components[rank] if h else []
            missing = [(c, h - 1) for _, _, c in parts if (c, h - 1) not in sizes]
            if missing:
                stack += missing
                continue
            count, width = 1, len(self.problem.types[rank].name) + bool(parts)
            for _, cap, c in parts:
                trees, top = sizes[c, h - 1]
                lists = term = 1  # term: the T-lists of exactly i members
                for i in range(1, cap + 1):
                    term = term * (trees + i - 1) // i if self.canonical else term * trees
                    lists += term
                    if lists >= bound:
                        break
                count = min(count * lists, bound)
                width = min(width + cap * (top + 1), bound)
            sizes[stack.pop()] = count, width
        count, width = sizes[key]
        return count * width

    def get(self, key: tuple[int, int]) -> _Level:
        """The level, made after those below it that may be tabled.  A
        level of one tree is always tabled, so its top is its leaf."""
        todo, stack = {}, [key]
        while stack:
            rank, h = below = stack.pop()
            if below not in self.made and below not in todo:
                todo[below] = self.cost(rank, h)
                if h and todo[below] <= self.budget:
                    stack += [(c, h - 1) for _, _, c in self.components[rank]]
        for rank, h in sorted(todo, key=itemgetter(1)):
            label = self.problem.types[rank]
            level = self.made[rank, h] = _Level(label, h, _trusted_ttree(label))
            if todo[rank, h] <= self.budget or not (h and self.components[rank]):
                self.budget -= todo[rank, h]
                level.table = list(_trees(self, level))
                level.index = {id(tree): i for i, (tree, _) in enumerate(level.table)}
                level.top, level.width = level.table[-1][0], len(level.table[-1][1])
        return self.made[key]


def _trees(levels: _Levels, level: _Level) -> Iterator[tuple[TTree, str]]:
    """Each tree of `level` with its line, in increasing tree order.  A step
    descends to the least significant position that can grow, from the
    right: a member not its level's top, or a list not full.  A tabled
    member steps to the next tree of its table; a list grows by a member.
    Everything after drops to its minimum: later T-lists empty, later
    members leaves, or with `canonical` copies of the stepped member.  Only
    the path above is rebuilt, and the line from there on."""
    build, canonical = _trusted_ttree, levels.canonical
    tree, line = level.leaf, level.label.name
    while True:
        yield tree, line
        path, node, lv, at = [], tree, level, len(line)  # `at`: where the scanned text ends
        while True:
            groups = node.groups
            g = len(groups)
            if g:
                at -= 1  # the closing parenthesis
            for symbol, cap, sub in reversed(lv.parts or levels.open(lv)):
                members = ()
                if g and groups[g - 1][0] is symbol:
                    g -= 1
                    members = groups[g][1]
                k = len(members)
                while k and members[k - 1] is sub.top:
                    k -= 1
                    at -= sub.width + 1
                if k or len(members) < cap:
                    break
            else:
                return
            if not k:  # the list grows by one member, and all its members are leaves
                members = (sub.leaf,) * (len(members) + 1)
                pieces = ["," if g else "(", ",".join([sub.label.name] * len(members)), ")"]
                tree, text = build(node.label, groups[:g] + ((symbol, members),)), None
                break
            path.append((node, lv, g, members, k - 1))
            node, lv = members[k - 1], sub
            if sub.index is not None:  # the member steps to the next tree of its table
                i = sub.index[id(node)]
                at -= len(sub.table[i][1])
                tree, text = sub.table[i + 1]
                pieces = [text]
                break
        while path:  # rebuild the path; a rebuilt member equal to its level's top is that top
            parts, groups = lv.parts, tree.groups
            if (lv.table is None and len(groups) == len(parts)
                    and groups[-1][1][-1] is parts[-1][2].top and all(
                        len(ms) == cap and all(m is sub.top for m in ms)
                        for (_, ms), (_, cap, sub) in zip(groups, parts))):
                if lv.top is None:
                    lv.top = tree
                    lv.width = len(lv.label.name) + 1 + sum(c * (s.width + 1) for _, c, s in parts)
                tree = lv.top
            node, above, g, members, i = path.pop()
            rest = len(members) - i - 1
            copy = ((text or render_ttree(tree)) if canonical else lv.label.name) if rest else ""
            pieces.append(("," + copy) * rest + ")")
            members = members[:i] + (tree,) + (tree if canonical else lv.leaf,) * rest
            tree, text = build(node.label, node.groups[:g] + ((lv.label, members),)), None
            lv = above
        line = line[:at] + "".join(pieces)


def _enumerate(
    problem: StructuralProblem, max_height: int | None, canonical: bool
) -> Iterator[tuple[TTree, str]]:
    """Each tree, only the canonical ones with `canonical`, with its line."""
    if problem.is_cyclic and max_height is None:
        raise ValueError(
            "problem has a cyclic type graph; enumeration needs a height bound "
            "(max_height or --max-depth)"
        )
    if max_height is not None and max_height < 0:
        raise ValueError(f"height bound must be >= 0, got {max_height}")
    root = problem.root_leaf()
    height = len(problem.types) if max_height is None else max_height  # no taller tree conforms
    return _trees(_Levels(problem, canonical), _Level(root.label, height, root))


def enumerate_all(problem: StructuralProblem, *, max_height: int | None = None) -> Iterator[TTree]:
    """Every conforming T-tree exactly once, in increasing tree order.
    `max_height` bounds tree height; cyclic type graphs need it."""
    return map(itemgetter(0), _enumerate(problem, max_height, canonical=False))


def enumerate_canonical(
    problem: StructuralProblem, *, max_height: int | None = None
) -> Iterator[TTree]:
    """Every canonical conforming T-tree, one per isomorphism class, in
    increasing tree order: `enumerate_all` over sorted T-lists only."""
    return map(itemgetter(0), _enumerate(problem, max_height, canonical=True))

"""Growing, shrinking, and enumerating the T-trees of a problem.

Unit extensions add one leaf at a legal site; `canonical_removal` takes
one away and keeps canonical trees canonical.  With `extension_sites`,
`apply_extension` and `is_canonical_incremental` they are the growth API
a configurator builds on.

The enumerators stream trees in increasing tree order, lexicographic over
the T-lists in type order, each by length, then member by member.  So a
*level*, one type under a height at most its tallest tree's, is the
positions of an odometer, its canonical trees those with sorted T-lists
(Beyer & Hedetniemi, 1980; Ruskey, *Combinatorial Generation*).  An
unbounded run is the run at the root's tallest height.  A level tables
the trees a run reaches in it, with their lines, within a budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, islice, product, repeat, starmap
from math import comb
from operator import itemgetter
from typing import Iterable, Iterator

from .core import StructuralProblem, TTree, TypeSymbol, _group, _trusted_ttree, render_ttree
from .order import _compare, TreeOrdering

__all__ = [
    "ExtensionSite",
    "apply_extension",
    "canonical_removal",
    "enumerate_all",
    "enumerate_canonical",
    "extension_sites",
    "is_canonical_incremental",
    "unit_extensions",
]

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


def _check_height(max_height: int | None) -> None:
    """Refuse a height bound that is not an int >= 0."""
    if max_height is not None and type(max_height) is not int:  # a bool is no bound either
        raise ValueError(f"height bound must be an int, got {max_height!r}")
    if max_height is not None and max_height < 0:
        raise ValueError(f"height bound must be >= 0, got {max_height}")


def extension_sites(
    tree: TTree,
    problem: StructuralProblem,
    *,
    max_height: int | None = None,
) -> list[ExtensionSite]:
    """All sites where a leaf may be added without violating a cardinality
    bound (or the height bound, when given), in depth-first pre-order."""
    _check_height(max_height)
    sites: list[ExtensionSite] = []
    path: list[tuple[TypeSymbol, int]] = []  # the steps to the node visited
    stack: list[tuple] = [(tree, 0, None)]  # node, depth, last step
    while stack:
        node, depth, step = stack.pop()
        if depth:
            del path[depth - 1 :]
            path.append(step)
        if max_height is None or depth < max_height:
            for rank, cap in problem._caps[problem.symbol_of(node.label).rank].items():
                if len(node.tlist(problem.types[rank])) < cap:
                    sites.append(ExtensionSite(tuple(path), problem.types[rank]))
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


def _walk(tree: TTree, site: ExtensionSite) -> tuple[TTree, tuple | None]:
    """The node of `tree` that `site.path` leads to, and its trail for `_rise`."""
    node, trail = tree, None
    for symbol, index in site.path:
        g = next((g for g, (t, _) in enumerate(node.groups) if t == symbol), None)
        if g is None or not 0 <= index < len(node.groups[g][1]):
            raise ValueError(f"site {site} does not address a node of this tree")
        node, trail = node.groups[g][1][index], (node, g, index, trail)
    return node, trail


def apply_extension(tree: TTree, site: ExtensionSite) -> TTree:
    """The unit extension of `tree` at `site`.

    The site is trusted: only sites from `extension_sites(tree, problem)`
    keep the tree conforming, and a hand-made one can grow a T-list past
    its cap.  Check such a result with `ttree_conforms`.
    """
    node, trail = _walk(tree, site)
    members = [m for _, ms in node.groups for m in ms] + [_trusted_ttree(site.leaf_type)]
    return _rise(_trusted_ttree(node.label, _group(members)), trail)


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
    node, trail = _walk(tree, site)
    members = node.tlist(site.leaf_type)  # the new leaf is last and minimal, so must follow a leaf
    if len(members) >= 2 and _compare(members[-2], members[-1], None) is _GREATER:
        return False
    while trail is not None:  # a grown subtree can be out of place only before its right neighbour
        node, g, i, trail = trail
        members = node.groups[g][1]
        if i + 1 < len(members) and _compare(members[i], members[i + 1], None) is _GREATER:
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


_TABLE_CHARS = 1 << 16  # the lines that the level tables of one enumeration add to their leaves


class _Level:
    """The trees of one type under a height at most its tallest tree's.
    `parts`: (component, cap, level below).  A member equal to `top`, the
    greatest tree, is that object, so "cannot grow" is an identity test;
    `width` is its line's length.  `table` holds the trees and lines reached
    so far, from the leaf on in tree order, and `index` the position of each but the last."""

    __slots__ = ("label", "height", "leaf", "parts", "top", "width", "table", "index")

    def __init__(self, label: TypeSymbol, height: int, leaf: TTree):
        self.label, self.height, self.leaf = label, height, leaf
        self.parts = self.top = self.width = None
        self.table, self.index = [(leaf, label.name)], {}


class _Levels:
    """The levels one enumeration reaches, made when first reached, by (rank,
    height): a height past a type's tallest tree is clamped to that tree's.
    Their tables share `budget`, the characters of `_TABLE_CHARS` not yet used."""

    def __init__(self, problem: StructuralProblem, canonical: bool):
        self.problem, self.canonical, self.budget = problem, canonical, _TABLE_CHARS
        self.made: dict[tuple[int, int], _Level] = {}

    def open(self, level: _Level) -> list[tuple]:
        h, types, caps = level.height, self.problem.types, self.problem._caps[level.label.rank]
        level.parts = [(types[r], cap, self.get(r, h - 1)) for r, cap in caps.items() if h]
        return level.parts

    def get(self, rank: int, h: int) -> _Level:
        """The level of type `rank` under height `h`; at height 0 its top is its leaf."""
        h = min(h, self.problem._reach.get(rank, h))
        level = self.made.get((rank, h))
        if level is None:
            label = self.problem.types[rank]
            level = self.made[rank, h] = _Level(label, h, _trusted_ttree(label))
            if h == 0:
                level.top, level.width = level.leaf, len(label.name)
        return level


def _states(table: list, lo: int, hi: int, r: int, canonical: bool, side: int) -> Iterator[tuple]:
    """A run's states in tree order, as one side (0 tree, 1 line) of its `r`
    members' table entries: the first from `lo` to `hi - 2`, the others over
    `table[:hi]`, or with `canonical` from the first member's entry on."""
    column = [entry[side] for entry in table[:hi]]
    if canonical:
        return islice(combinations_with_replacement(column[lo:], r), comb(hi - lo + r - 1, r) - 1)
    return product(column[lo:-1], *[column] * (r - 1))


def _batch(path: list, run: tuple, prefix: str) -> tuple[Iterator[TTree], Iterator[str]]:
    """The trees and the lines of a run's states, each built when read: the
    trees along `path`, the lines from `prefix` on."""
    (node, _, g, members, j, _), trail = path[-1], None
    for above, _, a, _, i, _ in path[:-1]:  # only ")" follows the run, so each step is last
        trail = (above, a, i, trail)

    def trees() -> Iterator[TTree]:
        label, groups, symbol, left = node.label, node.groups[:g], node.groups[g][0], members[:j]
        for states in _states(*run, 0):
            yield _rise(_trusted_ttree(label, groups + ((symbol, left + states),)), trail)

    texts = chain.from_iterable(starmap(_states, [(*run, 1)]))  # made when first read
    return trees(), map("".join, zip(repeat(prefix), map(",".join, texts), repeat(")" * len(path))))


def _trees(levels: _Levels, level: _Level) -> Iterator[tuple[Iterable[TTree], Iterable[str]]]:
    """Each tree of `level` with its line, in increasing tree order, in
    chunks `(trees, lines)`.  A step descends to the least significant
    position that can grow, from the right: a member not its level's top, or
    a list not full.  A member with a next tree in its level's table steps to
    it; a list grows by a member.  Everything after drops to its minimum:
    later T-lists empty, later members leaves, or with `canonical` copies of
    the stepped member.  Only the path above is rebuilt, and the line from
    there on.  A member that was the last tree of its table adds its
    successor and that line, until the first line that does not fit in the
    budget stops all tables.  A step is a chunk of one tree.  A table step
    with only tops of its list and ")" to its right, while no table grows,
    is first a batch of the run's later states, if its table is complete or
    no top follows, but for those whose first member is the table's last
    tree: only that one can be the top, and stepping past it grows a table."""
    build, canonical = _trusted_ttree, levels.canonical
    tree, line = level.leaf, level.label.name
    while True:
        yield (tree,), (line,)
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
                k, stop = len(members), at  # `stop`: where the list's text ends
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
            path.append((node, lv, g, members, k - 1, None))
            node, lv = members[k - 1], sub
            i = sub.index.get(id(node))
            if i is not None:  # the member steps to the next tree of its table
                at -= len(sub.table[i][1])
                if (i + 2 < len(sub.table) and (k == len(members) or sub.table[-1][0] is sub.top)
                        and len(line) - stop == len(path)  # only ")" after the run
                        and all(start is None for *_, start in path)):
                    run = (sub.table, i + 1, len(sub.table), len(members) - k + 1, canonical)
                    yield _batch(path, run, line[:at])
                    i = len(sub.table) - 2
                tree, text = sub.table[i + 1]
                pieces = [text]
                break
            if levels.budget and node is sub.table[-1][0]:  # its successor joins the table
                path[-1] = path[-1][:5] + (at - len(sub.table[-1][1]),)  # where its line starts
        while path:  # rebuild the path; a rebuilt member equal to its level's top is that top
            node, above, g, members, i, start = path.pop()
            parts, groups = lv.parts, tree.groups
            if (text is None and len(groups) == len(parts)
                    and groups[-1][1][-1] is parts[-1][2].top and all(
                        len(ms) == cap and all(m is sub.top for m in ms)
                        for (_, ms), (_, cap, sub) in zip(groups, parts))):
                if lv.top is None:
                    lv.top = tree
                    lv.width = len(lv.label.name) + 1 + sum(c * (s.width + 1) for _, c, s in parts)
                tree = lv.top
            if start is not None:  # the member was its table's last tree: add this one
                text = line[start:at] + "".join(pieces)
                if len(text) > levels.budget:
                    levels.budget = 0  # no table grows any more
                else:
                    levels.budget -= len(text)
                    lv.index[id(lv.table[-1][0])] = len(lv.table) - 1
                    lv.table.append((tree, text))
            rest = len(members) - i - 1
            copy = ((text or render_ttree(tree)) if canonical else lv.label.name) if rest else ""
            pieces.append(("," + copy) * rest + ")")
            members = members[:i] + (tree,) + (tree if canonical else lv.leaf,) * rest
            tree, text = build(node.label, node.groups[:g] + ((lv.label, members),)), None
            lv = above
        line = line[:at] + "".join(pieces)


def _enumerate(
    problem: StructuralProblem, max_height: int | None, canonical: bool
) -> Iterator[tuple[Iterable[TTree], Iterable[str]]]:
    """Each tree, only the canonical ones with `canonical`, with its line, in chunks."""
    _check_height(max_height)
    levels, r = _Levels(problem, canonical), problem.root_type.rank
    height = problem._reach.get(r) if max_height is None else max_height
    if height is None:  # the root reaches a cycle
        raise ValueError("problem has a cyclic type graph; enumeration needs a height bound "
                         "(max_height or --max-depth)")
    return _trees(levels, levels.get(r, height))


def enumerate_all(problem: StructuralProblem, *, max_height: int | None = None) -> Iterator[TTree]:
    """Every conforming T-tree exactly once, in increasing tree order.
    `max_height` bounds tree height; a root type that reaches a cycle needs it."""
    return chain.from_iterable(map(itemgetter(0), _enumerate(problem, max_height, canonical=False)))


def enumerate_canonical(
    problem: StructuralProblem, *, max_height: int | None = None
) -> Iterator[TTree]:
    """Every canonical conforming T-tree, one per isomorphism class, in
    increasing tree order: `enumerate_all` over sorted T-lists only."""
    return chain.from_iterable(map(itemgetter(0), _enumerate(problem, max_height, canonical=True)))

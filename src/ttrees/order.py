"""Total order on T-trees, canonicity, and isomorphism.

Two same-rooted T-trees are compared by walking their T-lists in type
order: the first pair of T-lists that differ decides, a shorter list
ranking below a longer one and equal-length lists comparing
lexicographically by recursive tree comparison.  A leaf is therefore the
minimum among trees of its type.

A T-tree is *canonical* when every T-list at every node is sorted by this
order.  Each isomorphism class of T-trees (trees equal up to reordering
within T-lists, recursively) contains exactly one canonical member, the
class minimum, so canonicity testing doubles as duplicate detection for
tree-shaped configurations.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator

from .core import TTree, _levels, _trusted_ttree


class TreeOrdering(Enum):
    """Three-valued outcome of comparing two same-rooted T-trees."""

    LESS = -1
    EQUAL = 0
    GREATER = 1


_LESS = TreeOrdering.LESS
_EQUAL = TreeOrdering.EQUAL
_GREATER = TreeOrdering.GREATER


def _compare(a: TTree, b: TTree, count: list[int] | None) -> TreeOrdering:
    # Roots are known to carry the same label.  Absent groups stand for
    # empty T-lists, so the two group sequences are merged by type rank.
    # Pairs are visited depth first from a stack of member cursors
    # `(T-list, T-list, index)` and of `(a, b, -k)`: pairs whose T-lists
    # from position k on are left to compare (k is 0 for a new pair).
    stack = []
    k = 0
    while True:
        if not k and count is not None:
            count[0] += 1
        if k or a is not b:
            ga, gb = a.groups, b.groups
            if k == len(ga):
                if k != len(gb):
                    return _LESS
            elif k == len(gb):
                return _GREATER
            else:
                ta, la = ga[k]
                tb, lb = gb[k]
                if ta.rank != tb.rank:
                    # The tree with children of the earlier type is greater.
                    return _GREATER if ta.rank < tb.rank else _LESS
                if ta is not tb and ta != tb:
                    raise ValueError(
                        f"types {ta.name!r} and {tb.name!r} share rank {ta.rank}; "
                        "trees come from incompatible type universes"
                    )
                if len(la) != len(lb):
                    return _LESS if len(la) < len(lb) else _GREATER
                k += 1
                if k < len(ga) or k < len(gb):
                    stack.append((a, b, -k))
                stack.append((la, lb, 0))
        if not stack:
            return _EQUAL
        x, y, i = stack.pop()
        if i < 0:
            a, b, k = x, y, -i
        else:
            if i + 1 < len(x):
                stack.append((x, y, i + 1))
            a, b, k = x[i], y[i], 0


def compare(a: TTree, b: TTree) -> TreeOrdering:
    """Order two T-trees with the same root type.

    EQUAL holds exactly for structurally equal trees.  Raises ValueError
    when the root types differ.
    """
    if a.label != b.label:
        raise ValueError(
            f"cannot order trees with distinct root types {a.label.name!r} and {b.label.name!r}"
        )
    return _compare(a, b, None)


def _is_canonical(tree: TTree, count: list[int] | None) -> bool:
    stack = [tree]
    while stack:
        for _, members in stack.pop().groups:
            for x, y in zip(members, members[1:]):
                if _compare(x, y, count) is _GREATER:
                    return False
            stack.extend(members)
    return True


def is_canonical(tree: TTree) -> bool:
    """True iff every T-list at every node is sorted by `compare`."""
    return _is_canonical(tree, None)


def is_canonical_counted(tree: TTree) -> tuple[bool, int]:
    """`is_canonical` plus the number of pairwise node visits performed.

    The count is the number of (node, node) comparison steps, the measure
    in which the check is quasilinear: sorted-list verification compares
    adjacent subtrees only, and each such comparison stops at the first
    structural difference.
    """
    count = [0]
    result = _is_canonical(tree, count)
    return result, count[0]


def _class_codes(roots: list[TTree]) -> Iterator[tuple[list[TTree], list[int], list[int]]]:
    """Isomorphism class codes of the forest `roots`, one depth at a time,
    deepest first (Aho, Hopcroft & Ullman, 1974).

    A node's key gives, per T-list, its type, its length and the sorted
    codes of its members; a depth's codes number its distinct keys in
    sorted order.  Siblings share a depth, so same-labeled siblings' codes
    order as `compare` orders their canonical forms, and equal codes mean
    isomorphic subtrees.  Yields each depth's nodes, their codes and the
    codes of the depth below.
    """
    codes: list[int] = []
    for level in reversed(_levels(roots)):
        below, keys, start = codes, [], 0
        for node in level:
            key = []
            for symbol, members in node.groups:
                end = start + len(members)
                # A T-list where the other node has none makes a node
                # greater, so earlier types must sort last: negate ranks.
                key.append((-symbol.rank, symbol.name, len(members), tuple(sorted(below[start:end]))))
                start = end
            keys.append(tuple(key))
        code_of = dict.fromkeys(keys)
        for code, key in enumerate(sorted(code_of)):
            code_of[key] = code
        codes = list(map(code_of.__getitem__, keys))
        yield level, codes, below


def canonicalize(tree: TTree) -> TTree:
    """The canonical representative of `tree`'s isomorphism class.

    Every T-list is sorted by the class codes of its members, which order
    like `compare` on canonical forms; each node is built at most once and
    unchanged subtrees are reused.  The result is canonical and the
    operation is idempotent.
    """
    canonical_below: list[TTree] = []
    for level, _, below in _class_codes([tree]):
        canonical, start = [], 0
        for node in level:
            groups = []
            for symbol, members in node.groups:
                end = start + len(members)
                order = sorted(range(start, end), key=below.__getitem__)
                groups.append((symbol, tuple([canonical_below[i] for i in order])))
                start = end
            groups = tuple(groups)
            canonical.append(node if groups == node.groups else _trusted_ttree(node.label, groups))
        canonical_below = canonical
    return canonical_below[0]


def isomorphic(a: TTree, b: TTree) -> bool:
    """True iff the trees are equal up to reordering within T-lists.

    Compares the root class codes from one joint pass over both trees.
    """
    if a.label != b.label:
        return False
    for _, codes, _ in _class_codes([a, b]):
        pass
    return codes[0] == codes[1]

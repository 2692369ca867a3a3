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
from itertools import chain
from operator import is_
from typing import Iterator

from .core import TTree, _levels, _rank_clash, _trusted_ttree

__all__ = [
    "TreeOrdering",
    "canonicalize",
    "compare",
    "is_canonical",
    "is_canonical_counted",
    "isomorphic",
]


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
                if ta != tb:
                    raise _rank_clash(ta, tb)
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
    for node in chain.from_iterable(_levels([tree])):
        for _, members in node.groups:
            for x, y in zip(members, members[1:]) if len(members) > 1 else ():
                if x is not y and _compare(x, y, count) is _GREATER:
                    return False
    return True


def is_canonical(tree: TTree) -> bool:
    """True iff every T-list at every node is sorted by `compare`."""
    return _is_canonical(tree, None)


def is_canonical_counted(tree: TTree) -> tuple[bool, int]:
    """`is_canonical` plus the number of pairwise node visits performed.

    The count is the number of (node, node) comparison steps, the measure
    in which the check is quasilinear: sorted-list verification compares
    adjacent subtrees only, and each such comparison stops at the first
    structural difference.  A shared subtree is checked once per depth it
    occurs at, and adjacent members that are one object are not compared.
    """
    count = [0]
    result = _is_canonical(tree, count)
    return result, count[0]


def _class_codes(roots: list[TTree]) -> Iterator[tuple[list[TTree], dict, dict[int, int]]]:
    """Isomorphism class codes of the forest `roots`, one depth at a time,
    deepest first (Aho, Hopcroft & Ullman, 1974).

    A node's key gives, per T-list, its type, its length and the sorted
    codes of its members; a depth's codes number its distinct keys in
    sorted order.  Siblings share a depth, so same-labeled siblings' codes
    order as `compare` orders their canonical forms, and equal codes mean
    isomorphic subtrees.  Yields each depth's distinct node objects, their
    codes by `id`, and the codes of the depth below.
    """
    codes: dict[int, int] = {}
    for level in reversed([*_levels(roots)]):
        below, keys = codes, []
        for node in level if len(level) > 1 else ():  # a lone node needs no key
            key = []
            for symbol, members in node.groups:
                # A T-list where the other node has none makes a node
                # greater, so earlier types must sort last: negate ranks.
                ranked = tuple(sorted(map(below.__getitem__, map(id, members))))
                key.append((-symbol.rank, symbol.name, len(members), ranked))
            keys.append(tuple(key))
        keys = keys or [None]  # ...as its code is 0
        code_of = dict.fromkeys(keys)
        for code, key in enumerate(sorted(code_of)):
            code_of[key] = code
        codes = dict(zip(map(id, level), map(code_of.__getitem__, keys)))
        yield level, codes, below


def canonicalize(tree: TTree) -> TTree:
    """The canonical representative of `tree`'s isomorphism class.

    Every T-list is sorted by the class codes of its members, which order
    like `compare` on canonical forms.  Each depth gets one object per label
    and class, reusing a node that is canonical already, so isomorphic
    subtrees are one object.  The result is canonical and idempotent.
    """
    canonical: dict[int, TTree] = {}  # by id of a node of the depth below
    for level, codes, below in _class_codes([tree]):
        canonical_below, canonical, made = canonical, {}, {}
        for node in level:
            key = (node.label, codes[id(node)])  # codes hold no label of their own
            if key not in made:
                groups, same = [], True
                for symbol, members in node.groups:
                    ordered = sorted(map(id, members), key=below.__getitem__)
                    groups.append((symbol, tuple(map(canonical_below.__getitem__, ordered))))
                    same = same and all(map(is_, groups[-1][1], members))
                made[key] = node if same else _trusted_ttree(node.label, tuple(groups))
            canonical[id(node)] = made[key]
    return canonical[id(tree)]


def isomorphic(a: TTree, b: TTree) -> bool:
    """True iff the trees are equal up to reordering within T-lists.

    Compares the root class codes from one joint pass over both trees.
    """
    if a.label != b.label:
        return False
    for _, codes, _ in _class_codes([a, b]):
        pass
    return codes[id(a)] == codes[id(b)]

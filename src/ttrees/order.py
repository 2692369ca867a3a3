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
from functools import cmp_to_key

from .core import TTree


class TreeOrdering(Enum):
    """Three-valued outcome of comparing two same-rooted T-trees."""

    LESS = -1
    EQUAL = 0
    GREATER = 1


_LESS = TreeOrdering.LESS
_EQUAL = TreeOrdering.EQUAL
_GREATER = TreeOrdering.GREATER


def _check_same_root(a: TTree, b: TTree) -> None:
    if a.label != b.label:
        raise ValueError(
            f"cannot order trees with distinct root types "
            f"{a.label.name!r} and {b.label.name!r}"
        )


def _compare(a: TTree, b: TTree, count: list[int] | None) -> TreeOrdering:
    # Roots are known to carry the same label.  Absent groups stand for
    # empty T-lists, so merge the two group sequences by type rank.
    if count is not None:
        count[0] += 1
    ga, gb = a.groups, b.groups
    ia = ib = 0
    while True:
        if ia == len(ga):
            return _EQUAL if ib == len(gb) else _LESS
        if ib == len(gb):
            return _GREATER
        ta, la = ga[ia]
        tb, lb = gb[ib]
        if ta.rank < tb.rank:
            # a has children of an earlier type where b has none.
            return _GREATER
        if tb.rank < ta.rank:
            return _LESS
        if ta != tb:
            raise ValueError(
                f"types {ta.name!r} and {tb.name!r} share rank {ta.rank}; "
                "trees come from incompatible type universes"
            )
        if len(la) != len(lb):
            return _LESS if len(la) < len(lb) else _GREATER
        for x, y in zip(la, lb):
            outcome = _compare(x, y, count)
            if outcome is not _EQUAL:
                return outcome
        ia += 1
        ib += 1


def compare(a: TTree, b: TTree) -> TreeOrdering:
    """Order two T-trees with the same root type.

    EQUAL holds exactly for structurally equal trees.  Raises ValueError
    when the root types differ.
    """
    _check_same_root(a, b)
    return _compare(a, b, None)


def less(a: TTree, b: TTree) -> bool:
    """True iff `a` precedes or equals `b` (same root type required)."""
    return compare(a, b) is not _GREATER


def compare_any(a: TTree, b: TTree) -> TreeOrdering:
    """Extension of `compare` to arbitrary root types.

    Trees with distinct root types order by type rank.  This exists only
    to present globally sorted tree listings; canonicity never depends on
    it.
    """
    if a.label != b.label:
        ka, kb = (a.label.rank, a.label.name), (b.label.rank, b.label.name)
        return _LESS if ka < kb else _GREATER
    return _compare(a, b, None)


def _is_canonical(tree: TTree, count: list[int] | None) -> bool:
    for _, members in tree.groups:
        for member in members:
            if not _is_canonical(member, count):
                return False
        for x, y in zip(members, members[1:]):
            if _compare(x, y, count) is _GREATER:
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
    structural difference.
    """
    count = [0]
    result = _is_canonical(tree, count)
    return result, count[0]


def canonicalize(tree: TTree) -> TTree:
    """The canonical representative of `tree`'s isomorphism class.

    Children are canonicalized recursively, then every T-list is sorted
    by `compare`.  The sort is stable, the result is canonical and the
    operation is idempotent.
    """
    sort_key = cmp_to_key(lambda x, y: _compare(x, y, None).value)
    groups = tuple(
        (symbol, tuple(sorted((canonicalize(member) for member in members), key=sort_key)))
        for symbol, members in tree.groups
    )
    return TTree(tree.label, groups)


def isomorphic(a: TTree, b: TTree) -> bool:
    """True iff the trees are equal up to reordering within T-lists."""
    return a.label == b.label and canonicalize(a) == canonicalize(b)


"""Exact counts of chain-problem T-trees, total versus canonical.

The benchmark family here is the chain problem with types T0..Tp where
each Ti object may hold 0..k objects of type T(i+1).  Writing N(p, k) for
the number of its T-trees of height at most p and M(p, k) for the number
of canonical ones:

    N(0, k) = 1        N(p, k) = sum of N(p-1, k)^i for i in 0..k
    M(0, k) = 1        M(p, k) = C(M(p-1, k) + k, k)

since a tree is an ordered sequence of up to k subtrees while a canonical
tree is a sorted one, i.e. a multiset.  N explodes doubly exponentially
faster than M, which is the measurable benefit of enumerating canonical
trees only.  Everything is exact big-integer arithmetic; the closed-form
Stirling approximation of M is evaluated in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import StructuralProblem

__all__ = [
    "CountTable",
    "approx_canonical",
    "chain_problem",
    "comparison_table",
    "count_all",
    "count_canonical",
]


_CHUNK = 10**1000  # 1000 digits, under the interpreter's int-to-str limit
_MAX_DIGITS = 1_000_000  # longer counts take from seconds to hours of big-integer work


def _decimal(n: int) -> str:
    """Exact decimal digits of `n` >= 0 of any length, 1000 at a time."""
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:01000d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _validate(depth: int, branch: int) -> None:
    for name, value in (("depth", depth), ("branching", branch)):
        if type(value) is not int:  # a bool is no bound either
            raise ValueError(f"{name} must be an int, got {value!r}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if branch < 1:
        raise ValueError(f"branching must be >= 1, got {branch}")


def _digit_bounds(depth: int, branch: int) -> tuple[float, float]:
    """Upper bounds on the digit counts of N(depth, branch) and M(depth,
    branch), from float logarithms (inf once both overflow): N(1) = M(1) =
    k+1; N(p) <= X^k X/(X-1) for X >= N(p-1) >= 2; M(p) <= (M(p-1)+k)^k / k!;
    and M <= N.  A k past float range makes both inf from depth 2 on, as
    M(2) >= 2^k.  With k = 1, N = M = depth + 1."""
    k = branch
    if k == 1:
        return (math.log10(depth + 1) + 1,) * 2
    n = m = math.log10(k + 1) if depth else 0.0  # log10 takes an int of any size
    for _ in range(depth - 1):
        if k > 1e300 or m == math.inf:
            return math.inf, math.inf
        n = k * n - math.log10(1 - 10.0**-n)
        m = min(n, k * (m + math.log10(1 + k * 10.0**-m)) - math.lgamma(k + 1) / math.log(10))
    return n + 1, m + 1


def _refuse_huge(name: str, depth: int, branch: int) -> None:
    bound = _digit_bounds(depth, branch)[name == "M"]
    if bound > _MAX_DIGITS:
        raise ValueError(
            f"{name}({depth}, {branch}) is too large to count exactly: its digit "
            f"bound {bound:.4g} exceeds the limit of {_MAX_DIGITS} digits"
        )


def count_all(depth: int, branch: int) -> int:
    """N(depth, branch): all T-trees of the chain problem, exactly.
    Raises ValueError when it may have more than `_MAX_DIGITS` digits."""
    _validate(depth, branch)
    _refuse_huge("N", depth, branch)
    if branch == 1:  # a path of up to depth nodes below the root
        return depth + 1
    n = 1
    for _ in range(depth):  # the sum of n^i for i in 0..branch
        n = branch + 1 if n == 1 else (n ** (branch + 1) - 1) // (n - 1)
    return n


def count_canonical(depth: int, branch: int) -> int:
    """M(depth, branch): canonical T-trees of the chain problem, exactly.
    Raises ValueError when it may have more than `_MAX_DIGITS` digits."""
    _validate(depth, branch)
    _refuse_huge("M", depth, branch)
    if branch == 1:
        return depth + 1
    m = 1
    for _ in range(depth):
        m = math.comb(m + branch, branch)
    return m


def approx_canonical(depth: int, branch: int) -> float:
    """Stirling approximation of M(depth, branch).

    Applies the factorial approximation to C(m + k, k) with the exact
    m = M(depth-1, branch).  Computed in log space; returns `inf` instead
    of overflowing when the value exceeds float range.
    """
    _validate(depth, branch)
    if depth < 1:
        raise ValueError("approximation needs depth >= 1")
    m = count_canonical(depth - 1, branch)
    k = branch
    if m > 1e300 or k > 1e300:
        return math.inf
    # (m+k+0.5)ln(m+k) - (m+0.5)ln(m) rewritten as
    # (m+0.5)ln(1+k/m) + k*ln(m+k) to avoid cancellation for large m
    log_value = (
        -0.5 * math.log(2 * math.pi)
        + (m + 0.5) * math.log1p(k / m)
        + k * math.log(m + k)
        - (k + 0.5) * math.log(k)
    )
    if log_value >= 709.0:
        return math.inf
    return math.exp(log_value)


def chain_problem(depth: int, branch: int) -> StructuralProblem:
    """The chain structural problem shared by counting and enumeration:
    types T0..T<depth>, each holding up to `branch` objects of the next."""
    _validate(depth, branch)
    types = [f"T{i}" for i in range(depth + 1)]
    relations = [(f"T{i}", f"T{i + 1}", branch) for i in range(depth)]
    return StructuralProblem("T0", types, relations)


# Totals printed in the previously published comparison table for this
# family that disagree with the recurrence above.  Exhaustive enumeration
# of the (2, 4) chain problem yields 781 trees, siding with the
# recurrence; 3.61e11 is what the recurrence produces when seeded with
# the 775 figure, so it inherits the same discrepancy.
_PUBLISHED_TOTAL_CONFLICTS: dict[tuple[int, int], str] = {
    (2, 4): "775",
    (3, 3): "221436",
    (3, 4): "3.61e11 (follows from 775)",
}


@dataclass(frozen=True)
class CountTable:
    """Grid of exact total and canonical counts for the chain family.

    `totals[p-1][k-1]` is N(p, k) and `canonical[p-1][k-1]` is M(p, k)
    for 1 <= p <= p_max, 1 <= k <= k_max.  `notes` flags cells whose
    total is known to conflict with a previously published figure.
    """

    p_max: int
    k_max: int
    totals: tuple[tuple[int, ...], ...]
    canonical: tuple[tuple[int, ...], ...]
    notes: tuple[tuple[int, int, str], ...]

    def flagged_cells(self) -> tuple[tuple[int, int], ...]:
        return tuple((p, k) for p, k, _ in self.notes)

    def to_text(self) -> str:
        """Aligned table; flagged cells carry a `*` and a footnote."""
        flagged = set(self.flagged_cells())
        header = ["N / M"] + [f"k={k}" for k in range(1, self.k_max + 1)]
        rows = [header]
        for p, (totals, canonical) in enumerate(zip(self.totals, self.canonical), 1):
            row = [f"p={p}"]
            for k, (n, m) in enumerate(zip(totals, canonical), 1):
                mark = "*" if (p, k) in flagged else ""
                row.append(f"{_decimal(n)} / {_decimal(m)}{mark}")
            rows.append(row)
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = [
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
            for row in rows
        ]
        for p, k, note in self.notes:
            lines.append(f"* p={p} k={k}: {note}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        """`p,k,N,M` rows with exact decimal integers."""
        lines = ["p,k,N,M"]
        for p, (totals, canonical) in enumerate(zip(self.totals, self.canonical), 1):
            for k, (n, m) in enumerate(zip(totals, canonical), 1):
                lines.append(f"{p},{k},{_decimal(n)},{_decimal(m)}")
        return "\n".join(lines) + "\n"


def comparison_table(p_max: int, k_max: int) -> CountTable:
    """Exact N/M grid for 1 <= p <= p_max, 1 <= k <= k_max."""
    if type(p_max) is not int or type(k_max) is not int:
        raise ValueError(f"table bounds must be ints, got p_max={p_max!r}, k_max={k_max!r}")
    if p_max < 1 or k_max < 1:
        raise ValueError("table needs p_max >= 1 and k_max >= 1")
    digits = 0.0
    for k in range(1, k_max + 1):  # each cell adds 2 or more, so this ends soon
        for p in range(1, p_max + 1):
            digits += sum(_digit_bounds(p, k))
            if digits > _MAX_DIGITS:
                raise ValueError(
                    f"the {p_max} x {k_max} table is too large to print: a summed "
                    f"digit bound {digits:.7g} exceeds the limit of {_MAX_DIGITS} digits"
                )
    totals = tuple(
        tuple(count_all(p, k) for k in range(1, k_max + 1))
        for p in range(1, p_max + 1)
    )
    canonical = tuple(
        tuple(count_canonical(p, k) for k in range(1, k_max + 1))
        for p in range(1, p_max + 1)
    )
    notes = []
    for (p, k), published in sorted(_PUBLISHED_TOTAL_CONFLICTS.items()):
        if p <= p_max and k <= k_max:
            notes.append(
                (
                    p,
                    k,
                    f"previously published total {published} disagrees with "
                    f"the recurrence value {_decimal(totals[p - 1][k - 1])}",
                )
            )
    return CountTable(p_max, k_max, totals, canonical, tuple(notes))

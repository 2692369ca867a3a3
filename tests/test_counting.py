from __future__ import annotations

import math
import time

import pytest

from ttrees import (
    approx_canonical,
    chain_problem,
    comparison_table,
    count_all,
    count_canonical,
    enumerate_all,
    render_problem,
)
from ttrees.counting import _decimal, _digit_bounds, _refuse_huge


def test_base_cases():
    assert count_all(0, 3) == 1
    assert count_canonical(0, 3) == 1
    assert count_all(1, 4) == 5
    assert count_canonical(1, 4) == 5


def test_reference_cells():
    assert [count_all(1, k) for k in (1, 2, 3, 4)] == [2, 3, 4, 5]
    assert [count_all(2, k) for k in (1, 2, 3)] == [3, 13, 85]
    assert count_all(3, 2) == 183
    assert [count_canonical(2, k) for k in (1, 2, 3, 4)] == [3, 10, 35, 126]
    assert count_canonical(3, 3) == 8436
    assert count_canonical(3, 4) == 11_358_880


def test_recurrence_values_at_disputed_cells():
    assert count_all(2, 4) == sum(5**i for i in range(5)) == 781
    assert count_all(3, 3) == sum(85**i for i in range(4)) == 621_436
    assert count_all(3, 4) == sum(781**i for i in range(5))


def test_enumeration_confirms_disputed_cell():
    assert len(list(enumerate_all(chain_problem(2, 4)))) == 781


def test_enumeration_confirms_deep_disputed_cell_by_default():
    # About a second: enumerates all 621436 trees of the (3, 3) chain
    assert sum(1 for _ in enumerate_all(chain_problem(3, 3))) == 621_436


def test_closed_form_of_geometric_sum():
    for depth in (2, 3, 4):
        for branch in (2, 3, 4):
            n_prev = count_all(depth - 1, branch)
            assert count_all(depth, branch) == (n_prev ** (branch + 1) - 1) // (n_prev - 1)


def test_monotonicity_and_domination():
    for depth in range(1, 4):
        for branch in range(1, 5):
            n, m = count_all(depth, branch), count_canonical(depth, branch)
            assert m <= n
            assert count_all(depth + 1, branch) >= n
            assert count_all(depth, branch + 1) >= n
            assert count_canonical(depth + 1, branch) >= m
            assert count_canonical(depth, branch + 1) >= m


def test_argument_validation():
    with pytest.raises(ValueError):
        count_all(-1, 2)
    with pytest.raises(ValueError):
        count_canonical(2, 0)
    with pytest.raises(ValueError):
        approx_canonical(0, 2)
    # Bounds must be ints; a bool counts as none.
    for count in (count_all, count_canonical, approx_canonical, chain_problem):
        for depth, branch in [(2.5, 2), (True, 2), (2, 2.0), (2, None)]:
            with pytest.raises(ValueError, match="must be an int, got"):
                count(depth, branch)
    for p_max, k_max in [(2, 2.5), (True, 2), ("2", 2)]:
        with pytest.raises(ValueError, match="table bounds must be ints, got"):
            comparison_table(p_max, k_max)


def test_huge_counts_are_refused_up_front():
    for count in (count_all, count_canonical, approx_canonical, comparison_table):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"digit bound \S+ exceeds the limit of 1000000"):
            count(9, 9)
        elapsed = time.perf_counter() - start
        assert elapsed < 1, f"{count.__name__} took {elapsed:.2f}s, budget 1s"
    # N(8, 7) has 750 557 digits: under the limit, so it is not refused.
    _refuse_huge("N", 8, 7)
    _refuse_huge("M", 8, 7)


def test_branching_past_float_range():
    # k = 10^400 is past float range: N(1) = M(1) = k + 1 is counted
    # exactly, at once; N(2) and M(2) are refused; depth 0 stays 1.
    k = 10**400
    start = time.perf_counter()
    assert count_all(1, k) == count_canonical(1, k) == k + 1
    assert approx_canonical(1, k) == approx_canonical(2, k) == math.inf
    assert count_all(0, k) == count_canonical(0, k) == 1
    for count in (count_all, count_canonical):
        with pytest.raises(ValueError, match=r"digit bound inf exceeds the limit"):
            count(2, k)
    assert time.perf_counter() - start < 1
    assert _digit_bounds(1, k) == (401.0, 401.0)


def test_branch_one_counts_a_path_per_depth():
    start = time.perf_counter()
    for depth in (0, 1, 5, 10**8):
        assert count_all(depth, 1) == count_canonical(depth, 1) == depth + 1
        assert _digit_bounds(depth, 1)[1] >= len(str(depth + 1))
    assert time.perf_counter() - start < 1


def test_digit_bounds_hold():
    for depth in range(8):
        for branch in range(1, 8):
            n_bound, m_bound = _digit_bounds(depth, branch)
            assert n_bound >= len(_decimal(count_all(depth, branch))), (depth, branch)
            assert m_bound >= len(_decimal(count_canonical(depth, branch))), (depth, branch)
    # With one slot per node there are depth + 1 trees: 6 digits here.
    assert max(_digit_bounds(10**5, 1)) < 7


def test_approximation_accuracy():
    assert approx_canonical(2, 4) == pytest.approx(126, rel=0.05)
    assert approx_canonical(3, 3) == pytest.approx(8436, rel=0.05)


def test_approximation_error_shrinks_with_branching():
    errors = []
    for branch in range(4, 11):
        exact = count_canonical(2, branch)
        errors.append(abs(approx_canonical(2, branch) - exact) / exact)
    assert errors == sorted(errors, reverse=True)


def test_approximation_never_overflows():
    assert approx_canonical(5, 8) == math.inf
    assert approx_canonical(4, 2) > 0


def test_chain_problem_shape():
    p = chain_problem(3, 2)
    assert [t.name for t in p.types] == ["T0", "T1", "T2", "T3"]
    assert all(cap == 2 for _, _, cap in p.relations)
    assert "rel T2 T3 max 2" in render_problem(p)
    degenerate = chain_problem(0, 5)
    assert degenerate.relations == ()


def test_table_grid_and_flags():
    table = comparison_table(3, 4)
    assert table.totals[2 - 1][2 - 1] == 13
    assert table.canonical[2 - 1][2 - 1] == 10
    assert table.totals[3 - 1][2 - 1] == 183
    assert table.canonical[3 - 1][4 - 1] == 11_358_880
    assert table.flagged_cells() == ((2, 4), (3, 3), (3, 4))
    for row_n, row_m in zip(table.totals, table.canonical):
        for n, m in zip(row_n, row_m):
            assert 1 <= m <= n


def test_table_flags_only_cells_in_range():
    assert comparison_table(2, 3).flagged_cells() == ()
    assert comparison_table(2, 4).flagged_cells() == ((2, 4),)


def test_table_text_rendering():
    text = comparison_table(3, 4).to_text()
    assert "13 / 10" in text
    assert "781 / 126*" in text
    assert "previously published total 775" in text
    assert "221436" in text


def test_table_csv_rendering():
    csv = comparison_table(2, 4).to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "p,k,N,M"
    assert "2,2,13,10" in lines
    assert "2,4,781,126" in lines
    assert len(lines) == 1 + 2 * 4
    # exact decimal integers only
    big = comparison_table(3, 4).to_csv()
    assert "372529411805" in big
    assert "e" not in big.splitlines()[-1]

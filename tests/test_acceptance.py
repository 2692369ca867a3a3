"""End-to-end acceptance checks.

Each test covers one acceptance criterion, enforces its tolerance and
time budget, and prints a `PASS`/`FAIL` line (visible with `pytest -s`;
with plain `pytest -v` the per-test PASSED/FAILED column carries the same
information).
"""

from __future__ import annotations

import math
import random
import time

from ttrees import (
    canonicalize,
    chain_problem,
    comparison_table,
    compare,
    config_to_ttree,
    count_all,
    count_canonical,
    approx_canonical,
    enumerate_all,
    enumerate_canonical,
    extension_sites,
    apply_extension,
    is_canonical,
    is_canonical_counted,
    is_canonical_incremental,
    canonical_removal,
    parse_config,
    render_ttree,
    StructuralProblem,
    TreeOrdering,
)
from conftest import PC_CONFIG
from oracles import (
    all_conforming_trees,
    min_variant,
    order_key,
    random_tree,
    unit_extensions,
)

SMALL_CHAINS = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2)]


def report(criterion: str, failures: list[str], detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance [{criterion}]: {status}{suffix}")
    assert not failures, f"{criterion}: {failures[:5]}"


def abcd_problem() -> StructuralProblem:
    return StructuralProblem(
        "A", ["A", "B", "C", "D"], [("A", "B", 2), ("A", "C", 2), ("B", "D", 2)]
    )


def wide_problem() -> StructuralProblem:
    return StructuralProblem(
        "A",
        ["A", "B", "C", "D", "E"],
        [("A", "B", 3), ("A", "C", 2), ("B", "D", 2), ("C", "D", 2), ("D", "E", 2)],
    )


def test_01_canonical_count_grid():
    expected = {
        (1, 1): 2, (1, 2): 3, (1, 3): 4, (1, 4): 5,
        (2, 1): 3, (2, 2): 10, (2, 3): 35, (2, 4): 126,
        (3, 1): 4, (3, 2): 66, (3, 3): 8436, (3, 4): 11_358_880,
    }
    failures = []
    start = time.perf_counter()
    for (p, k), value in expected.items():
        got = count_canonical(p, k)
        if got != value:
            failures.append(f"M({p},{k})={got}, expected {value}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    report("canonical count grid", failures, f"{elapsed:.3f}s")


def test_02_total_count_grid_and_discrepancy_report():
    failures = []
    consistent = {
        (1, 1): 2, (1, 2): 3, (1, 3): 4, (1, 4): 5,
        (2, 1): 3, (2, 2): 13, (2, 3): 85, (3, 2): 183,
    }
    for (p, k), value in consistent.items():
        got = count_all(p, k)
        if got != value:
            failures.append(f"N({p},{k})={got}, expected {value}")
    if count_all(2, 4) != 781:
        failures.append(f"N(2,4)={count_all(2, 4)}, expected 781")
    if count_all(3, 3) != 621_436:
        failures.append(f"N(3,3)={count_all(3, 3)}, expected 621436")
    third = sum(781**i for i in range(5))
    if count_all(3, 4) != third:
        failures.append(f"N(3,4)={count_all(3, 4)}, expected {third}")

    start = time.perf_counter()
    enumerated = sum(1 for _ in enumerate_all(chain_problem(2, 4)))
    elapsed = time.perf_counter() - start
    if enumerated != 781:
        failures.append(f"enumeration of the (2,4) chain gave {enumerated}")
    if elapsed >= 10.0:
        failures.append(f"(2,4) enumeration took {elapsed:.2f}s, budget 10s")

    table = comparison_table(3, 4)
    if table.flagged_cells() != ((2, 4), (3, 3), (3, 4)):
        failures.append(f"flagged cells: {table.flagged_cells()}")
    text = table.to_text()
    for fragment in ("775", "221436", "781 / 126*"):
        if fragment not in text:
            failures.append(f"discrepancy report lacks {fragment!r}")
    report("total count grid + discrepancy report", failures, f"enum {elapsed:.2f}s")


def test_03_canonical_enumeration_equals_filtered_classes():
    failures = []
    start = time.perf_counter()
    for p, k in SMALL_CHAINS:
        problem = chain_problem(p, k)
        classes = {canonicalize(tree) for tree in enumerate_all(problem)}
        generated = set(enumerate_canonical(problem))
        if classes != generated:
            failures.append(f"({p},{k}): sets differ")
        if len(generated) != count_canonical(p, k):
            failures.append(f"({p},{k}): {len(generated)} generated")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s, budget 5s")
    report("canonical enumeration completeness", failures, f"{elapsed:.2f}s")


def test_04_canonicity_is_class_minimality():
    problem = abcd_problem()
    corpus = [t for t in all_conforming_trees(problem) if t.node_count <= 7]
    failures = []
    start = time.perf_counter()
    checked = 0
    for tree in corpus:
        minimal = min_variant(tree, problem)
        if is_canonical(tree) != (tree == minimal):
            failures.append(render_ttree(tree))
        checked += 1
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.2f}s, budget 30s")
    report(
        "canonicity = class minimality",
        failures,
        f"{checked} trees, {elapsed:.2f}s",
    )


def test_05_order_laws():
    failures = []
    start = time.perf_counter()

    corpus13 = list(enumerate_all(chain_problem(2, 2)))
    n13 = len(corpus13)
    cmp13 = [[compare(a, b).value for b in corpus13] for a in corpus13]
    for i in range(n13):
        for j in range(n13):
            if cmp13[i][j] != -cmp13[j][i]:
                failures.append(f"13-corpus antisymmetry at ({i},{j})")
            if (cmp13[i][j] == 0) != (corpus13[i] == corpus13[j]):
                failures.append(f"13-corpus equality at ({i},{j})")
            if not (cmp13[i][j] != 1 or cmp13[j][i] != 1):
                failures.append(f"13-corpus totality at ({i},{j})")
    for i in range(n13):
        for j in range(n13):
            for k in range(n13):
                if cmp13[i][j] != 1 and cmp13[j][k] != 1 and cmp13[i][k] == 1:
                    failures.append(f"13-corpus transitivity at ({i},{j},{k})")

    problem = wide_problem()
    rng = random.Random(20030604)
    corpus = [random_tree(problem, rng.randrange(1, 13), rng) for _ in range(500)]
    keys = [order_key(t, problem) for t in corpus]
    n = len(corpus)
    # agreement with a totally ordered key yields totality, antisymmetry
    # and transitivity on every pair and triple of the corpus
    matrix = {}
    for i in range(n):
        for j in range(n):
            value = compare(corpus[i], corpus[j]).value
            matrix[i, j] = value
            expected = (keys[i] > keys[j]) - (keys[i] < keys[j])
            if value != expected:
                failures.append(f"random corpus key mismatch at ({i},{j})")
            if (value == 0) != (corpus[i] == corpus[j]):
                failures.append(f"random corpus equality at ({i},{j})")
    for _ in range(200_000):
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if matrix[i, j] != 1 and matrix[j, k] != 1 and matrix[i, k] == 1:
            failures.append(f"random corpus transitivity at ({i},{j},{k})")

    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s, budget 10s")
    report("order laws", failures, f"{elapsed:.2f}s")


def test_06_canonical_removal_properties():
    failures = []
    start = time.perf_counter()
    problem = chain_problem(2, 3)
    checked = 0
    for tree in enumerate_canonical(problem):
        if tree.is_leaf:
            continue
        shrunk = canonical_removal(tree)
        checked += 1
        if not is_canonical(shrunk):
            failures.append(f"{render_ttree(tree)}: removal not canonical")
        if compare(shrunk, tree) is TreeOrdering.GREATER:
            failures.append(f"{render_ttree(tree)}: removal does not precede")
        if shrunk.node_count != tree.node_count - 1:
            failures.append(f"{render_ttree(tree)}: wrong node count")
        if tree not in unit_extensions(shrunk, problem):
            failures.append(f"{render_ttree(tree)}: not an extension of removal")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s, budget 5s")
    report("canonical removal", failures, f"{checked} trees, {elapsed:.2f}s")


def test_07_configuration_round_trip():
    failures = []
    for p, k in SMALL_CHAINS:
        from ttrees import ttree_to_config

        for tree in enumerate_all(chain_problem(p, k)):
            if config_to_ttree(ttree_to_config(tree)) != tree:
                failures.append(f"({p},{k}): {render_ttree(tree)}")
    pc = StructuralProblem(
        "PC",
        ["PC", "Monitor", "Supply", "Mainboard", "Processor", "HDisk"],
        [
            ("PC", "Monitor", 1),
            ("PC", "Supply", 1),
            ("PC", "Mainboard", 1),
            ("Mainboard", "Processor", 2),
            ("Mainboard", "HDisk", 2),
        ],
    )
    tree = config_to_ttree(parse_config(PC_CONFIG, pc))
    expected = "PC(Monitor,Supply,Mainboard(Processor,Processor,HDisk,HDisk))"
    if render_ttree(tree) != expected:
        failures.append(f"pc config mapped to {render_ttree(tree)}")
    report("configuration round trip", failures)


def test_08_incremental_canonicity_agreement():
    failures = []
    checked = 0
    for problem in [chain_problem(2, 3), abcd_problem()]:
        for tree in enumerate_canonical(problem):
            for site in extension_sites(tree, problem):
                grown = apply_extension(tree, site)
                checked += 1
                if is_canonical_incremental(grown, site) != is_canonical(grown):
                    failures.append(f"{render_ttree(grown)} at {site}")
    report("incremental canonicity", failures, f"{checked} extensions")


def test_09_canonicity_check_cost():
    problem = chain_problem(6, 8)
    rng = random.Random(1903)
    failures = []

    big = canonicalize(random_tree(problem, 100_000, rng))
    assert big.node_count == 100_000
    start = time.perf_counter()
    verdict = is_canonical(big)
    elapsed = time.perf_counter() - start
    if not verdict:
        failures.append("canonicalized tree not canonical")
    if elapsed >= 1.0:
        failures.append(f"100k-node check took {elapsed:.3f}s, budget 1s")
    # Its 10**5 nodes hold a few thousand distinct subtrees, each checked once.
    steps = is_canonical_counted(big)[1]
    if steps > 15_000:
        failures.append(f"100k-node check took {steps} compare steps, budget 15 000")

    sizes = [100, 1_000, 10_000, 100_000]
    ratios = []
    for size in sizes:
        tree = canonicalize(random_tree(problem, size, rng))
        verdict, comparisons = is_canonical_counted(tree)
        if not verdict:
            failures.append(f"{size}-node tree not canonical")
        ratios.append(comparisons / (size * math.log2(size)))
    fitted = max(ratios[:-1])
    if ratios[-1] > fitted:
        failures.append(
            f"comparison growth exceeds n*log2(n) trend: {ratios}"
        )
    report(
        "canonicity check cost",
        failures,
        f"100k nodes in {elapsed:.3f}s, ratios {[round(r, 3) for r in ratios]}",
    )


def test_10_stirling_approximation():
    failures = []
    close = approx_canonical(2, 4)
    if abs(close - 126) / 126 >= 0.05:
        failures.append(f"approx(2,4)={close}")
    for p in (1, 2, 3):
        for k in range(1, 7):
            exact = count_canonical(p, k)
            if exact < 100:
                continue
            approx = approx_canonical(p, k)
            error = abs(approx - exact) / exact
            if error >= 0.10:
                failures.append(f"approx({p},{k}) off by {error:.3f}")
    report("closed-form approximation", failures, f"approx(2,4)={close:.1f}")

from __future__ import annotations

import signal

import pytest

from ttrees import StructuralProblem, chain_problem, enumerate_all


TIME_LIMIT_S = 120  # about 20 times the slowest test


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past `TIME_LIMIT_S`, such as one draining an
    endless stream, instead of hanging the run.  A no-op where there is no
    SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran past its {TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def abcd() -> StructuralProblem:
    """A holds up to two B and two C; B holds up to two D."""
    return StructuralProblem(
        "A",
        ["A", "B", "C", "D"],
        [("A", "B", 2), ("A", "C", 2), ("B", "D", 2)],
    )


@pytest.fixture
def pc() -> StructuralProblem:
    """The PC catalog example: one monitor, supply and mainboard per PC;
    up to two processors and two disks per mainboard."""
    return StructuralProblem(
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


@pytest.fixture
def wide() -> StructuralProblem:
    """Multi-type problem whose D objects are reachable through both B
    and C composites; exercises merged T-list comparison."""
    return StructuralProblem(
        "A",
        ["A", "B", "C", "D", "E"],
        [
            ("A", "B", 3),
            ("A", "C", 2),
            ("B", "D", 2),
            ("C", "D", 2),
            ("D", "E", 2),
        ],
    )


@pytest.fixture
def cyclic() -> StructuralProblem:
    """A holds up to two B; B holds up to two B (needs a height bound)."""
    return StructuralProblem(
        "A", ["A", "B"], [("A", "B", 2), ("B", "B", 2)], allow_cyclic=True
    )


PC_CONFIG = """\
# the sample PC build
obj 1 PC
obj 2 Monitor
obj 3 Supply
obj 4 Mainboard
obj 5 Processor
obj 6 Processor
obj 7 HDisk
obj 8 HDisk
link 1 2
link 1 3
link 1 4
link 4 5
link 4 6
link 4 7
link 4 8
"""


@pytest.fixture
def chain22_corpus() -> list:
    return list(enumerate_all(chain_problem(2, 2)))

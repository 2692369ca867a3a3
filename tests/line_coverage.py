"""Name every line of `src/ttrees` that the tier-1 suite never executes.

Runs the suite in this process under a `sys.settrace` collector that
records only frames of the package, takes each module's executable lines
from its code objects' `co_lines()`, and exits 1 naming every one that
did not run, unless the source text in `ALLOWED` covers it.  Standard
library and pytest only; extra arguments go to pytest:

    python tests/line_coverage.py [pytest arguments]

Tracing makes the suite four to five times slower.  It also makes
`test_roundtrip_memory_peak` fail its bound, because tracemalloc counts
the collector's own set, so that one test is deselected here; the plain
suite runs it.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ttrees"

# Source text whose lines may stay unexecuted, by module.  Each text must
# occur in its module exactly once, from the start of a line.
ALLOWED = {
    "cli.py": [
        # A closed pipe and the console script's entry are met only in the
        # child process of `test_enum_into_a_closed_pipe`.
        """\
    except BrokenPipeError:  # the reader left early, as `| head` does
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so exit flushes nothing
        os.close(devnull)
        return 141  # 128 + SIGPIPE
""",
        """\
def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
""",
    ],
    "core.py": [
        # Every ValueError of the first pass is named by the second.
        """\
                raise ConfigError(f"line {lineno}: bad object id in {line!r}") from None
        raise
""",
    ],
}


def executable_lines(path: Path) -> set[int]:
    """The lines that some instruction of the module's code objects carries."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for start, end, line in code.co_lines() if line and start < end)
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def allowed_lines(path: Path) -> set[int]:
    """The line numbers that the module's `ALLOWED` texts span."""
    source, lines = path.read_text(encoding="utf-8"), set()
    for text in ALLOWED.get(path.name, []):
        found = ("\n" + source).count("\n" + text)
        if found != 1:
            raise SystemExit(f"{path.name}: an allowed text occurs {found} times:\n{text}")
        first = source.count("\n", 0, ("\n" + source).index("\n" + text)) + 1
        lines.update(range(first, first + text.count("\n")))
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest in process; return its status and the package lines run."""
    import pytest

    prefix, seen = f"{PACKAGE}/", set()
    add = seen.add

    def local(frame, event, arg):
        add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local(frame, event, arg)
        return None

    sys.settrace(start)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(status), seen


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))  # so the suite imports the traced sources
    memory = "tests/test_cli.py::test_roundtrip_memory_peak"
    status, seen = run_traced(["-q", "-p", "no:cacheprovider", f"--rootdir={ROOT}",
                               f"--deselect={memory}", str(ROOT / "tests"), *argv])
    if status:
        print(f"pytest exited {status}; coverage not judged", file=sys.stderr)
        return status
    missed, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        run = {line for name, line in seen if name == str(path)}
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(lines - run - allowed_lines(path)):
            missed.append(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print("\n".join(missed) or f"all {total} executable lines of {PACKAGE.name} ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command-line interface.

Exit codes: 0 for success, 1 for a negative domain answer (`check` on a
non-canonical or non-conforming tree, `iso` on non-isomorphic trees),
2 for usage, parse, or validation errors, 3 for an internal error (an
unexpected exception, with its traceback on stderr, or a failed round
trip), 141 when the reader closed stdout before the output ended.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import traceback
from functools import cache
from itertools import chain, islice
from pathlib import Path
from typing import Sequence

from .core import (
    StructuralProblem,
    config_to_ttree,
    parse_config,
    parse_problem,
    parse_ttree,
    parse_ttrees,
    render_ttree,
    ttree_conforms,
    ttree_to_config,
)
from .counting import _decimal, approx_canonical, comparison_table, count_all, count_canonical
from .order import canonicalize, is_canonical, isomorphic
from .search import _enumerate, canonical_removal


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, which refuses what it does not take with its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttrees",
        description="Canonical forms, enumeration, and exact counting of "
        "composition T-trees.",
    )
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    with_problem = argparse.ArgumentParser(add_help=False)
    with_problem.add_argument("--problem", type=Path, help="problem file for type names")

    count = commands.add_parser(
        "count", help="exact total and canonical tree counts of a chain problem"
    )
    count.set_defaults(run=_cmd_count.__name__)
    count.add_argument("--depth", type=int, required=True, help="chain depth p")
    count.add_argument("--branch", type=int, required=True, help="branching bound k")
    count.add_argument(
        "--approx",
        action="store_true",
        help="also print the closed-form approximation of the canonical count",
    )

    table = commands.add_parser(
        "table", help="grid of total/canonical counts for small chain problems"
    )
    table.set_defaults(run=_cmd_table.__name__)
    table.add_argument("--pmax", type=int, required=True)
    table.add_argument("--kmax", type=int, required=True)
    table.add_argument("--csv", action="store_true", help="emit p,k,N,M rows")

    enum = commands.add_parser("enum", help="enumerate the T-trees of a problem file")
    enum.set_defaults(run=_cmd_enum.__name__)
    enum.add_argument("problem", type=Path)
    enum.add_argument(
        "--canonical",
        action="store_true",
        help="emit only canonical trees (one per isomorphism class)",
    )
    enum.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="height bound (required when the root type reaches a cycle)",
    )
    enum.add_argument("--limit", type=int, default=None, help="stop after this many")

    check = commands.add_parser(
        "check", parents=[with_problem], help="test whether a T-tree is canonical"
    )
    check.set_defaults(run=_cmd_check.__name__)
    check.add_argument("expr")

    canon = commands.add_parser(
        "canon", parents=[with_problem], help="print the canonical representative of a T-tree"
    )
    canon.set_defaults(run=_cmd_canon.__name__)
    canon.add_argument("expr")

    iso = commands.add_parser(
        "iso", parents=[with_problem], help="test whether two T-trees are isomorphic"
    )
    iso.set_defaults(run=_cmd_iso.__name__)
    iso.add_argument("left")
    iso.add_argument("right")

    removal = commands.add_parser(
        "removal", parents=[with_problem], help="apply one canonical leaf removal to a T-tree"
    )
    removal.set_defaults(run=_cmd_removal.__name__)
    removal.add_argument("expr")

    roundtrip = commands.add_parser(
        "roundtrip",
        parents=[with_problem],
        help="read a configuration file, print its T-tree, verify the "
        "conversion is invertible",
    )
    roundtrip.set_defaults(run=_cmd_roundtrip.__name__)
    roundtrip.add_argument("config", type=Path)

    return parser


def _load_problem(path: Path | None) -> StructuralProblem | None:
    if path is None:
        return None
    return parse_problem(path.read_text(encoding="utf-8"), allow_cyclic=True)


def _cmd_count(args: argparse.Namespace) -> int:
    n = count_all(args.depth, args.branch)
    m = count_canonical(args.depth, args.branch)
    line = f"N={_decimal(n)} M={_decimal(m)}"
    if args.approx:
        line += f" approx={approx_canonical(args.depth, args.branch):.6g}"
    print(line)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    table = comparison_table(args.pmax, args.kmax)
    print(table.to_csv() if args.csv else table.to_text(), end="")
    return 0


_CHUNK_LINES = 4096  # enum lines per write to stdout


def _cmd_enum(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be >= 0, got {args.limit}")
    chunks = _enumerate(_load_problem(args.problem), args.max_depth, args.canonical)
    # Only the lines of a batch are read, so none of its trees is built.
    lines = islice(chain.from_iterable(lines for _, lines in chunks), args.limit)
    while chunk := list(islice(lines, _CHUNK_LINES)):
        sys.stdout.write("\n".join(chunk + [""]))  # one string per chunk, its last line ended
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    problem = _load_problem(args.problem)
    tree = parse_ttree(args.expr, problem)
    if problem is not None and not ttree_conforms(tree, problem):
        print("non-conforming")
        return 1
    if is_canonical(tree):
        print("canonical")
        return 0
    print("non-canonical")
    return 1


def _cmd_canon(args: argparse.Namespace) -> int:
    tree = parse_ttree(args.expr, _load_problem(args.problem))
    print(render_ttree(canonicalize(tree)))
    return 0


def _cmd_iso(args: argparse.Namespace) -> int:
    left, right = parse_ttrees([args.left, args.right], _load_problem(args.problem))
    if isomorphic(left, right):
        print("isomorphic")
        return 0
    print("not isomorphic")
    return 1


def _cmd_removal(args: argparse.Namespace) -> int:
    tree = parse_ttree(args.expr, _load_problem(args.problem))
    print(render_ttree(canonical_removal(tree)))
    return 0


def _cmd_roundtrip(args: argparse.Namespace) -> int:
    problem = _load_problem(args.problem)
    tree = config_to_ttree(parse_config(args.config.read_text(encoding="utf-8"), problem))
    if config_to_ttree(ttree_to_config(tree)) != tree:
        print("round trip failed", file=sys.stderr)
        return 3  # the conversions disagree: a fault of this program, not of the input
    print(render_ttree(tree))
    return 0


def run(argv: Sequence[str] | None = None) -> int:
    """Execute one command; returns the process exit status.  The parser is built on
    the first call and reused; a handler is looked up by name when its command runs."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # usage errors and --help, after argparse has printed
        return exc.code
    # What a command builds is acyclic, so reference counting frees all of
    # it; cyclic collector passes would only walk its live trees again.
    enabled = gc.isenabled()
    gc.disable()
    try:
        code = globals()[args.run](args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader left early, as `| head` does
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so exit flushes nothing
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # never exit 1, which is a domain answer
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

from __future__ import annotations

import gc
import hashlib
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from functools import cmp_to_key
from pathlib import Path

import pytest

import ttrees

from ttrees import (
    ConfigTree,
    TTree,
    canonical_removal,
    canonicalize,
    chain_problem,
    compare,
    count_canonical,
    enumerate_all,
    enumerate_canonical,
    isomorphic,
    parse_problem,
    parse_ttree,
    parse_ttrees,
    render_problem,
    render_ttree,
    ttree_to_config,
    TreeOrdering,
)
from ttrees import cli, search
from ttrees.cli import run
from conftest import PC_CONFIG
from oracles import random_tree, unit_extensions

ABCD_PROBLEM = """\
root A
type A
type B
type C
type D
rel A B max 2
rel A C max 2
rel B D max 2
"""

CYCLIC_PROBLEM = "root X\ntype X\ntype Y\nrel X Y max 2\nrel Y Y max 2\n"


@pytest.fixture
def abcd_file(tmp_path):
    path = tmp_path / "abcd.prob"
    path.write_text(ABCD_PROBLEM)
    return path


def test_count_output(capsys):
    assert run(["count", "--depth", "2", "--branch", "2"]) == 0
    assert capsys.readouterr().out == "N=13 M=10\n"


def test_count_with_approximation(capsys):
    assert run(["count", "--depth", "2", "--branch", "4", "--approx"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("N=781 M=126 approx=129.6")


def test_count_rejects_bad_arguments(capsys):
    assert run(["count", "--depth", "-1", "--branch", "2"]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["table", "--pmax", "0", "--kmax", "1"]) == 2
    assert "table needs p_max >= 1 and k_max >= 1" in capsys.readouterr().err


def test_huge_counts_are_refused_up_front(capsys):
    # A table is refused before its first cell when its cells' digit bounds
    # add up past the limit: a grid of many small cells (2 x 3000 would
    # print 17.5 MB) as well as one huge cell.
    for argv in (["count", "--depth", "9", "--branch", "9"],
                 ["table", "--pmax", "9", "--kmax", "9"],
                 ["table", "--pmax", "1", "--kmax", "1" + "0" * 30],
                 ["table", "--pmax", "100000000", "--kmax", "1"],
                 ["table", "--pmax", "2", "--kmax", "3000", "--csv"]):
        start = time.perf_counter()
        assert run(argv) == 2
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds the limit of 1000000 digits" in captured.err
        assert elapsed < 1, f"{argv[0]} took {elapsed:.2f}s, budget 1s"


def test_count_with_branch_one_at_any_depth(capsys):
    # One slot per node: depth + 1 trees, counted without a step per level.
    start = time.perf_counter()
    assert run(["count", "--depth", "100000000", "--branch", "1"]) == 0
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().out == "N=100000001 M=100000001\n"
    assert elapsed < 1, f"count took {elapsed:.2f}s, budget 1s"


def test_count_with_branching_past_float_range(capsys):
    branch = "1" + "0" * 400
    assert run(["count", "--depth", "1", "--branch", branch]) == 0
    digits = str(10**400 + 1)
    assert capsys.readouterr().out == f"N={digits} M={digits}\n"
    assert run(["count", "--depth", "1", "--branch", branch, "--approx"]) == 0
    assert capsys.readouterr().out == f"N={digits} M={digits} approx=inf\n"
    assert run(["count", "--depth", "2", "--branch", branch]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the limit of 1000000 digits" in captured.err
    assert run(["count", "--depth", "0", "--branch", branch]) == 0
    assert capsys.readouterr().out == "N=1 M=1\n"


def test_table_text_and_flags(capsys):
    assert run(["table", "--pmax", "3", "--kmax", "4"]) == 0
    out = capsys.readouterr().out
    assert "13 / 10" in out
    assert "8436" in out
    assert "previously published total 775" in out


def test_table_csv(capsys):
    assert run(["table", "--pmax", "2", "--kmax", "2", "--csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "p,k,N,M"
    assert out[-1] == "2,2,13,10"


def _from_digits(digits):
    """The integer `digits` spells, read in chunks short enough for `int`."""
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start : start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_counts_past_the_int_to_str_digit_limit(capsys):
    n = m = 1
    for _ in range(6):
        n, m = sum(n**i for i in range(7)), math.comb(m + 6, 6)
    assert run(["table", "--pmax", "6", "--kmax", "6", "--csv"]) == 0
    p, k, n_digits, m_digits = capsys.readouterr().out.splitlines()[-1].split(",")
    assert (p, k) == ("6", "6") and len(n_digits) > 4300
    assert _from_digits(n_digits) == n and _from_digits(m_digits) == m
    assert run(["count", "--depth", "6", "--branch", "6"]) == 0
    assert capsys.readouterr().out.split() == ["N=" + n_digits, "M=" + m_digits]
    assert run(["table", "--pmax", "6", "--kmax", "6"]) == 0
    assert f"{n_digits} / {m_digits}" in capsys.readouterr().out


def test_enum_counts_match_counting(tmp_path, capsys):
    for depth, branch in [(2, 2), (2, 3)]:
        path = tmp_path / f"chain{depth}{branch}.prob"
        path.write_text(render_problem(chain_problem(depth, branch)))
        assert run(["enum", str(path), "--canonical"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == count_canonical(depth, branch)


def test_enum_sorted_stream_is_strictly_increasing(abcd_file, capsys):
    assert run(["enum", str(abcd_file), "--canonical"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    trees = parse_ttrees(lines)
    for a, b in zip(trees, trees[1:]):
        assert compare(a, b) is TreeOrdering.LESS


@pytest.mark.parametrize(
    "text, flags, limit",
    [
        (ABCD_PROBLEM, [], None),
        (ABCD_PROBLEM, ["--canonical"], None),
        (render_problem(chain_problem(2, 3)), [], None),
        (CYCLIC_PROBLEM, ["--max-depth", "3"], None),
        (CYCLIC_PROBLEM, ["--max-depth", "3", "--canonical"], 7),
    ],
)
def test_enum_sorted_is_the_walk_in_tree_order(tmp_path, capsys, text, flags, limit):
    path = tmp_path / "p.prob"
    path.write_text(text)
    assert run(["enum", str(path), *flags]) == 0
    walk_lines = capsys.readouterr().out.splitlines()
    assert len(set(walk_lines)) == len(walk_lines)
    argv = ["enum", str(path), *flags]
    assert run(argv + ([] if limit is None else ["--limit", str(limit)])) == 0
    lines = capsys.readouterr().out.splitlines()

    problem = parse_problem(text, allow_cyclic=True)
    trees = parse_ttrees(lines, problem)
    for a, b in zip(trees, trees[1:]):
        assert compare(a, b) is TreeOrdering.LESS
    tree_of = dict(zip(walk_lines, parse_ttrees(walk_lines, problem)))
    key = cmp_to_key(lambda x, y: compare(tree_of[x], tree_of[y]).value)
    assert lines == sorted(walk_lines, key=key)[:limit] == walk_lines[:limit]


@pytest.mark.parametrize(
    "name, flags, digest",
    [
        ("abcd", [], "ea2d6d3c80b01866e8daeb60a7a10fe4e22401b5cae519d3267169f3c457afea"),
        ("abcd", ["--canonical"], "c8cf942e27cbef14dc03495257870c569e2b733ced205fc4c6deee2d03a4b3a1"),
        ("cyclic", ["--max-depth", "3"],
         "3d19fc7c06de083024841cf9cda37e75746f8fd1b229d069306932c6311ad838"),
        ("wide", ["--canonical", "--max-depth", "2"],
         "7e717e787fdccae7e28a5ca619841381c293ddf96f668398ade88f4375bac514"),
        ("cyclic", ["--max-depth", "4"],
         "8539f0366e79b3bd58ecff5b001b0181b66e0cf207c7f8f4e17a9f8da97fa1e3"),
        ("cyclic", ["--canonical", "--max-depth", "4"],
         "c0f94eea58209d34a4406733f2c41551f590586cfc7fe7eea93f37f1d6604294"),
    ],
    ids=["abcd", "abcd-canonical", "cyclic-depth3", "wide-canonical-depth2",
         "cyclic-depth4", "cyclic-canonical-depth4"],
)
def test_enum_output_order_is_pinned(request, tmp_path, capsys, name, flags, digest):
    # Increasing tree order: these digests are those of `enum --sorted` at
    # the last version that sorted a reverse-search walk, so the streamed
    # order is checked against an order found another way.
    path = tmp_path / f"{name}.prob"
    path.write_text(render_problem(request.getfixturevalue(name)))
    assert run(["enum", str(path), *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_enum_streams_from_a_deep_bound_at_once(tmp_path, capsys):
    # Only the levels the first trees reach are made; none is a million deep.
    path = tmp_path / "loop.prob"
    path.write_text(CYCLIC_PROBLEM)
    for flags in ([], ["--canonical"]):
        start = time.perf_counter()
        assert run(["enum", str(path), "--max-depth", "1000000", "--limit", "10", *flags]) == 0
        elapsed = time.perf_counter() - start
        deep = capsys.readouterr().out
        assert run(["enum", str(path), "--max-depth", "10", "--limit", "10", *flags]) == 0
        assert deep == capsys.readouterr().out
        assert deep.splitlines()[-1] == "X(" + "Y(" * 8 + "Y" + ")" * 9
        assert elapsed < 1, f"enum took {elapsed:.2f}s, budget 1s"


def test_enum_refuses_the_sorted_flag(tmp_path, capsys):
    # Trees always come in increasing tree order; `--sorted` is no option.
    path = tmp_path / "p.prob"
    path.write_text(ABCD_PROBLEM)
    assert run(["enum", "--sorted", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: ttrees enum" in captured.err  # the options `enum` does take
    assert "unrecognized arguments: --sorted" in captured.err


def test_an_unknown_option_is_refused_by_the_parser_it_was_given_to(abcd_file, capsys):
    # Before the subcommand it belongs to the top-level command, after it to `enum`.
    assert run(["--foo", "enum", str(abcd_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ttrees [-h]")
    assert "ttrees: error: unrecognized arguments: --foo" in captured.err
    assert run(["enum", "--foo", str(abcd_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ttrees enum")
    assert "ttrees enum: error: unrecognized arguments: --foo" in captured.err


def test_enum_builds_only_the_trees_of_single_steps(tmp_path, capsys, monkeypatch, wide):
    # `enum` reads the lines of a batch, spliced from its table's lines, and
    # never its trees; each single step still builds its tree.  On wide, a
    # step in the root's B list batches the C list's states with it.
    chain33, cyclic, wide_file = (tmp_path / f"{n}.prob" for n in ("chain33", "cyclic", "wide"))
    chain33.write_text(render_problem(chain_problem(3, 3)))
    cyclic.write_text(CYCLIC_PROBLEM)
    wide_file.write_text(render_problem(wide))
    built, real = 0, search._trusted_ttree

    def counted(label, groups=()):
        nonlocal built
        built += 1
        return real(label, groups)

    monkeypatch.setattr(search, "_trusted_ttree", counted)
    for argv, lines, bound in [
        (["--canonical", str(chain33)], 8436, 200),
        (["--max-depth", "4", str(cyclic)], 33673, 500),
        (["--canonical", str(wide_file)], 18876, 150),
    ]:
        built = 0
        assert run(["enum", *argv]) == 0
        assert capsys.readouterr().out.count("\n") == lines
        assert built <= bound, argv


def test_enum_into_a_closed_pipe(tmp_path):
    # `ttrees enum ... | head -n 1`: the reader leaves after one line, long
    # before the 8 436 trees are written.
    path = tmp_path / "chain33.prob"
    path.write_text(render_problem(chain_problem(3, 3)))
    src = Path(ttrees.__file__).resolve().parents[1]
    child = subprocess.Popen(
        [sys.executable, "-m", "ttrees.cli", "enum", "--canonical", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert child.stdout.readline() == b"T0\n"
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 141
    assert stderr == b""


def test_enum_lines_parse_back(abcd_file, capsys):
    assert run(["enum", str(abcd_file)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(set(lines))
    from ttrees import parse_problem, parse_ttree, render_ttree

    problem = parse_problem(ABCD_PROBLEM)
    for line in lines:
        assert render_ttree(parse_ttree(line, problem)) == line


def test_enum_limit(abcd_file, capsys):
    assert run(["enum", str(abcd_file), "--limit", "4"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 4


def test_enum_cyclic_needs_depth(tmp_path, capsys):
    path = tmp_path / "loop.prob"
    path.write_text("root X\ntype X\ntype Y\nrel X Y max 1\nrel Y Y max 1\n")
    assert run(["enum", str(path)]) == 2
    assert "cyclic" in capsys.readouterr().err
    assert run(["enum", str(path), "--max-depth", "2"]) == 0
    assert capsys.readouterr().out.strip().splitlines() == ["X", "X(Y)", "X(Y(Y))"]


def test_enum_of_a_cycle_the_root_does_not_reach_needs_no_depth(tmp_path, capsys):
    path = tmp_path / "unreached.prob"
    path.write_text("root R\ntype R\ntype A\ntype B\nrel R A max 1\nrel B B max 1\n")
    for flags in ([], ["--canonical"]):
        assert run(["enum", *flags, str(path)]) == 0
        assert capsys.readouterr() == ("R\nR(A)\n", "")


def test_enum_rejects_negative_height(abcd_file, capsys):
    assert run(["enum", str(abcd_file), "--max-depth", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "height bound must be >= 0" in captured.err


def test_enum_rejects_negative_limit(abcd_file, capsys):
    assert run(["enum", str(abcd_file), "--limit", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--limit" in captured.err
    assert run(["enum", str(abcd_file), "--limit", "0"]) == 0
    assert capsys.readouterr().out == ""


def test_check_canonical(abcd_file, capsys):
    assert run(["check", "--problem", str(abcd_file), "A(B,B(D))"]) == 0
    assert capsys.readouterr().out == "canonical\n"


def test_check_non_canonical(abcd_file, capsys):
    assert run(["check", "--problem", str(abcd_file), "A(B(D),B)"]) == 1
    assert capsys.readouterr().out == "non-canonical\n"


def test_check_non_conforming(abcd_file, capsys):
    assert run(["check", "--problem", str(abcd_file), "A(B,B,B)"]) == 1
    assert capsys.readouterr().out == "non-conforming\n"


def test_check_without_problem(capsys):
    assert run(["check", "A(B,B(D))"]) == 0
    capsys.readouterr()


def test_check_unknown_type(abcd_file, capsys):
    assert run(["check", "--problem", str(abcd_file), "A(Z)"]) == 2
    assert "unknown type" in capsys.readouterr().err


def test_canon(capsys):
    assert run(["canon", "A(B(D),B)"]) == 0
    assert capsys.readouterr().out == "A(B,B(D))\n"


def test_iso(capsys):
    assert run(["iso", "A(B(D),B)", "A(B,B(D))"]) == 0
    assert capsys.readouterr().out == "isomorphic\n"
    assert run(["iso", "A(B)", "A(C)"]) == 1
    assert capsys.readouterr().out == "not isomorphic\n"


def test_removal(capsys):
    assert run(["removal", "A(B,B(D))"]) == 0
    assert capsys.readouterr().out == "A(B,B)\n"


def test_removal_of_leaf_is_an_error(capsys):
    assert run(["removal", "A"]) == 2
    assert "single-node" in capsys.readouterr().err


def test_roundtrip(tmp_path, abcd_file, capsys):
    prob = tmp_path / "pc.prob"
    prob.write_text(
        "root PC\ntype PC\ntype Monitor\ntype Supply\ntype Mainboard\n"
        "type Processor\ntype HDisk\n"
        "rel PC Monitor max 1\nrel PC Supply max 1\nrel PC Mainboard max 1\n"
        "rel Mainboard Processor max 2\nrel Mainboard HDisk max 2\n"
    )
    cfg = tmp_path / "pc.cfg"
    cfg.write_text(PC_CONFIG)
    assert run(["roundtrip", "--problem", str(prob), str(cfg)]) == 0
    assert (
        capsys.readouterr().out
        == "PC(Monitor,Supply,Mainboard(Processor,Processor,HDisk,HDisk))\n"
    )


def test_roundtrip_without_problem_uses_name_order(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("obj 0 A\nobj 1 C\nobj 2 B\nlink 0 1\nlink 0 2\n")
    assert run(["roundtrip", str(cfg)]) == 0
    assert capsys.readouterr().out == "A(B,C)\n"


def test_roundtrip_without_problem_refuses_bad_type_names(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("obj 0 A\nobj 1 A!\nlink 0 1\n")  # parse_ttree refuses A(A!)
    assert run(["roundtrip", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid type name 'A!'\n"


def test_roundtrip_refuses_ids_that_are_not_ascii_digits(tmp_path, capsys):
    problem, config = tmp_path / "ab.prob", tmp_path / "ab.cfg"
    problem.write_text("root A\ntype A\ntype B\nrel A B max 1\n")
    config.write_text("obj +1 A\nobj 1_0 B\nlink +1 1_0\n")  # int() reads 1 and 10
    assert run(["roundtrip", "--problem", str(problem), str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: bad object id in 'obj +1 A'\n"


def test_failed_round_trip_is_an_internal_error(tmp_path, monkeypatch, capsys):
    config = tmp_path / "pc.cfg"
    config.write_text(PC_CONFIG)
    to_config = cli.ttree_to_config

    def drop_last_leaf(tree):  # breadth-first numbering puts a leaf last
        whole = to_config(tree)
        last = len(whole.ids) - 1
        children = tuple(tuple(c for c in kids if c != last) for kids in whole.children[:last])
        return ConfigTree(whole.ids[:last], whole.labels[:last], children, 0)

    monkeypatch.setattr(cli, "ttree_to_config", drop_last_leaf)
    assert run(["roundtrip", str(config)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "round trip failed\n"


def test_roundtrip_memory_peak(tmp_path, capsys):
    # A 20 000-object configuration with scattered ids, its lines shuffled.
    # Measured with Python 3.11: 8.8 MiB when the file was read into one
    # tuple per line and the command held the configuration to its end,
    # 7.2 MiB with columns and the configuration dropped once converted.
    rng = random.Random(2003)
    problem = chain_problem(6, 8)
    whole = ttree_to_config(random_tree(problem, 20_000, rng))
    ids = rng.sample(range(200_000), len(whole.ids))
    lines = [f"obj {ids[obj]} {symbol.name}" for obj, symbol in whole.types]
    lines += [f"link {ids[obj]} {ids[kid]}" for obj, kids in whole.links for kid in kids]
    rng.shuffle(lines)
    config, prob = tmp_path / "big.cfg", tmp_path / "big.prob"
    config.write_text("\n".join(lines) + "\n")
    prob.write_text(render_problem(problem))
    del whole, lines
    tracemalloc.start()
    try:
        assert run(["roundtrip", "--problem", str(prob), str(config)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(capsys.readouterr().out) > 60_000
    assert peak < 8 * 2**20


def test_parse_error_exit_code(capsys):
    assert run(["canon", "A(B("]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert run(["enum", "/nonexistent/q.prob"]) == 2
    capsys.readouterr()


def test_internal_error_exits_3(monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_canon", crash)
    assert run(["canon", "A"]) == 3
    err = capsys.readouterr().err
    assert "internal error: RuntimeError: boom" in err


def test_collector_is_paused_during_a_command_and_restored(tmp_path, monkeypatch, capsys):
    good, bad = tmp_path / "pc.cfg", tmp_path / "bad.cfg"
    good.write_text(PC_CONFIG)
    bad.write_text("obj 0 PC\nlink 0 1\n")
    seen = []

    def crash(args):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_canon", crash)
    calls = [(["roundtrip", str(good)], 0), (["roundtrip", str(bad)], 2), (["canon", "A"], 3)]
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for argv, code in calls:
                assert run(argv) == code
                assert gc.isenabled() is enabled, (argv, enabled)
    finally:
        gc.enable()
    capsys.readouterr()
    assert seen == [False, False]


def test_a_handler_patched_after_the_parser_is_built_runs(monkeypatch, capsys):
    assert run(["canon", "A"]) == 0  # the parser exists from here on

    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_canon", crash)
    assert run(["canon", "A"]) == 3
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err


def test_repeated_calls_share_one_parser_and_answer_alike(tmp_path, monkeypatch, capsys):
    problem = tmp_path / "p.prob"
    problem.write_text(render_problem(chain_problem(2, 2)))
    calls = [
        (["enum", "--sorted", str(problem)], 2),
        (["--help"], 0),
        (["canon", "A(B("], 2),
        (["check", "--", "-A"], 2),
        (["enum", "--canonical", str(problem)], 0),
        (["iso", "A(B,C(D))", "A(C(D),B)"], 0),
    ]
    built = []
    init = cli._Subcommand.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Subcommand, "__init__", counted)
    rounds = []
    for _ in range(2):
        answers = []
        for argv, code in calls:
            assert run(argv) == code, argv
            answers.append((code, *capsys.readouterr()))
        rounds.append(answers)
    assert rounds[0] == rounds[1]
    assert all(out or err for _, out, err in rounds[0])
    assert len(built) <= 8  # one subparser per command, built at most once


def test_usage_error_exits_2():
    assert run(["count", "--depth", "2"]) == 2


def test_argparse_exits_come_back_as_status(capsys):
    assert run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: ttrees")
    assert run(["count", "--depth", "x", "--branch", "2"]) == 2
    assert "invalid int value" in capsys.readouterr().err
    # An expression that starts with "-" reads as an option...
    assert run(["check", "-A"]) == 2
    assert "usage:" in capsys.readouterr().err
    # ...unless "--" ends the options; then the parser refuses it.
    assert run(["check", "--", "-A"]) == 2
    assert "expected a type name" in capsys.readouterr().err


def test_deep_path_tree_through_every_tree_command(tmp_path, capsys):
    # 100 000 nodes in one path: A, then B below each node.
    depth = 100_000
    problem = tmp_path / "deep.prob"
    problem.write_text("root A\ntype A\ntype B\nrel A B max 1\nrel B B max 1\n")
    expr = "A(" + "B(" * (depth - 2) + "B" + ")" * (depth - 1)
    config = tmp_path / "deep.cfg"
    lines = ["obj 0 A"] + [f"obj {i} B" for i in range(1, depth)]
    lines += [f"link {i - 1} {i}" for i in range(1, depth)]
    config.write_text("\n".join(lines) + "\n")
    args = ["--problem", str(problem)]
    for argv, expected in [
        (["check", *args, expr], "canonical"),
        (["canon", *args, expr], expr),
        (["iso", *args, expr, expr], "isomorphic"),
        (["roundtrip", *args, str(config)], expr),
    ]:
        assert run(argv) == 0, argv[0]
        captured = capsys.readouterr()
        assert captured.out == expected + "\n", argv[0]
        assert captured.err == ""


def _two_paths_problem(tmp_path):
    problem = tmp_path / "two.prob"
    problem.write_text("root A\ntype A\ntype B\nrel A B max 2\nrel B B max 1\n")
    return ["--problem", str(problem)]


def _path(depth):
    return "B(" * (depth - 1) + "B" + ")" * (depth - 1)


def test_check_compares_deep_equal_siblings(tmp_path, capsys):
    # Two equal 20 000-level paths: the sibling comparison walks them to the end.
    args = _two_paths_problem(tmp_path)
    deep = _path(20_000)
    expr = f"A({deep},{deep})"
    assert run(["check", *args, expr]) == 0
    assert capsys.readouterr().out == "canonical\n"
    assert run(["canon", *args, expr]) == 0
    assert capsys.readouterr().out == expr + "\n"


def test_check_orders_deep_siblings_that_differ_at_the_bottom(tmp_path, capsys):
    args = _two_paths_problem(tmp_path)
    shorter, longer = _path(20_000), _path(20_001)
    assert run(["check", *args, f"A({longer},{shorter})"]) == 1
    assert capsys.readouterr().out == "non-canonical\n"
    assert run(["check", *args, f"A({shorter},{longer})"]) == 0
    assert capsys.readouterr().out == "canonical\n"
    assert run(["canon", *args, f"A({longer},{shorter})"]) == 0
    assert capsys.readouterr().out == f"A({shorter},{longer})\n"


def test_removal_of_deep_path_tree(tmp_path, capsys):
    problem = tmp_path / "deep.prob"
    problem.write_text("root A\ntype A\ntype B\nrel A B max 1\nrel B B max 1\n")
    assert run(["removal", "--problem", str(problem), f"A({_path(100_000)})"]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"A({_path(99_999)})\n"
    assert captured.err == ""


def _tree_outputs(tmp_path, capsys):
    """What the tree commands print and the tree functions return, as text."""
    abcd, cyclic = tmp_path / "abcd.prob", tmp_path / "cyclic.prob"
    abcd.write_text(ABCD_PROBLEM)
    cyclic.write_text(CYCLIC_PROBLEM)
    config = tmp_path / "pc.cfg"
    config.write_text(PC_CONFIG)
    with_abcd = ["--problem", str(abcd)]
    outputs = []
    for argv in [
        ["enum", str(abcd)],
        ["enum", str(abcd), "--canonical"],
        ["enum", str(cyclic), "--max-depth", "3"],
        ["check", *with_abcd, "A(B(D),B,C)"],
        ["canon", *with_abcd, "A(B(D),B,C)"],
        ["iso", *with_abcd, "A(B(D),B,C)", "A(C,B,B(D))"],
        ["removal", *with_abcd, "A(B,B(D),C)"],
        ["roundtrip", str(config)],
    ]:
        outputs.append((run(argv), *capsys.readouterr()))
    problem = parse_problem(ABCD_PROBLEM)
    tree = parse_ttree("A(B(D),B,C)", problem)
    outputs += [
        [render_ttree(t) for t in enumerate_all(problem)],
        [render_ttree(t) for t in enumerate_canonical(problem)],
        render_ttree(canonicalize(tree)),
        isomorphic(tree, parse_ttree("A(C,B,B(D))", problem)),
        render_ttree(canonical_removal(tree)),
        [render_ttree(t) for t in unit_extensions(tree, problem)],
    ]
    return outputs


def test_nothing_in_the_package_hashes_a_tree(tmp_path, capsys, monkeypatch):
    # Trees keep no hash, so hashing one costs a full rendering.
    expected = _tree_outputs(tmp_path, capsys)
    assert [output[0] for output in expected[:8]] == [0, 0, 0, 1, 0, 0, 0, 0]

    def refuse(tree):
        raise TypeError("a tree was hashed")

    monkeypatch.setattr(TTree, "__hash__", refuse)
    with pytest.raises(TypeError, match="hashed"):
        hash(parse_ttree("A(B)"))
    assert _tree_outputs(tmp_path, capsys) == expected

"""One benchmark workload, run in a process of its own.

`run.py` starts this file once per workload run (and a few more times in
`--mode setup` to sample set-up time).  Every CLI call goes through
`ttrees.cli.run(argv)` in this process with stdout captured, one at a
time, with no extra threads or processes, so `ru_maxrss` and the heap
belong to the workload.

The last line on stdout is one JSON object for `run.py`; nothing else is
printed there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle
from oracle import Spec, TreeChecker, chain_spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"

MIN_PASSES = 3
BIGTREE_NODES = 100_000
CORPUS_STRIDE = 10  # enum: core/order functions run on every tenth emitted tree
ENUM_SAMPLE = 1_000  # bigtree: canonical trees enumerated for search.enumerate_s
GROWTH_SAMPLE = 300  # bigtree: extension sites of the big tree replayed
DEEP_LEVELS = 2_000
TABLE_PROBE = ("6", "6")

# Public functions timed in the traced run, named `<module>.<function>`.
LAYER_FUNCTIONS = (
    "core.parse_problem", "core.parse_ttree", "core.ttree_conforms", "core.render_ttree",
    "core.parse_config", "core.config_to_ttree", "core.ttree_to_config",
    "order.is_canonical", "order.canonicalize", "order.isomorphic",
    "search.enumerate",
)
GROWTH = ("extension_sites", "apply_extension", "is_canonical_incremental", "canonical_removal")
CLI_STEPS = ("cli.argparse", "cli.read", "cli.print")
CLI_CALLS = ("cli.enum", "cli.check", "cli.canon", "cli.iso", "cli.roundtrip")

WIDE = Spec(
    "A",
    ("A", "B", "C", "D", "E"),
    (("A", "B", 3), ("A", "C", 2), ("B", "D", 2), ("C", "D", 2), ("D", "E", 2)),
)
CYCLIC = Spec("A", ("A", "B"), (("A", "B", 2), ("B", "B", 2)))

# Counters that only the program itself can report.
PENDING_COUNTERS = (
    "trees built per tree emitted and compare steps during enumeration are "
    "not measured: they need a stats object inside ttrees, planned in ROADMAP.md; "
    "spans here are recorded around public calls from the benchmark's files"
)

pc = time.perf_counter


def import_package():
    """Import ttrees from this checkout's `src`, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import ttrees.cli

    if not Path(ttrees.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ttrees imported from {ttrees.cli.__file__}, not {SRC}")
    return ttrees


def invoke(ttrees, argv: list[str]) -> tuple[int | None, str, str]:
    """Exit code (None when an exception escaped), stdout and stderr of
    one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ttrees.cli.run(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a measured failure, not a benchmark error
        code = None
        err.write(f"{type(exc).__name__}: {str(exc)[:200]}")
    return code, out.getvalue(), err.getvalue()


class Tracer:
    """Spans kept in memory: name, start, end, parent, workload, plus the
    busy time and call count of spans that aggregate many calls."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []

    def add(self, name, parent, start, end, busy=None, calls=1, **counts) -> int:
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "parent": parent,
                "workload": self.workload,
                "start": start,
                "end": end,
                "busy_s": end - start if busy is None else busy,
                "calls": calls,
                **counts,
            }
        )
        return len(self.spans) - 1

    def timed(self, name: str, parent: int, fn: Callable, *args, **kwargs):
        start = pc()
        result = fn(*args, **kwargs)
        self.add(name, parent, start, pc())
        return result


def replay_problem(tracer: Tracer, parent: int, ttrees, path: Path):
    """The CLI's problem loading: read the file, parse it."""
    text = tracer.timed("cli.read", parent, path.read_text, encoding="utf-8")
    return tracer.timed("core.parse_problem", parent, ttrees.core.parse_problem, text, allow_cyclic=True)


def replay_print(tracer: Tracer, parent: int, lines: list[str]) -> None:
    sink = io.StringIO()
    start = pc()
    for line in lines:
        print(line, file=sink)
    tracer.add("cli.print", parent, start, pc())


def replay_enumerate(tracer: Tracer, parent: int, stream, limit: int) -> None:
    """Time `limit` steps of an enumerator."""
    start = pc()
    busy = 0.0
    for _ in range(limit):
        t0 = pc()
        if next(stream, None) is None:
            break
        busy += pc() - t0
    tracer.add("search.enumerate", parent, start, pc(), busy=busy, calls=limit)


@dataclass
class Call:
    """One CLI call of a workload pass.  `replay` repeats the call's steps
    (the CLI's own argument parsing, file reads and printing, and each
    public function it calls) as spans under the call's `cli.*` span."""

    command: str
    argv: list[str]
    verify: Callable[[int | None, str], list[str]]
    replay: Callable[[Tracer, int], list[str]]
    trees: int = 0  # lines an enum call prints


@dataclass
class Probe:
    """A legal input run once per run, untimed, expected to succeed."""

    name: str
    argv: list[str]
    verify: Callable[[str], list[str]]


@dataclass
class Inputs:
    calls: list[Call]
    probes: list[Probe] = field(default_factory=list)
    after_setup: Callable[[], list[str]] = lambda: []


# --- enum workloads ---------------------------------------------------------


def enum_call(ttrees, path: Path, spec: Spec, canonical: bool, max_height: int | None) -> Call:
    argv = ["enum", str(path)]
    if canonical:
        argv.insert(1, "--canonical")
    if max_height is not None:
        argv[1:1] = ["--max-depth", str(max_height)]
    expected = oracle.count_trees(spec, max_height, canonical)
    checker = TreeChecker(spec, max_height)
    verified: list[str] = []  # the first output that passed every check

    def verify(code, out):
        if code != 0:
            return [f"{' '.join(argv[:-1])}: exit {code}"]
        if verified and out == verified[0]:
            return []
        errors = oracle.check_lines(checker, out, expected, canonical)
        if not errors and not verified:
            verified.append(out)
        return [f"{' '.join(argv[:-1])}: {e}" for e in errors]

    def replay(tracer, parent):
        # Mirrors cli._cmd_enum: parse the problem, drain the enumerator,
        # render and print each tree.  Then, under the pass span, times the
        # functions enum does not call on the emitted trees.
        core, search = ttrees.core, ttrees.search
        problem = replay_problem(tracer, parent, ttrees, path)
        enumerator = search.enumerate_canonical if canonical else search.enumerate_all
        stream = enumerator(problem, max_height=max_height)
        trees = []
        sink = io.StringIO()
        enum_busy = render_busy = print_busy = 0.0
        start = pc()
        while True:
            t0 = pc()
            tree = next(stream, None)
            t1 = pc()
            enum_busy += t1 - t0
            if tree is None:
                break
            line = core.render_ttree(tree)
            t2 = pc()
            print(line, file=sink)
            print_busy += pc() - t2
            render_busy += t2 - t1
            trees.append(tree)
        end = pc()
        tracer.add("search.enumerate", parent, start, end, busy=enum_busy, calls=len(trees))
        tracer.add("core.render_ttree", parent, start, end, busy=render_busy, calls=len(trees))
        tracer.add("cli.print", parent, start, end, busy=print_busy, calls=len(trees))
        lines = sink.getvalue()
        errors = verify(0, lines)
        pass_id = tracer.spans[parent]["parent"]
        replay_growth(tracer, pass_id, ttrees, problem, trees, max_height)
        errors += replay_tree_functions(tracer, pass_id, ttrees, problem, trees, lines.splitlines())
        return errors

    return Call("enum", argv, verify, replay, expected)


def replay_growth(tracer, parent, ttrees, problem, trees, max_height, pick=None) -> None:
    """Time the growth primitives as the canonical enumerator calls them:
    sites and extensions of every tree and, for a canonical tree, the
    incremental check of each extension and the removal of those it
    accepts.  `pick` narrows a tree's sites to a sample."""
    search = ttrees.search
    busy = dict.fromkeys(GROWTH, 0.0)
    calls = dict.fromkeys(GROWTH, 0)
    accepted = 0
    start = pc()
    for tree in trees:
        t0 = pc()
        sites = search.extension_sites(tree, problem, max_height=max_height)
        busy["extension_sites"] += pc() - t0
        calls["extension_sites"] += 1
        if pick is not None:
            sites = pick(sites)
        canonical = ttrees.order.is_canonical(tree)
        for site in sites:
            t0 = pc()
            grown = search.apply_extension(tree, site)
            t1 = pc()
            busy["apply_extension"] += t1 - t0
            calls["apply_extension"] += 1
            if not canonical:
                continue
            ok = search.is_canonical_incremental(grown, site)
            t2 = pc()
            busy["is_canonical_incremental"] += t2 - t1
            calls["is_canonical_incremental"] += 1
            if ok:
                accepted += 1
                search.canonical_removal(grown)
                busy["canonical_removal"] += pc() - t2
                calls["canonical_removal"] += 1
    end = pc()
    for name in GROWTH:
        extra = {"accepted": accepted} if name == "is_canonical_incremental" else {}
        tracer.add(f"search.{name}", parent, start, end, busy=busy[name], calls=calls[name], **extra)


def config_text(config) -> str:
    """A ttrees ConfigTree in the configuration file format."""
    lines = [f"obj {obj} {symbol.name}" for obj, symbol in config.types]
    lines += [f"link {obj} {kid}" for obj, kids in config.links for kid in kids]
    return "\n".join(lines) + "\n"


def replay_tree_functions(tracer, parent, ttrees, problem, trees, lines) -> list[str]:
    """On every CORPUS_STRIDE-th emitted tree, time the core and order
    functions that `enum` itself does not call."""
    core, order = ttrees.core, ttrees.order
    busy: dict[str, float] = {}
    steps = 0
    errors = []

    def timed(name, fn, *args):
        t0 = pc()
        result = fn(*args)
        busy[name] = busy.get(name, 0.0) + pc() - t0
        return result

    sample = list(zip(trees, lines))[::CORPUS_STRIDE]
    start = pc()
    for tree, line in sample:
        parsed = timed("core.parse_ttree", core.parse_ttree, line, problem)
        conforms = timed("core.ttree_conforms", core.ttree_conforms, parsed, problem)
        config = timed("core.ttree_to_config", core.ttree_to_config, parsed)
        config = timed("core.parse_config", core.parse_config, config_text(config), problem)
        back = timed("core.config_to_ttree", core.config_to_ttree, config)
        timed("order.is_canonical", order.is_canonical, parsed)
        steps += order.is_canonical_counted(parsed)[1]
        canon = timed("order.canonicalize", order.canonicalize, parsed)
        same = timed("order.isomorphic", order.isomorphic, parsed, canon)
        if not (parsed == tree == back and conforms and same):
            errors = [f"layer replay: wrong result on {line}"]
    end = pc()
    for name, total in busy.items():
        extra = {"compare_steps": steps} if name == "order.is_canonical" else {}
        tracer.add(name, parent, start, end, busy=total, calls=len(sample), **extra)
    return errors


def setup_enum_canonical(ttrees, work: Path, seed: int, tiny: bool) -> Inputs:
    chain = chain_spec(2, 2) if tiny else chain_spec(3, 3)
    wide = Spec(WIDE.root, WIDE.types, tuple((a, b, 1) for a, b, _ in WIDE.rels)) if tiny else WIDE
    calls = []
    for name, spec in (("chain", chain), ("wide", wide)):
        path = work / f"{name}.prob"
        path.write_text(spec.text(), encoding="utf-8")
        calls.append(enum_call(ttrees, path, spec, True, None))
    return Inputs(calls)


def setup_enum_all(ttrees, work: Path, seed: int, tiny: bool) -> Inputs:
    path = work / "cyclic.prob"
    path.write_text(CYCLIC.text(), encoding="utf-8")
    return Inputs([enum_call(ttrees, path, CYCLIC, False, 2 if tiny else 4)])


# --- bigtree ------------------------------------------------------------------


def expect_output(label: str, expected_code: int, expected: str):
    def verify(code, out):
        if code != expected_code:
            return [f"{label}: exit {code}, expected {expected_code}"]
        if out != expected + "\n":
            return [f"{label}: wrong output ({len(out)} chars)"]
        return []

    return verify


def setup_bigtree(ttrees, work: Path, seed: int, tiny: bool) -> Inputs:
    spec = chain_spec(6, 8)
    rng = random.Random(seed)
    tree = oracle.generate_tree(spec, 500 if tiny else BIGTREE_NODES, rng)
    random_form = tree.render()
    shuffled_kids = tree.shuffled(rng)
    shuffled_form = tree.render(shuffled_kids)
    canonical_form = tree.render(tree.canonical())
    prob = work / "chain68.prob"
    prob.write_text(spec.text(), encoding="utf-8")
    cfg = work / "big.cfg"
    cfg.write_text(tree.config_text(rng), encoding="utf-8")
    problem_args = ["--problem", str(prob)]
    core, order = ttrees.core, ttrees.order

    def replay_check(tracer, parent):
        problem = replay_problem(tracer, parent, ttrees, prob)
        parsed = tracer.timed("core.parse_ttree", parent, core.parse_ttree, canonical_form, problem)
        conforms = tracer.timed("core.ttree_conforms", parent, core.ttree_conforms, parsed, problem)
        verdict = tracer.timed("order.is_canonical", parent, order.is_canonical, parsed)
        tracer.spans[-1]["compare_steps"] = order.is_canonical_counted(parsed)[1]
        replay_print(tracer, parent, ["canonical"])
        # bigtree's CLI calls use no search function: time enumeration of
        # the same problem, and growth at a sample of the big tree's sites.
        pass_id = tracer.spans[parent]["parent"]
        replay_enumerate(tracer, pass_id, ttrees.search.enumerate_canonical(problem), ENUM_SAMPLE)
        sampler = random.Random(seed)
        replay_growth(tracer, pass_id, ttrees, problem, [parsed], None,
                      pick=lambda sites: sampler.sample(sites, min(len(sites), GROWTH_SAMPLE)))
        return [] if conforms and verdict else ["check replay: wrong verdict"]

    def replay_canon(tracer, parent):
        problem = replay_problem(tracer, parent, ttrees, prob)
        parsed = tracer.timed("core.parse_ttree", parent, core.parse_ttree, random_form, problem)
        canon = tracer.timed("order.canonicalize", parent, order.canonicalize, parsed)
        text = tracer.timed("core.render_ttree", parent, core.render_ttree, canon)
        replay_print(tracer, parent, [text])
        return [] if text == canonical_form else ["canon replay: wrong output"]

    def replay_iso(tracer, parent):
        problem = replay_problem(tracer, parent, ttrees, prob)
        left, right = tracer.timed(
            "core.parse_ttree", parent, core.parse_ttrees, [random_form, shuffled_form], problem
        )
        same = tracer.timed("order.isomorphic", parent, order.isomorphic, left, right)
        replay_print(tracer, parent, ["isomorphic"])
        return [] if same else ["iso replay: wrong verdict"]

    def replay_roundtrip(tracer, parent):
        problem = replay_problem(tracer, parent, ttrees, prob)
        config_text = tracer.timed("cli.read", parent, cfg.read_text, encoding="utf-8")
        config = tracer.timed("core.parse_config", parent, core.parse_config, config_text, problem)
        parsed = tracer.timed("core.config_to_ttree", parent, core.config_to_ttree, config)
        back = tracer.timed("core.ttree_to_config", parent, core.ttree_to_config, parsed)
        again = tracer.timed("core.config_to_ttree", parent, core.config_to_ttree, back)
        text = tracer.timed("core.render_ttree", parent, core.render_ttree, parsed)
        replay_print(tracer, parent, [text])
        return [] if again == parsed and text == random_form else ["roundtrip replay: wrong output"]

    calls = [
        Call("check", ["check", *problem_args, canonical_form],
             expect_output("check", 0, "canonical"), replay_check),
        Call("canon", ["canon", *problem_args, random_form],
             expect_output("canon", 0, canonical_form), replay_canon),
        Call("iso", ["iso", *problem_args, random_form, shuffled_form],
             expect_output("iso", 0, "isomorphic"), replay_iso),
        Call("roundtrip", ["roundtrip", *problem_args, str(cfg)],
             expect_output("roundtrip", 0, random_form), replay_roundtrip),
    ]

    def after_setup():
        # The oracle must agree with itself on the shuffled copy.
        recanon = oracle.GeneratedTree(tree.labels, shuffled_kids)
        if recanon.render(recanon.canonical()) != canonical_form:
            return ["oracle: canonical forms of the random and shuffled trees differ"]
        return []

    deep_spec, deep_expr, deep_cfg = oracle.path_tree(DEEP_LEVELS)
    deep_prob = work / "deep.prob"
    deep_prob.write_text(deep_spec.text(), encoding="utf-8")
    deep_cfg_path = work / "deep.cfg"
    deep_cfg_path.write_text(deep_cfg, encoding="utf-8")
    deep_args = ["--problem", str(deep_prob)]

    def same_as(expected):
        return lambda out: [] if out == expected + "\n" else ["wrong output"]

    pmax, kmax = TABLE_PROBE
    probes = [
        Probe("deep-check", ["check", *deep_args, deep_expr], same_as("canonical")),
        Probe("deep-canon", ["canon", *deep_args, deep_expr], same_as(deep_expr)),
        Probe("deep-iso", ["iso", *deep_args, deep_expr, deep_expr], same_as("isomorphic")),
        Probe("deep-roundtrip", ["roundtrip", *deep_args, str(deep_cfg_path)], same_as(deep_expr)),
        Probe("table-csv", ["table", "--pmax", pmax, "--kmax", kmax, "--csv"],
              lambda out: oracle.table_errors(out, int(pmax), int(kmax))),
    ]
    return Inputs(calls, probes, after_setup)


WORKLOADS = {
    "enum-canonical": setup_enum_canonical,
    "enum-all": setup_enum_all,
    "bigtree": setup_bigtree,
}


# --- passes -------------------------------------------------------------------


def run_pass(ttrees, inputs: Inputs, tracer: Tracer | None) -> tuple[dict, int, list[str]]:
    """One pass over the workload's calls: per-command seconds, the number
    of calls that failed, and every problem found."""
    times: dict[str, float] = {}
    problems: list[str] = []
    failed = 0
    pass_id = None
    if tracer is not None:
        pass_id = tracer.add("pass", None, pc(), 0.0)
    for call in inputs.calls:
        gc.collect()
        start = pc()
        code, out, err = invoke(ttrees, call.argv)
        end = pc()
        times[call.command] = times.get(call.command, 0.0) + end - start
        found = call.verify(code, out)
        if err and code != 0:
            found = [f"{p} [{err.strip()[:120]}]" for p in found]
        failed += bool(found)
        problems += found
        del out
        if tracer is not None:
            cli_id = tracer.add(f"cli.{call.command}", pass_id, start, end)
            build_parser = getattr(ttrees.cli, "_build_parser", None)
            if build_parser is not None:
                tracer.timed("cli.argparse", cli_id, lambda: build_parser().parse_args(call.argv))
            problems += call.replay(tracer, cli_id)
    if tracer is not None:
        tracer.spans[pass_id]["end"] = pc()
        tracer.spans[pass_id]["busy_s"] = pc() - tracer.spans[pass_id]["start"]
    return times, failed, problems


def run_probes(ttrees, inputs: Inputs) -> list[dict]:
    results = []
    for probe in inputs.probes:
        code, out, err = invoke(ttrees, probe.argv)
        errors = [f"exit {code}"] if code != 0 else probe.verify(out)
        results.append({"probe": probe.name, "ok": not errors, "errors": errors, "stderr": err.strip()[-200:]})
    return results


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced pass (its `pass` span and all after)."""

    def busy(name):
        return sum(s["busy_s"] for s in spans if s["name"] == name)

    m: dict[str, float] = {}
    # The CLI's own steps are replayed and timed directly: the cli span
    # minus its replayed layer spans would be mostly noise, as the two are
    # timed at different moments.
    m["cli.self_s"] = sum(busy(name) for name in CLI_STEPS)
    for name in LAYER_FUNCTIONS:
        m[f"{name}_s"] = busy(name)
    m["order.compare_steps"] = sum(s.get("compare_steps", 0) for s in spans)
    for function in GROWTH:
        pool = [s for s in spans if s["name"] == f"search.{function}"]
        count = sum(s["calls"] for s in pool)
        m[f"search.{function}.calls"] = count
        m[f"search.{function}.us_per_call"] = 1e6 * sum(s["busy_s"] for s in pool) / count if count else 0.0
    m["search.is_canonical_incremental.accepted"] = sum(s.get("accepted", 0) for s in spans)
    m["trace.wall_s"] = sum(s["busy_s"] for s in spans if s["name"] in CLI_CALLS)
    return m


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per layer inside the CLI calls: each span under a cli
    span, minus its own children, summed by the module its name starts
    with.  The cli span itself is left out: its replayed children were
    timed at other moments."""
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["busy_s"]
    calls = {s["id"] for s in spans if s["name"] in CLI_CALLS}
    totals: dict[str, float] = {}
    for s in spans:
        if s["parent"] in calls:
            layer = s["name"].split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + s["busy_s"] - children.get(s["id"], 0.0)
    return totals


def measure(ttrees, inputs: Inputs, workload: str, seconds: float, trace: bool) -> dict:
    """Untraced passes (and, when tracing, traced passes alternating with
    them) until `seconds` have passed."""
    walls: list[float] = []
    per_call: dict[str, list[float]] = {}
    traced: list[dict] = []
    tracer = Tracer(workload) if trace else None
    problems: list[str] = []
    attempted = failed = 0
    start = pc()
    while True:
        for traced_pass in ((False, True) if trace else (False,)):
            first = len(tracer.spans) if traced_pass else 0
            times, failed_calls, found = run_pass(ttrees, inputs, tracer if traced_pass else None)
            attempted += len(inputs.calls)
            failed += failed_calls
            problems += found
            if traced_pass:
                traced.append(layer_metrics(tracer.spans[first:]))
                continue
            walls.append(sum(times.values()))
            for command, t in times.items():
                per_call.setdefault(command, []).append(t)
        done = len(walls) >= (1 if trace else MIN_PASSES)
        if done and pc() - start >= seconds:
            break
    probes = run_probes(ttrees, inputs)
    result = {
        "wall_s": statistics.median(walls),
        "walls": walls,
        "per_call_s": {c: statistics.median(v) for c, v in per_call.items()},
        "trees_per_pass": sum(call.trees for call in inputs.calls),
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "probes": probes,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        layers = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
        layers["trace.overhead_s"] = layers["trace.wall_s"] - result["wall_s"]
        layers["probe.failures"] = sum(not p["ok"] for p in probes)
        # No workload's CLI calls reach `counting`; time its one public
        # entry point on the table probe's input, in every workload.
        pmax, kmax = map(int, TABLE_PROBE)
        start = pc()
        ttrees.counting.comparison_table(pmax, kmax)
        end = pc()
        tracer.add("counting.comparison_table", None, start, end)
        layers["counting.comparison_table_s"] = end - start
        result["layers"] = layers
        result["layer_self_s"] = self_times(tracer.spans)
        result["spans"] = tracer.spans
    return result


# --- self-check -----------------------------------------------------------------


def corrupted_outputs(call: Call, ttrees) -> list[tuple[str, int, str]]:
    """Wrong answers built from the real output of `call`."""
    code, out, _ = invoke(ttrees, call.argv)
    lines = out.splitlines()
    if call.command == "enum":
        wrong = [
            ("duplicated line", code, "\n".join(lines[:-1] + lines[:1]) + "\n"),
            ("missing line", code, "\n".join(lines[:-1]) + "\n"),
            ("unsorted T-list", code, out.replace("(T1,T1(T2))", "(T1(T2),T1)", 1)),
        ]
    else:
        wrong = [("wrong exit code", 1, out), ("changed output", code, out.replace("T5,T5(T6", "T5(T6),T5", 1))]
    return [w for w in wrong if w[1] != code or w[2] != out]


def self_check() -> int:
    """Every workload on tiny inputs, with checks that must pass and
    corrupted outputs that must be caught."""
    ttrees = import_package()
    failures = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    work = WORK / f"selfcheck-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for workload, setup in WORKLOADS.items():
            for seed in (1903, 7):
                inputs = setup(ttrees, work, seed, tiny=True)
                problems = inputs.after_setup()
                result = measure(ttrees, inputs, workload, 0.0, trace=True)
                problems += result["problems"]
                if set(result["layers"]) != set(declared):
                    problems.append(f"per-layer metrics differ from BENCHMARK.json: "
                                    f"{sorted(set(result['layers']) ^ set(declared))}")
                # A per-layer time that reads 0 on every run would say nothing.
                problems += [f"{name} is 0" for name, unit in declared.items()
                             if unit in ("s", "us") and result["layers"].get(name) == 0]
                for call in inputs.calls:
                    for what, code, out in corrupted_outputs(call, ttrees):
                        if not call.verify(code, out):
                            problems.append(f"{call.command}: {what} was not caught")
                print(f"{workload} seed {seed}: {len(problems)} problems, "
                      f"probe failures {result['layers']['probe.failures']}", file=sys.stderr)
                failures += [f"{workload} seed {seed}: {p}" for p in problems]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(failure, file=sys.stderr)
    print(json.dumps({"self_check": "failed" if failures else "passed"}))
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("run", "setup", "self-check"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1903)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, help="monotonic time the launcher started this process")
    args = parser.parse_args()
    if args.mode == "self-check":
        return self_check()

    work = WORK / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ttrees = import_package()
        inputs = WORKLOADS[args.workload](ttrees, work, args.seed, tiny=False)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s}
        if args.mode == "run":
            problems = inputs.after_setup()
            result.update(measure(ttrees, inputs, args.workload, args.seconds, bool(args.trace)))
            result["problems"] = problems + result["problems"]
            result["int_max_str_digits"] = sys.get_int_max_str_digits()
            result["notes"] = PENDING_COUNTERS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""ttrees benchmark entry point.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-check

Runs one workload in a fresh child process (`workload.py`), one process
at a time.  With `--trace 0` it first starts children that only set up
(at least two, and more until two seconds went to them), so `setup_s` is
the median of several set-ups, each timed from the moment its process was
started until its inputs were ready.  It
prints a human-readable report, writes the full result (environment,
samples, spans) under `.perfbench_runs/`, and ends stdout with one JSON
line: `{"correct", "attempted", "failed", "metrics"}`; the metrics are
the `end_to_end` ones of BENCHMARK.json with `--trace 0` and the
`per_layer` ones with `--trace 1`.

Exits 2 without a result line when the checkout has no `src/ttrees`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import ROOT, SRC, WORK, WORKLOADS

WORKER = Path(__file__).resolve().parent / "workload.py"
SETUP_RUNS = 3  # at least this many set-ups, counting the workload process
SETUP_BUDGET_S = 2.0  # ...and set-up-only processes until this much time went to them
DEADLINE_S = 170

# What each number is for: the end-to-end metric and workload it should move.
NOTES = {
    "setup_s": "import + problem/config files + generated inputs; median over fresh processes",
    "wall_s": "one pass over the workload's CLI calls; median of passes",
    "peak_rss_mib": "ru_maxrss of the workload process",
    "cli.self_s": "the CLI's own steps replayed (argparse, file reads, print); wall_s everywhere, small",
    "core.parse_problem_s": "problem files are tiny; moves nothing",
    "core.parse_ttree_s": "check_s, canon_s, iso_s on bigtree (iso parses twice); enum-*: parse-back, off the CLI path",
    "core.ttree_conforms_s": "check_s on bigtree; enum-*: off the CLI path",
    "core.render_ttree_s": "canon_s, roundtrip_s on bigtree; trees_per_s on enum-*",
    "core.parse_config_s": "roundtrip_s on bigtree; enum-*: off the CLI path",
    "core.config_to_ttree_s": "roundtrip_s on bigtree; enum-*: off the CLI path",
    "core.ttree_to_config_s": "roundtrip_s on bigtree; enum-*: off the CLI path",
    "order.is_canonical_s": "check_s on bigtree (small share: parsing dominates); enum-*: off the CLI path",
    "order.canonicalize_s": "canon_s on bigtree; enum-*: off the CLI path",
    "order.isomorphic_s": "iso_s on bigtree; enum-*: off the CLI path",
    "order.compare_steps": "check_s on bigtree; from is_canonical_counted, repeats exactly",
    "search.enumerate_s": "time inside the enumerator's next(); trees_per_s on enum-*; bigtree: off the CLI path",
    "search.extension_sites.calls": "replayed on the emitted trees; trees_per_s on enum-*",
    "search.extension_sites.us_per_call": "trees_per_s on enum-*",
    "search.apply_extension.calls": "replayed on the emitted trees; trees_per_s on enum-*",
    "search.apply_extension.us_per_call": "trees_per_s on enum-*",
    "search.is_canonical_incremental.calls": "trees_per_s on enum-canonical only",
    "search.is_canonical_incremental.accepted": "extensions the incremental check accepts",
    "search.is_canonical_incremental.us_per_call": "trees_per_s on enum-canonical only",
    "search.canonical_removal.calls": "trees_per_s on enum-canonical only",
    "search.canonical_removal.us_per_call": "trees_per_s on enum-canonical only",
    "counting.comparison_table_s": "table probe input; no workload's CLI calls reach counting",
    "trace.wall_s": "sum of the traced cli spans of one pass",
    "trace.overhead_s": "trace.wall_s minus untraced wall_s; nothing runs inside the CLI calls, so noise around 0",
    "probe.failures": "legal inputs that crash or exit wrongly (bigtree); falls as fixes land",
}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child(args, mode: str, deadline: float) -> dict:
    """Start one workload process, wait for it, return its JSON line."""
    argv = [sys.executable, str(WORKER), "--mode", mode]
    if mode != "self-check":
        argv += ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
    argv += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{mode} process exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def report(name: str, value, unit: str) -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:44} {shown:>14} {unit:8} {NOTES.get(name, '')}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1903)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="tiny inputs, every check, and corrupted outputs that must be caught")
    args = parser.parse_args()
    if not (SRC / "ttrees" / "cli.py").is_file():
        print(f"error: no ttrees package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.self_check:
        undocumented = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]} - set(NOTES)
        if undocumented:
            print(f"self-check: no note for {sorted(undocumented)}", file=sys.stderr)
        passed = child(args, "self-check", deadline)["self_check"] == "passed"
        return 0 if passed and not undocumented else 1
    if args.workload is None:
        parser.error("--workload is required")

    setups: list[float] = []
    started = time.monotonic()
    while not args.trace and (len(setups) < SETUP_RUNS - 1 or time.monotonic() - started < SETUP_BUDGET_S):
        setups.append(child(args, "setup", deadline)["setup_s"])
    result = child(args, "run", deadline)
    setups.append(result["setup_s"])

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "int_max_str_digits": result["int_max_str_digits"],
        "machine": platform.machine(),
    }
    measured = result["layers"] if args.trace else {
        "setup_s": statistics.median(setups),
        "wall_s": result["wall_s"],
        "peak_rss_mib": result["peak_rss_mib"],
    }
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    probe_failures = sum(not p["ok"] for p in result["probes"])
    print(f"workload {args.workload} · seed {args.seed} · trace {args.trace} · "
          + " · ".join(f"{k} {v}" for k, v in env.items() if k != "seed"))
    print(f"  {len(result['walls'])} untraced passes: " + ", ".join(f"{w:.3f}s" for w in result["walls"]))
    if args.trace:
        for m in wanted:
            report(m["name"], measured[m["name"]], m["unit"])
        print("  self time under the cli spans: "
              + ", ".join(f"{layer} {t:.4f}s" for layer, t in sorted(result["layer_self_s"].items())))
    else:
        for name in ("setup_s", "wall_s"):
            report(name, measured[name], "s")
        if result["trees_per_pass"]:
            report("trees_per_s", result["trees_per_pass"] / result["per_call_s"]["enum"], "trees/s")
        for command in ("check", "canon", "iso", "roundtrip"):
            if command in result["per_call_s"]:
                report(f"{command}_s", result["per_call_s"][command], "s")
        report("peak_rss_mib", measured["peak_rss_mib"], "MiB")
        report("error_rate", result["failed"] / result["attempted"], "ratio")
    if result["probes"]:
        report("probe_failures", probe_failures, "count")
        for p in result["probes"]:
            if not p["ok"]:
                print(f"    probe {p['probe']} failed: {'; '.join(p['errors'])} {p['stderr'][-120:]}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    print(f"  note: {result['notes']}")

    WORK.mkdir(exist_ok=True)
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    out.write_text(json.dumps({"env": env, "setup_samples_s": setups, "metrics": metrics, "result": result}))
    print(json.dumps({
        "correct": not result["problems"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

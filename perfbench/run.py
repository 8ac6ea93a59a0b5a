"""The exchbound benchmark.

    python3 perfbench/run.py --workload verify-auto --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``verify-auto``   ``exchbound verify`` on the standard suite, M in
  {1,2,5,10,50,200}, ``auto:10`` deviations, both sides, 10^5
  replications, method auto, 1 thread: 600 cells;
* ``verify-mc``     the same cells with ``--method montecarlo``;
* ``verify-mc-par`` as ``verify-mc`` with EXCHBOUND_THREADS=nproc;
* ``replay-hist``   per-observation ``sample_sequence`` replays at M=3 and
  sample-mean histograms of a Beta+Bernoulli mixture at M=10 and M=200.

The seed addresses every random stream of the run (``--seed`` of the
verify command, the replay and histogram master seeds); models and grids
are fixed.  Passes run one after another, each in a fresh interpreter
(``child.py``), until ``--seconds`` have passed; set-up is timed in at
least three.  End-to-end times are medians over passes, scaled to a
reference machine speed (see ``calibration.py``).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs the same untraced passes, then one traced pass, and
prints the per-layer metrics: shares of self time and call counts from
the traced pass (``tracing.py``), timings from the layer cases
(``cases.py``), and the tracing overhead, the traced pass's wall time
minus the median untraced one.  Every time, end-to-end or per-layer, is
at the reference speed, so a share times ``trace.wall_s`` is comparable
with a layer case's time.  Spans go to ``perfbench/out``.

Every pass checks its outputs (see ``checks.py``); ``correct`` is false
if any check fails or passes of one seed disagree.  Each run writes
``perfbench/out/BENCH_<n>.json`` with its environment and prints the
change against the previous result of the same workload and mode.
``--smoke`` runs toy sizes, so the harness can be tested in seconds.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import at_reference
from workloads import WORKLOADS, nproc, threads_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TIME_LIMIT_S = 170  # the whole run, traced pass included
SETUPS = 3  # set-up is timed at least this often per run, for a steady median
TIME_UNITS = ("s", "ms", "us", "ns")


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def _git_sha() -> str:
    """HEAD of the checkout; git is not asked to look above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _pass(args, work: Path, deadline: float, trace_out: Path | None = None,
          setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work)]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ, EXCHBOUND_THREADS=str(threads_for(args.workload)))
    env.pop("PYTHONPATH", None)  # the pass imports exchbound from this checkout only
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a pass could start")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the pass
        raise BenchError(f"a pass exceeded the {TIME_LIMIT_S} s limit of the run")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _median(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def _end_to_end(passes: list[dict], setups: list[dict]) -> dict:
    return {
        "wall_s": statistics.median(at_reference(p["wall_s"], p["kernel_s"]) for p in passes),
        "setup_s": statistics.median(
            at_reference(p["setup_s"], p["kernel_setup_s"]) for p in setups),
        "peak_rss_mb": _median(passes, "peak_rss_mb"),
        "cpu_util": statistics.median(p["cpu_s"] / (p["wall_s"] * p["threads"]) for p in passes),
    }


def _cell_fractions(passes: list[dict]) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    return {
        "failed_frac": sum(p["failed"] for p in passes) / attempted,
        "exact_frac": sum(p["exact"] for p in passes) / attempted,
    }


def _previous(record: dict) -> tuple[Path, dict] | None:
    best = None
    for path in OUT.glob("BENCH_*.json"):
        try:
            old = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        same = all(old.get(k) == record[k] for k in ("workload", "trace", "smoke"))
        if same and (best is None or old["n"] > best[1]["n"]):
            best = (path, old)
    return best


def _save(record: dict) -> Path:
    numbers = [int(p.stem.split("_")[1]) for p in OUT.glob("BENCH_*.json")
               if p.stem.split("_")[1].isdigit()]
    record["n"] = max(numbers, default=0) + 1
    path = OUT / f"BENCH_{record['n']}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def _print_report(record: dict, previous) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {record['passes']}  threads {record['env']['threads']}  "
          f"correct {record['correct']}")
    rows = dict(record["metrics"])
    if not record["trace"]:  # checked, but not gated: both are 0 on some workloads
        rows.update({k: {"value": v, "unit": "ratio"} for k, v in record["cells"].items()})
    old = previous[1]["metrics"] if previous else {}
    for name, metric in rows.items():
        line = f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}"
        before = old.get(name, {}).get("value")
        if before:
            line += f"   was {before:.6g} ({(metric['value'] - before) / before:+.1%})"
        print(line)
    if previous:
        print(f"  (change against {previous[0].name})")
    for problem in record["problems"][:20]:
        print(f"  CHECK FAILED: {problem}")


def run(args) -> dict:
    if not (ROOT / "src" / "exchbound" / "__init__.py").is_file():
        raise BenchError(f"no exchbound sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        passes = []
        while not passes or time.monotonic() - start < args.seconds:
            passes.append(_pass(args, work, deadline))
        setups = list(passes)
        while len(setups) < SETUPS:
            setups.append(_pass(args, work, deadline, setup_only=True))
        traced = None
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-{args.seed}-{os.getpid()}.jsonl"
            traced = _pass(args, work, deadline, trace_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = passes + ([traced] if traced else [])
    problems = [p for one in every for p in one["problems"]]
    if len({one["digest"] for one in every}) > 1:
        problems.append("passes with the same seed produced different outputs")
    cells = _cell_fractions(passes)
    if traced is None:
        values = _end_to_end(passes, setups)
    else:
        units = {m["name"]: m["unit"] for m in wanted}
        speed = at_reference(1.0, traced["kernel_cases_s"])
        values = dict(traced["layers"])
        values.update({k: v * speed if units.get(k) in TIME_UNITS else v
                       for k, v in traced["cases"].items()})
        untraced = _end_to_end(passes, setups)["wall_s"]
        traced_wall = at_reference(traced["wall_s"], traced["kernel_s"])
        values.update({
            "cli.setup.import_s": statistics.median(
                at_reference(p["import_s"], p["kernel_setup_s"]) for p in setups),
            "cli.setup.parse_ms": statistics.median(
                at_reference(p["parse_ms"], p["kernel_setup_s"]) for p in setups),
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced,
            "trace.overhead_s": traced_wall - untraced,
            "cells.failed_frac": cells["failed_frac"],
            "cells.exact_frac": cells["exact_frac"],
        })
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds, "passes": len(passes),
        "env": {**passes[0]["env"], "nproc": nproc(), "threads": passes[0]["threads"],
                "machine": platform.machine(), "git_sha": _git_sha(),
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())},
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in every),
        "failed": sum(p["failed"] for p in every),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        "cells": cells,
        "raw": {key: [p[key] for p in passes] for key in ("wall_s", "kernel_s")}
        | {key: [p[key] for p in setups] for key in ("setup_s", "kernel_setup_s")},
        "problems": problems,
    }
    previous = _previous(record)
    _save(record)
    _print_report(record, previous)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one exchbound benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the harness test")
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

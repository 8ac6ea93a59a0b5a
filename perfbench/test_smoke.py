"""Smoke test of the benchmark harness, at toy sizes.

    python3 -m pytest perfbench -q

Runs every workload untraced and traced with ``--smoke``, so the
harness, its output checks and its metric names cannot rot.  The full
benchmark stays out of the test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# per-layer metrics that are 0 when a traced boundary is lost
CROSSED = {
    "verify-auto": ("calls.bounds.tail_bound_report", "calls.oracle.binomial",
                    "calls.oracle.convolution", "calls.oracle.quadrature",
                    "oracle.exact_ratio", "montecarlo.pool_efficiency"),
    "verify-mc": ("calls.bounds.tail_bound_report", "calls.montecarlo.estimate_tail",
                  "montecarlo.pool_efficiency", "share.sampler"),
    "verify-mc-par": ("calls.bounds.tail_bound_report", "calls.montecarlo.estimate_tail",
                      "montecarlo.pool_efficiency", "share.sampler"),
    "replay-hist": ("calls.sampler.sample_sequence", "share.sampler"),
}


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_runs_and_passes_its_checks(workload, trace):
    proc = _run(HERE.parent, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    else:  # the traced pass still crosses the boundaries its workload loads
        for name in CROSSED[workload]:
            assert values[name] > 0, name


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "verify-auto", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_matches_a_fresh_exact_computation():
    stored = reference.load()
    for model_id, M, side, t, p, valid in reference.cells():
        assert stored[(model_id, M, side, t)] == (p, valid)


def test_self_time_subtracts_the_union_of_overlapping_children():
    ms = 1_000_000
    spans = [
        tracing.Span(1, "run_sweep", "montecarlo", 0, 10 * ms, None),
        tracing.Span(2, "exact_tail", "oracle", 1 * ms, 5 * ms, 1),
        tracing.Span(3, "exact_tail", "oracle", 3 * ms, 7 * ms, 1),  # another pool thread
        tracing.Span(4, "summarize", "model", 2 * ms, 3 * ms, 2),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({1: 0.004, 2: 0.003, 3: 0.004, 4: 0.001})

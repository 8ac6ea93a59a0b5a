"""What each workload runs: its models, grids and sizes.

Shared by the runner (``run.py``), the passes (``child.py``) and the
reference generator (``reference.py``).  Imports nothing outside the
standard library, so the runner stays free of numpy and scipy.

Models are written out as model files in the CLI's JSON schema, so the
program receives only generated inputs: model files, grids and seeds.
The five verify models are the standard suite, kept here rather than
taken from ``exchbound.suite`` so that a change to the library cannot
silently change what the benchmark measures.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

SUITE = (
    ("bern03", {"type": "finite", "atoms": [
        {"weight": 1.0, "component": {"kind": "bernoulli", "p": 0.3}}]}),
    ("two_atom", {"type": "finite", "atoms": [
        {"weight": 0.5, "component": {"kind": "bernoulli", "p": 0.2}},
        {"weight": 0.5, "component": {"kind": "bernoulli", "p": 0.8}}]}),
    ("three_atom_discrete", {"type": "finite", "atoms": [
        {"weight": 0.3, "component": {"kind": "bernoulli", "p": 0.25}},
        {"weight": 0.3, "component": {"kind": "discrete", "points": [0.0, 0.5, 1.0],
                                       "weights": [0.2, 0.3, 0.5]}},
        {"weight": 0.4, "component": {"kind": "pointmass", "c": 0.5}}]}),
    ("zero_one", {"type": "finite", "atoms": [
        {"weight": 0.5, "component": {"kind": "pointmass", "c": 0.0}},
        {"weight": 0.5, "component": {"kind": "pointmass", "c": 1.0}}]}),
    ("uniform_param", {"type": "bernoulli_param",
                       "density": {"kind": "uniform", "lo": 0.2, "hi": 0.8}}),
)

# replay-hist: the histogram model mixes a continuous (Beta) and a
# lattice (Bernoulli) component, so both per-component sampling paths run.
MIXTURE = ("beta_bernoulli", {"type": "finite", "atoms": [
    {"weight": 0.6, "component": {"kind": "beta", "alpha": 2.0, "beta": 5.0}},
    {"weight": 0.4, "component": {"kind": "bernoulli", "p": 0.7}}]})
REPLAY_MODEL = "three_atom_discrete"
REPLAY_M = 3

M_GRID = (1, 2, 5, 10, 50, 200)
T_GRID = "auto:10"
T_AUTO_N = 10


class Sizes:
    """Work per pass; ``smoke`` shrinks it so the harness runs in seconds."""

    def __init__(self, smoke: bool):
        self.m_grid = (1, 2) if smoke else M_GRID
        self.reps = 2_000 if smoke else 100_000
        self.sequences = 300 if smoke else 10_000
        self.hist_reps = {10: 2_000, 200: 1_000} if smoke else {10: 1 << 17, 200: 1 << 16}
        self.hist_bins = 1_000
        self.case_reps = 2_000 if smoke else 1 << 16  # one Monte Carlo block
        self.case_sequences = 200 if smoke else 2_000


# method and thread count per verify workload; None threads means nproc
WORKLOADS = {
    "verify-auto": {"kind": "verify", "method": "auto", "threads": 1},
    "verify-mc": {"kind": "verify", "method": "montecarlo", "threads": 1},
    "verify-mc-par": {"kind": "verify", "method": "montecarlo", "threads": None},
    "replay-hist": {"kind": "replay", "threads": 1},
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def threads_for(workload: str) -> int:
    return WORKLOADS[workload]["threads"] or nproc()


def write_models(work: Path, workload: str) -> list[Path]:
    """Write the workload's model files into ``work``; return their paths."""
    if WORKLOADS[workload]["kind"] == "verify":
        docs = SUITE
    else:
        docs = (MIXTURE,) + tuple(d for d in SUITE if d[0] == REPLAY_MODEL)
    paths = []
    for model_id, doc in docs:
        path = work / f"{model_id}.json"
        path.write_text(json.dumps(doc))
        paths.append(path)
    return paths


def cli_argv(workload: str, seed: int, sizes: Sizes, models: list[Path], out: Path) -> list[str]:
    """The exchbound command line whose parsing is part of set-up.

    For verify workloads this is also the command the pass runs.  The
    replay pass calls library functions directly; its set-up parses the
    equivalent ``histogram`` command.
    """
    spec = WORKLOADS[workload]
    if spec["kind"] == "verify":
        argv = ["verify"]
        for path in models:
            argv += ["--model", str(path)]
        return argv + [
            "--m-grid", *map(str, sizes.m_grid), "--t-grid", T_GRID,
            "--side", "both", "--reps", str(sizes.reps), "--seed", str(seed),
            "--method", spec["method"], "--format", "csv", "--out", str(out),
        ]
    return [
        "histogram", "--model", str(models[0]), "--m", "200",
        "--reps", str(sizes.hist_reps[200]), "--bins", str(sizes.hist_bins),
        "--seed", str(seed), "--format", "csv",
    ]

"""One pass of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  A fresh interpreter
per pass makes every pass pay set-up as a user's ``exchbound`` run does,
and keeps caches the library may build in one pass out of the next.

The pass times set-up (import exchbound, parse the command line, build
the models), then the workload, then checks the outputs untimed; with
``--setup-only`` it stops after set-up.  A traced pass records spans at
the layer boundaries and runs the layer cases (``cases.py``) afterwards.  The last line
of standard output is a JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import calibration
import checks
from workloads import (
    MIXTURE, REPLAY_M, REPLAY_MODEL, WORKLOADS, Sizes, cli_argv, threads_for, write_models,
)

SRC = Path(__file__).resolve().parent.parent / "src"

def _import_library():
    sys.path.insert(0, str(SRC))
    import exchbound
    import exchbound.cli  # noqa: F401  (part of what a user's run imports)

    if Path(exchbound.__file__).resolve().parent != SRC / "exchbound":
        sys.exit(f"exchbound imported from {exchbound.__file__}, not from {SRC}")
    return exchbound


def _verify_pass(argv: list[str]) -> tuple[int, str]:
    from exchbound import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _replay_pass(models: dict, sizes: Sizes, seed: int):
    """sample_sequence replays, then the two histograms.

    Library functions are looked up on their modules at call time, so a
    traced pass sees them through its span wrappers.
    """
    from exchbound import montecarlo, sampler
    from exchbound.sampler import SeedSpec

    three, mixture = models[REPLAY_MODEL], models[MIXTURE[0]]
    counts: Counter = Counter()
    failed = 0
    for i in range(sizes.sequences):
        try:
            batch = sampler.sample_sequence(three, REPLAY_M, SeedSpec(seed, i))
        except Exception:  # a raised call is a failed operation, not a crash
            failed += 1
            continue
        counts[tuple(batch.values.tolist())] += 1
    hists = {}
    for M, reps in sizes.hist_reps.items():
        try:
            hists[M] = montecarlo.sample_mean_histogram(mixture, M, reps, sizes.hist_bins, seed)
        except Exception:
            failed += 1
    return counts, hists, failed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sizes = Sizes(args.smoke)
    kind = WORKLOADS[args.workload]["kind"]
    model_paths = write_models(args.work, args.workload)
    report_path = args.work / f"report-{os.getpid()}.csv"
    argv = cli_argv(args.workload, args.seed, sizes, model_paths, report_path)

    # set-up: import, parse, build the models
    t0 = time.perf_counter()
    exchbound = _import_library()
    t1 = time.perf_counter()
    exchbound.cli.build_parser().parse_args(argv)
    t2 = time.perf_counter()
    models = {p.stem: exchbound.cli.load_model_file(str(p)) for p in model_paths}
    t3 = time.perf_counter()

    import numpy
    import scipy

    result = {
        "import_s": t1 - t0,
        "parse_ms": (t2 - t1) * 1e3,
        "setup_s": t3 - t0,
        "threads": threads_for(args.workload),
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__, "exchbound": exchbound.__version__},
    }

    # the kernel right after set-up scales set-up time; with the one after
    # the workload it scales the workload's wall time, and that one with one
    # after the layer cases scales the cases' times (see calibration.py)
    result["kernel_setup_s"] = kernel_before = calibration.kernel_time()
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    installed = contextlib.nullcontext()
    if args.trace_out is not None:
        import tracing

        tracer = tracing.Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        installed = tracing.patched(tracer)

    # the workload
    root = ("cli.main", "cli") if kind == "verify" else ("replay", "bench")
    with installed:
        span = tracer.span(*root) if tracer else contextlib.nullcontext()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        with span:
            if kind == "verify":
                outcome = _verify_pass(argv)
            else:
                outcome = _replay_pass(models, sizes, args.seed)
        result["wall_s"] = time.perf_counter() - wall0
        result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    kernel_after = calibration.kernel_time()
    result["kernel_s"] = 0.5 * (kernel_before + kernel_after)

    # checks, untimed
    if kind == "verify":
        rc, stdout = outcome
        checked = checks.check_verify(report_path, stdout, rc, sizes.reps, sizes.m_grid)
        report_path.unlink(missing_ok=True)
        result.update(attempted=checked.pop("cells"), **checked)
    else:
        counts, hists, failed = outcome
        law = exchbound.joint_law(models[REPLAY_MODEL], REPLAY_M)
        checked = checks.check_replay(counts, sizes.sequences, REPLAY_M, law, hists,
                                      sizes.hist_reps)
        attempted = sizes.sequences + len(sizes.hist_reps)
        result.update(attempted=attempted, failed=failed, exact=0, **checked)

    if tracer is not None:
        import cases
        import tracing

        tracer.write(args.trace_out)
        if kind == "verify":
            crossings = {"run_sweep": None, "write_report": 1,
                         "tail_bound_report": result["attempted"],
                         "exact_tail": result["exact"],
                         "estimate_tail": result["attempted"] - result["exact"]}
        else:
            crossings = {"sample_sequence": sizes.sequences,
                         "sample_mean_histogram": len(sizes.hist_reps)}
        if not result["failed"]:  # with failed cells the pass reports those instead
            tracing.check_crossings(tracer, crossings)
        result["layers"] = tracing.pass_metrics(tracer, result["threads"])
        result["cases"] = cases.run(sizes, args.seed, args.work)
        result["kernel_cases_s"] = 0.5 * (kernel_after + calibration.kernel_time())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

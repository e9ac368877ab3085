"""Benchmark command: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload grid_point --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ./src.  With
--trace 0 the last line of standard output is the end-to-end result; with
--trace 1 it holds the per-layer metrics of a traced run.  Each run also writes
a record with the machine facts to perfbench/results/, and the traced run its
spans beside it.  Workloads are described in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def _limit_threads():
    """At most one thread per core, BLAS included; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cores)
    return cores


def _import_program():
    src = ROOT / "src"
    if not (src / "radden" / "__init__.py").is_file():
        raise SystemExit(f"no radden sources under {src}; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(src))
    import radden
    if Path(radden.__file__).resolve().parent != src / "radden":
        raise SystemExit(f"imported radden from {radden.__file__}, not {src}")
    import workloads
    return workloads


def _machine_facts(cores):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": cores, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def _attempt(workload, state):
    """One operation: (result or None if it raised, seconds)."""
    t0 = time.perf_counter()
    try:
        result = workload.op(state)
    except Exception:
        traceback.print_exc()
        result = None
    return result, time.perf_counter() - t0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cores = _limit_threads()
    t_import = time.perf_counter()
    workloads = _import_program()
    import_s = time.perf_counter() - t_import
    from tracing import Tracer, layer_metrics
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    # A traced run traces its set-up and its rounds, and sets up only once.
    tracer = Tracer() if args.trace else None
    traced = tracer.installed if tracer else contextlib.nullcontext
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    setup_times = []
    for _ in range(1 if tracer else workload.setup_repeats):
        state = None  # one set-up in memory at a time
        t0 = time.perf_counter()
        with traced(), span("bench.setup"):
            state = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
    setup_root = 0

    # Whole rounds until --seconds have passed, at least min_rounds.  Each
    # round's outputs are checked outside the timed region, then dropped.
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": _machine_facts(cores)}
    op_times, failed, checked, figures, reference = [], 0, 0, {}, None
    start = time.perf_counter()
    while (len(op_times) < workload.min_rounds
           or time.perf_counter() - start < args.seconds):
        op_root = len(tracer.spans) if tracer else None
        with traced(), span("bench.op"):
            result, seconds = _attempt(workload, state)
        op_times.append(seconds)
        if result is None:
            failed += workload.ops_per_round
            continue
        try:
            workload.check_inputs(state, result)
            reference = reference or workloads.reference_figures(result)
            figures = workloads.evaluate(result, args.seed, reference)
            checked += 1
        except workloads.checks.CheckFailed as exc:
            record["check_failed"] = str(exc)
            print(f"check failed: {exc}", file=sys.stderr)
        result = None
    correct = checked > 0 and "check_failed" not in record
    record.update({"attempted": len(op_times) * workload.ops_per_round,
                   "failed": failed, "op_times_s": op_times,
                   "setup_times_s": setup_times, "import_s": import_s})
    record["figures"] = figures

    if tracer:
        layer = layer_metrics(tracer.spans, setup_root, op_root)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "op_s": (statistics.median(op_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        for name in workloads.ALGORITHMS:
            key = f"ssim_ad.{name}"
            if key in figures:
                metrics[key] = (figures[key], "ssim")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["metrics"] = metrics

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write_spans(RESULTS / f"{stem}.spans.jsonl")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"machine": record["machine"], "figures": figures}))
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

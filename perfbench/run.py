#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload pyramid_nearest --seed 1 --seconds 10 --trace 0

Runs one workload on a 4-CPU local Ray session, closed loop (one caller,
one job at a time), for at least ``--seconds`` of timed work in whole
rounds, checks every output apart from the engine, and prints one JSON
result as the last stdout line. ``--trace 1`` instead runs the traced
layer suite (pyramid stages, resume, single-core kernels and the query
list, each under a span) and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402

sys.path[1:1] = [harness.ROOT, os.path.join(harness.ROOT, "tools")]

WORKLOADS = ("pyramid_nearest", "query_sweep")
#: input generation is repeated this many times; setup_s takes the median
SETUP_REPS = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def _median(xs):
    xs = sorted(xs)
    n = len(xs)
    return xs[n // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2])


def run_workload(run, args):
    import inputs
    import pyramid_suite
    import query_suite
    import trace

    traced = args.trace == 1
    tracer = trace.Tracer() if traced else trace.NullTracer()
    suites = []
    if traced or args.workload == "pyramid_nearest":
        suites.append(pyramid_suite.PyramidNearest(run, tracer, args.seed, traced))
    if traced or args.workload == "query_sweep":
        suites.append(query_suite.QuerySweep(run, tracer, args.seed))

    # --- set-up: session + warm-up, then seeded inputs (median of reps) ---
    t0 = time.monotonic()
    run.start_ray()
    t_session = time.monotonic() - t0

    def make(rep):
        root = os.path.join(run.dir, f"inputs{rep}")
        for s in suites:
            s.setup(root)

    t_inputs = _median(inputs.timed_setup(make, 1 if traced else SETUP_REPS))
    setup_s = t_session + t_inputs
    _log(f"set-up: session {t_session:.2f} s, inputs {t_inputs:.2f} s (median)")
    for s in suites:
        if hasattr(s, "load"):
            s.load()

    # --- timed rounds -------------------------------------------------------
    walls = []
    if traced:
        for s in suites:
            s.round(0)
    else:
        (suite,) = suites
        while True:
            with run.mem_window():
                walls.append(suite.round(len(walls)))
            if sum(walls) >= args.seconds:
                break

    _log(f"timed rounds: {[round(w, 2) for w in walls]}")

    # --- checks, outside the timed calls ----------------------------------
    t0 = time.monotonic()
    errors = []
    for s in suites:
        errors += s.check()
    _log(f"checks: {time.monotonic() - t0:.2f} s, {len(errors)} errors")
    if traced:
        import checks
        import kernels

        pyr = suites[0]
        out = pyr.rounds[0][0]
        errors += kernels.run_kernels(
            tracer, pyr.table, checks.read_levels(out), pyr.z_base, pyr.z_min, run.dir
        )
        metrics = trace.per_layer_metrics(tracer, query_suite.QUERIES)
        os.makedirs(harness.TRACE_DIR, exist_ok=True)
        tracer.dump(os.path.join(
            harness.TRACE_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}.json"))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "job_s": {"value": _median(walls), "unit": "s"},
            "peak_mem_mb": {"value": run.peak_mem_mb, "unit": "MB"},
        }
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    return harness.result(not errors, run.attempted, run.failed, metrics)


def main(argv=None):
    args = parse_args(argv)
    try:
        import tilers_tools_ray  # noqa: F401
    except ImportError as e:
        print(f"cannot import the package under test: {e}", file=sys.stderr)
        return 2
    run = harness.Run()
    res = None
    try:
        res = run_workload(run, args)
    except Exception:  # noqa: BLE001 - report, then decide on the exit code
        traceback.print_exc()
        if run.failed:
            res = harness.result(False, run.attempted, run.failed, {})
    finally:
        run.close()
    if res is None:
        return 1
    harness.emit(res)
    return 0


if __name__ == "__main__":
    sys.exit(main())

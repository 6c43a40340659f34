"""One repetition of a workload in a fresh interpreter.

Started by ``run.py``; prints one JSON report as its last stdout line.
Set-up is timed from ``--t0``, the parent's monotonic clock reading taken
just before it started this process, to the first timed operation.
Operations run one at a time, either while the next one is expected to
end within ``--budget`` seconds, or a fixed number of them: as many as
nominally take ``--ops-for`` seconds, so that the count depends only on
the arguments.  At least one runs.  Output checks run between operations, outside the timed
region.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    threads = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"numpy": np.__version__, "blas": name, "blas_threads": threads}


def run_ops(workload, args, report: dict, tracer, clock) -> tuple[float, float]:
    """Timed operations with their checks; returns the (start, end) of the
    operation phase on the perf_counter clock.  Operation times are taken on
    the program clock, which leaves out reference loops."""
    from polarkit import complexity
    from workloads import digest

    golden = json.loads((HERE / "digests.json").read_text()).get(args.workload)
    cache = complexity.total_complexity_cached
    spent, j = 0.0, 0
    start = time.perf_counter()
    report["setup_s"] = time.monotonic() - args.t0
    fixed_ops = None if args.ops_for is None else max(1, int(args.ops_for / workload.op_seconds))
    while j < fixed_ops if fixed_ops else (j == 0 or spent * (j + 1) / j <= args.budget):
        info0 = cache.cache_info()
        clock.start_op()
        t0 = clock.now()
        try:
            out = workload.run(args.seed, args.rep, j)
            error = None
        except Exception:  # a raised exception is a failed operation
            error = traceback.format_exc()
        dt = clock.now() - t0
        clock.end_op(0 if error else workload.work(out))
        info1 = cache.cache_info()
        spent += dt
        if tracer:
            tracer.active = False
        if error:
            report["failed_ops"] += 1
            report["problems"].append(error)
            report["ops"].append([dt, 0])
        else:
            report["cache"][0] += info1.hits - info0.hits
            report["cache"][1] += info1.misses - info0.misses
            problems = workload.check(out)
            if args.rep == j == 0:
                got = digest(workload.output(out))
                if got != golden:
                    report["fatal"].append(f"golden output digest {got} != recorded {golden}")
            if problems:
                report["failed_ops"] += 1
                report["problems"] += problems
            for k, v in workload.tally(out).items():
                report["tally"][k] = report["tally"].get(k, 0) + v
            report["ops"].append([dt, workload.work(out)])
        if tracer:
            tracer.active = True
        j += 1
    return start, time.perf_counter()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--budget", type=float)
    ap.add_argument("--ops-for", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    import polarkit

    if Path(polarkit.__file__).resolve().parent != SRC / "polarkit":
        raise SystemExit(f"polarkit imported from {polarkit.__file__}, not from {SRC}")

    import tracing
    from refclock import RefClock
    from workloads import WORKLOADS, check_pinned_totals

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install_all(tracer)
        tracer.active = True
    workload = WORKLOADS[args.workload]()
    # reference samples only in timed runs; a traced run times spans itself
    workload.clock = clock = RefClock(enabled=not args.trace)
    report: dict = {"ops": [], "failed_ops": 0, "problems": [], "fatal": [], "tally": {}, "cache": [0, 0]}
    report["unit"] = workload.unit
    report["fatal"] += check_pinned_totals()
    workload.setup()
    counts_at_ops = dict(tracer.counts) if tracer else {}
    start, end = run_ops(workload, args, report, tracer, clock)
    if tracer:
        tracer.active = False
    if hasattr(workload, "final_check"):
        report["fatal"] += workload.final_check()

    report["segments"] = clock.segments
    report["loop_s"] = clock.loop_s
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["machine"] = machine_facts()
    if tracer:
        report["trace"] = {
            "ops": tracer.summary(start, end),
            "setup": tracer.summary(0.0, start),
            "counts": {k: v - counts_at_ops.get(k, 0) for k, v in tracer.counts.items()},
        }
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(report))


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    main()

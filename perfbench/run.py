"""polarkit benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S]
    python3 perfbench/run.py --selftest

Runs from the root of a polarkit source tree, importing ``src/polarkit``.
A closed loop: one repetition at a time, each a fresh interpreter
(``worker.py``) that sets up and then runs one operation at a time, so
the library's ``lru_cache``s start cold in every repetition.  With
``--trace 0`` the repetitions run until ``--seconds`` of operation time is
spent and the end-to-end metrics are printed, throughput counted in
reference seconds (``refclock.py``); with ``--trace 1`` a fixed
number of operations runs once untraced and once traced, and the per-layer
metrics are printed.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  Metric names and units come from ``BENCHMARK.json``.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

#: Repetitions a timed run aims for; set-up time is their median.
REPETITIONS = 6
#: Spans whose busy time is taken from set-up rather than the operations.
SETUP_SPANS = {"codec.build_link_tables", "codec.select_frozen_set"}
#: Every repetition must end this many seconds after the run started.
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def proc_facts() -> dict:
    """Load average and steal ticks (all CPUs) from /proc, where readable."""
    facts = {}
    try:
        facts["loadavg"] = Path("/proc/loadavg").read_text().split()[:3]
        cpu = Path("/proc/stat").read_text().splitlines()[0].split()
        facts["steal_ticks"] = int(cpu[8])
    except (OSError, IndexError, ValueError):
        pass
    return facts


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def child(workload: str, seed: int, rep: int, trace: int, deadline: float, budget=None, ops_for=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # one client, one thread: no BLAS worker threads competing on a small machine
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--rep", str(rep)]
    cmd += ["--trace", str(trace)]
    if budget is not None:
        cmd += ["--budget", repr(budget)]
    if ops_for is not None:
        cmd += ["--ops-for", repr(ops_for)]
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(OUT / f"spans-{workload}-seed{seed}.jsonl.gz")]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - t0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} repetition {rep} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tally(reps: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems); a run-level problem fails every operation."""
    attempted = sum(len(r["ops"]) for r in reps)
    failed = sum(r["failed_ops"] for r in reps)
    fatal = [p for r in reps for p in r["fatal"]]
    problems = fatal + [p for r in reps for p in r["problems"]]
    return attempted, attempted if fatal else failed, problems


def timed_run(workload: str, seed: int, seconds: float, deadline: float) -> tuple[list[dict], dict]:
    """Repetitions until `seconds` of operation time; end-to-end values."""
    slice_s = seconds / REPETITIONS
    reps: list[dict] = []
    spent = 0.0
    while not reps or seconds - spent > slice_s / 2:
        reps.append(child(workload, seed, len(reps), 0, deadline, budget=min(slice_s, seconds - spent)))
        spent += sum(dt for dt, _ in reps[-1]["ops"])
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        "work_per_ref_s": work_per_ref_s([seg for r in reps for seg in r["segments"]]),
    }
    return reps, values


def work_per_ref_s(segments: list) -> float:
    """Work over program time in reference seconds (see refclock.py)."""
    return sum(w for _, w, _ in segments) / sum(ref for _, _, ref in segments)


def traced_run(workload: str, seed: int, seconds: float, deadline: float) -> tuple[list[dict], dict]:
    """The same fixed operations untraced, then traced; per-layer values."""
    plain = child(workload, seed, 0, 0, deadline, ops_for=0.4 * seconds)
    traced = child(workload, seed, 0, 1, deadline, ops_for=0.4 * seconds)
    tr = traced["trace"]
    hits, misses = traced["cache"]
    t = traced["tally"]

    def ratio(a, b):
        return a / b if b else 0.0

    derived = {
        "trace.overhead_ratio": statistics.median(t / p for (t, _), (p, _) in zip(traced["ops"], plain["ops"])),
        "search.feasible_ratio": ratio(t.get("feasible", 0), t.get("trials", 0)),
        "complexity.cache_lookups": hits + misses,
        "complexity.cache_hit_ratio": ratio(hits, hits + misses),
        "zero.episodes": t.get("episodes", 0),
        "zero.episode_success_ratio": ratio(t.get("succeeded", 0), t.get("episodes", 0)),
    }

    def value(name: str) -> float:
        if name in derived:
            return derived[name]
        span, _, stat = name.rpartition(".")
        if span in tr["counts"]:
            if stat != "calls":
                raise BenchError(f"{span} is counted, not timed")
            return tr["counts"][span]
        agg = (tr["setup"] if span in SETUP_SPANS else tr["ops"]).get(span, {})
        if stat == "rows_per_call":
            return ratio(agg.get("rows", 0), agg.get("calls", 0))
        if stat not in ("calls", "busy_s", "self_s"):
            raise BenchError(f"unknown per-layer metric {name}")
        return agg.get(stat, 0)

    return [plain, traced], value


def measure(bench: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    before = proc_facts()
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        reps, value = traced_run(workload, seed, seconds, deadline)
        specs = bench["per_layer"]
    else:
        reps, values = timed_run(workload, seed, seconds, deadline)
        value = values.__getitem__
        specs = bench["end_to_end"]
    after = proc_facts()
    attempted, failed, problems = tally(reps)
    metrics = {m["name"]: {"value": value(m["name"]), "unit": m["unit"]} for m in specs}
    report(workload, seed, trace, reps, metrics, attempted, failed, problems, before, after)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def report(workload, seed, trace, reps, metrics, attempted, failed, problems, before, after) -> None:
    machine = reps[0]["machine"]
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    print(f"== {workload}  seed={seed}  trace={trace}")
    print(
        f"machine: nproc={os.cpu_count()} affinity={affinity} python={platform.python_version()} "
        f"numpy={machine['numpy']} blas={machine['blas']} threads={machine['blas_threads']}"
    )
    print(f"machine: before={before} after={after}")
    for problem in problems[:10]:
        print(f"problem: {problem.strip()}")
    print(f"operations: attempted={attempted} failed={failed} fail_ratio={failed / attempted:.4f}")
    op_ms = [1000 * dt for r in reps for dt, _ in r["ops"]]
    q1, q2, q3 = quartiles(op_ms)
    print(f"operation time: median={q2:.2f} ms q1={q1:.2f} q3={q3:.2f} n={len(op_ms)}")
    if not trace:
        loop_ms = [1000 * dt for r in reps for dt in r["loop_s"]]
        q1, q2, q3 = quartiles(loop_ms)
        print(f"reference loop time: median={q2:.3f} ms q1={q1:.3f} q3={q3:.3f} n={len(loop_ms)}")
        ops = [op for r in reps for op in r["ops"]]
        print(f"work_per_s (wall, not normalised) = {sum(w for _, w in ops) / sum(dt for dt, _ in ops):.6g} 1/s")
        per_rep = {
            "setup_s": [r["setup_s"] for r in reps],
            "work_per_ref_s": [work_per_ref_s(r["segments"]) for r in reps],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        }
        for name, vals in per_rep.items():
            q1, q2, q3 = quartiles(vals)
            alias = f" ({reps[0]['unit']} per reference second)" if name == "work_per_ref_s" else ""
            print(
                f"{name}{alias} = {metrics[name]['value']:.6g} {metrics[name]['unit']}"
                f"  [repetitions: median={q2:.6g} q1={q1:.6g} q3={q3:.6g} n={len(vals)}]"
            )
    else:
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")


def selftest(bench: dict) -> int:
    """Every workload briefly, traced and untraced: every metric present
    with its unit, and no failed operation."""
    bad = 0
    for w in bench["workloads"]:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            res = measure(bench, w["name"], 1, 1.0, trace)
            want = {m["name"]: m["unit"] for m in specs}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            ok = got == want and res["failed"] == 0 and res["correct"]
            ok = ok and all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
            bad += not ok
            print(f"selftest {w['name']} trace={trace}: {'ok' if ok else 'FAILED'}")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "polarkit" / "__init__.py").is_file():
        print(f"error: no polarkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest(bench)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names + ["all"] or args.seed < 0:
        ap.error(f"--workload must be one of {names} or all, and --seed nonnegative")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.workload != "all":
        print(json.dumps(measure(bench, args.workload, args.seed, seconds, args.trace)))
        return 0
    results = {w: measure(bench, w, args.seed, seconds, args.trace) for w in names}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}:{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)

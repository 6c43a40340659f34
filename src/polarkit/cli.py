"""Command-line front end.

Subcommands wrap the library modules one-to-one: `pdp` and `complexity`
evaluate a kernel file, `brute` and `random` run the non-learned
searches, `train` runs the self-play loop, `bler` runs the AWGN
simulation harness.  Every command echoes its resolved configuration
(including the seed) so runs are reproducible from the output alone.

Exit codes: 0 success, 1 infeasible / step- or trial-limit, 2 usage, parse
or file-access errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict
from itertools import repeat
from pathlib import Path

from polarkit.codec import (
    PolarCodeSpec,
    bler_csv,
    code_length,
    noise_sigma,
    select_frozen_set,
    simulate_bler,
)
from polarkit.complexity import CALIBRATED_MODE, ReuseMode, total_complexity
from polarkit.kernelio import format_kernel, read_kernel, write_kernel
from polarkit.pdp import (
    compute_pdp,
    error_exponent,
    target_profile,
)
from polarkit.search import (
    Infeasible,
    StepLimitExceeded,
    brute_force_search,
    merge_stats,
    random_agent_search,
)
from polarkit.zero.train import load_train_config, train_loop

EXIT_OK = 0
EXIT_LIMIT = 1
EXIT_USAGE = 2

def _reuse_mode(text: str) -> ReuseMode:
    try:
        return ReuseMode(text.lower().replace("-", "_"))
    except ValueError:
        spellings = ", ".join(mode.value.replace("_", "-") for mode in ReuseMode)
        raise argparse.ArgumentTypeError(
            f"unknown reuse mode {text!r}; choose from {spellings} (dashes or underscores)"
        ) from None


def _write_or_print(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_pdp(args: argparse.Namespace) -> int:
    kernel = read_kernel(args.kernel)
    pdp = compute_pdp(kernel)
    result = {
        "ell": pdp.ell,
        "pdp": list(pdp.distances),
        "exponent": round(error_exponent(pdp), 4),
    }
    _write_or_print(args.out, json.dumps(result, indent=2) + "\n")
    return EXIT_OK


def _cmd_complexity(args: argparse.Namespace) -> int:
    kernel = read_kernel(args.kernel)
    report = total_complexity(kernel, args.reuse)
    _write_or_print(args.out, report.to_json() + "\n")
    return EXIT_OK


def _cmd_brute(args: argparse.Namespace) -> int:
    target = target_profile(args.ell)
    _echo({"command": "brute", "ell": args.ell, "target": list(target.distances),
           "step_limit": args.limit})
    result = brute_force_search(target, args.limit)
    if isinstance(result, Infeasible):
        print(f"infeasible: search space exhausted after {result.steps} steps",
              file=sys.stderr)
        return EXIT_LIMIT
    if isinstance(result, StepLimitExceeded):
        print(f"step limit reached after {result.steps} steps", file=sys.stderr)
        return EXIT_LIMIT
    text = format_kernel(result)
    if args.out is not None:
        write_kernel(args.out, result)
        pdp = compute_pdp(result)
        summary = {
            "pdp": list(pdp.distances),
            "exponent": round(error_exponent(pdp), 4),
            "kernel_rows": [f"{r:#x}" for r in result.rows],
        }
        text = json.dumps(summary, indent=2) + "\n"
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_random(args: argparse.Namespace) -> int:
    target = target_profile(args.ell)
    _echo({"command": "random", "ell": args.ell, "iters": args.iters,
           "seed": args.seed, "jobs": args.jobs, "reuse": args.reuse.value})
    # one worker per shard, at most one per CPU (the pool starts them all at once)
    shards = min(args.jobs, args.iters, os.cpu_count() or 1)
    base, extra = divmod(args.iters, shards)
    spans = [base + (j < extra) for j in range(shards)]
    offsets = [sum(spans[:j]) for j in range(shards)]
    with ExitStack() as stack:  # one shard runs in-process
        run = map if shards == 1 else stack.enter_context(ProcessPoolExecutor(shards)).map
        stats = merge_stats(list(run(
            random_agent_search, repeat(args.ell), repeat(target), spans,
            repeat(args.seed), repeat(args.reuse), offsets,
        )))
    _write_or_print(args.out, stats.to_json() + "\n")
    if args.hist_out is not None:
        Path(args.hist_out).write_text(stats.histogram_csv())
    return EXIT_OK if stats.feasible_count else EXIT_LIMIT


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = load_train_config(args.config)
    if args.out is not None:  # a directory train creates: no file may stand in its way
        for path in (Path(args.out), *Path(args.out).parents):
            if path.exists() and not path.is_dir():
                raise ValueError(f"--out: {path} exists and is not a directory")
    _echo({"command": "train", **asdict(cfg)})
    result = train_loop(cfg, out_dir=args.out)
    summary = {
        "iterations": len(result.log_rows),
        "best_complexity": result.best_complexity,
        "best_kernel_rows": (
            [f"{r:#x}" for r in result.best_kernel.rows] if result.best_kernel else None
        ),
    }
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


def _cmd_bler(args: argparse.Namespace) -> int:
    kernel = read_kernel(args.kernel)
    ell = kernel.ncols
    n = code_length(ell, args.m, kernel)
    if not 1 <= args.k <= n:
        raise ValueError(f"k={args.k} outside [1, {n}] for n={n}")
    select_snr = args.snr[0] if args.select_snr is None else args.select_snr
    for snr_db in [*args.snr, select_snr]:
        noise_sigma(snr_db, args.k / n)
    _echo({"command": "bler", "ell": ell, "m": args.m, "n": n, "k": args.k,
           "snr_db": args.snr, "trials": args.trials, "seed": args.seed,
           "select_snr": select_snr, "select_trials": args.select_trials})
    frozen = select_frozen_set(
        ell, args.m, args.k, kernel, select_snr, args.select_trials, args.seed
    )
    spec = PolarCodeSpec(ell, args.m, args.k, kernel, frozen)
    results = simulate_bler(spec, args.snr, args.trials, args.seed)
    _write_or_print(args.out, bler_csv(results))
    return EXIT_OK


def _echo(config: dict) -> None:
    """Resolved-configuration line, for reproducibility from logs alone."""
    print(json.dumps({"config": config}), file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polarkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pdp", help="partial distance profile and exponent of a kernel file")
    p.add_argument("--kernel", required=True, help="kernel file (ell=<N> header + hex rows)")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_pdp, outputs=("out",))

    p = sub.add_parser("complexity", help="decoding-complexity report of a kernel file")
    p.add_argument("--kernel", required=True)
    p.add_argument("--reuse", type=_reuse_mode, default=CALIBRATED_MODE,
                   help="trellis-reuse policy: none | all-contiguous | section-tables")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_complexity, outputs=("out",))

    p = sub.add_parser("brute", help="deterministic backtracking search for the target profile")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--limit", type=int, default=10**7, help="distance-test step limit")
    p.add_argument("--out", help="write the kernel file here")
    p.set_defaults(func=_cmd_brute, floors={"limit": 1}, outputs=("out",))

    p = sub.add_parser("random", help="random-agent complexity statistics")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="worker processes (sharded trials)")
    p.add_argument("--reuse", type=_reuse_mode, default=CALIBRATED_MODE)
    p.add_argument("--out", help="write stats JSON here instead of stdout")
    p.add_argument("--hist-out", help="also write the complexity histogram as CSV")
    p.set_defaults(func=_cmd_random, floors={"iters": 1, "jobs": 1, "seed": 0},
                   outputs=("out", "hist_out"))

    p = sub.add_parser("train", help="self-play training loop")
    p.add_argument("--config", required=True, help="flat key=value training config file")
    p.add_argument("--out", help="output directory for logs, checkpoints, best kernel")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("bler", help="AWGN block-error-rate simulation")
    p.add_argument("--kernel", required=True)
    p.add_argument("--m", type=int, required=True, help="Kronecker power (n = ell^m)")
    p.add_argument("--k", type=int, required=True, help="information bits")
    p.add_argument("--snr", type=float, nargs="+", required=True, help="Eb/N0 points in dB")
    p.add_argument("--trials", type=int, required=True, help="codewords per SNR point")
    p.add_argument("--select-trials", type=int, default=10_000,
                   help="genie-aided trials for frozen-set selection")
    p.add_argument("--select-snr", type=float,
                   help="SNR for frozen-set selection (default: first --snr point)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=_cmd_bler, floors={"seed": 0, "trials": 1, "select_trials": 1},
                   outputs=("out",))
    for p in sub.choices.values():  # main reports unrecognised arguments through it
        p.set_defaults(parser=p)
    return parser


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:  # the subcommand's own usage line, which lists its flags
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        for key, low in getattr(args, "floors", {}).items():
            if (value := getattr(args, key)) < low:
                raise ValueError(f"{_flag(key)} must be at least {low}, got {value}")
        for key in getattr(args, "outputs", ()):
            if (path := getattr(args, key)) is not None and not Path(path).parent.is_dir():
                raise ValueError(f"{_flag(key)}: directory {Path(path).parent} does not exist")
            if path is not None and Path(path).is_dir():
                raise ValueError(f"{_flag(key)}: {path} is a directory")
        return args.func(args)
    except (OSError, ValueError) as exc:  # KernelFileError, SingularKernelError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands wrap the library modules one-to-one: `pdp` and `complexity`
evaluate a kernel file, `brute` and `random` run the non-learned
searches, `train` runs the self-play loop, `bler` runs the AWGN
simulation harness.  Every command echoes its resolved configuration
(including the seed) so runs are reproducible from the output alone.

Exit codes: 0 success, 1 infeasible / step- or trial-limit, 2 usage or
parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from polarkit.codec import (
    PolarCodeSpec,
    bler_csv,
    select_frozen_set,
    simulate_bler,
)
from polarkit.complexity import CALIBRATED_MODE, ReuseMode, total_complexity
from polarkit.kernelio import KernelFileError, format_kernel, read_kernel, write_kernel
from polarkit.pdp import (
    SingularKernelError,
    compute_pdp,
    error_exponent,
    target_profile,
)
from polarkit.search import (
    BruteConfig,
    Infeasible,
    StepLimitExceeded,
    brute_force_search,
    merge_stats,
    random_agent_search,
)
from polarkit.zero.train import TrainConfig, dump_train_config, load_train_config, train_loop

EXIT_OK = 0
EXIT_LIMIT = 1
EXIT_USAGE = 2

# accepted spellings for --reuse, including dashed aliases
_REUSE_ALIASES = {
    "none": ReuseMode.NONE,
    "top_sections": ReuseMode.TOP_SECTIONS,
    "top-sections": ReuseMode.TOP_SECTIONS,
    "all_contiguous": ReuseMode.ALL_CONTIGUOUS,
    "all-contiguous": ReuseMode.ALL_CONTIGUOUS,
    "section_tables": ReuseMode.SECTION_TABLES,
    "section-tables": ReuseMode.SECTION_TABLES,
}


def _reuse_mode(text: str) -> ReuseMode:
    try:
        return _REUSE_ALIASES[text.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown reuse mode {text!r}; choose from {sorted(set(_REUSE_ALIASES))}"
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
    cfg = BruteConfig(args.ell, target_profile(args.ell), args.limit)
    _echo({"command": "brute", "ell": cfg.ell, "target": list(cfg.target.distances),
           "step_limit": cfg.step_limit})
    result = brute_force_search(cfg)
    if isinstance(result, Infeasible):
        print(f"infeasible: search space exhausted after {result.steps} steps",
              file=sys.stderr)
        return EXIT_LIMIT
    if isinstance(result, StepLimitExceeded):
        print(f"step limit reached after {result.steps} steps", file=sys.stderr)
        return EXIT_LIMIT
    text = format_kernel(result.matrix)
    if args.out is not None:
        write_kernel(args.out, result.matrix)
    summary = {
        "pdp": list(result.pdp.distances),
        "exponent": round(result.exponent, 4),
        "kernel_rows": [f"{r:#x}" for r in result.matrix.rows],
    }
    sys.stdout.write(text if args.out is None else json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


def _random_shard(task: tuple[int, int, int, int, str]) -> "object":
    ell, iters, seed, offset, policy = task
    return random_agent_search(
        ell, target_profile(ell), iters, seed,
        policy=ReuseMode(policy), trial_offset=offset,
    )


def _cmd_random(args: argparse.Namespace) -> int:
    _echo({"command": "random", "ell": args.ell, "iters": args.iters,
           "seed": args.seed, "jobs": args.jobs, "reuse": args.reuse.value})
    # one worker per shard; a shard holds at least one trial
    shards = max(1, min(args.jobs, args.iters))
    if shards == 1:
        stats = random_agent_search(
            args.ell, target_profile(args.ell), args.iters, args.seed, policy=args.reuse
        )
    else:
        base, extra = divmod(args.iters, shards)
        tasks, offset = [], 0
        for j in range(shards):
            span = base + (1 if j < extra else 0)
            tasks.append((args.ell, span, args.seed, offset, args.reuse.value))
            offset += span
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            stats = merge_stats(list(pool.map(_random_shard, tasks)))
    _write_or_print(args.out, stats.to_json() + "\n")
    if args.hist_out is not None:
        Path(args.hist_out).write_text(stats.histogram_csv())
    return EXIT_OK if stats.feasible_count else EXIT_LIMIT


def _cmd_train(args: argparse.Namespace) -> int:
    if args.config is None:
        if args.ell is None:
            raise ValueError("train requires --ell or --config")
        cfg = TrainConfig(ell=args.ell)
    else:
        cfg = load_train_config(args.config)
        if args.ell is not None:
            cfg = replace(cfg, ell=args.ell)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    sys.stdout.write(dump_train_config(cfg))
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
    n = ell**args.m
    if not 1 <= args.k <= n:
        raise KernelFileError(f"k={args.k} outside [1, {n}] for n={n}")
    select_snr = args.snr[0] if args.select_snr is None else args.select_snr
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
    p.set_defaults(func=_cmd_pdp)

    p = sub.add_parser("complexity", help="decoding-complexity report of a kernel file")
    p.add_argument("--kernel", required=True)
    p.add_argument("--reuse", type=_reuse_mode, default=CALIBRATED_MODE,
                   help="trellis-reuse policy: none | top-sections | all-contiguous | section-tables")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("brute", help="deterministic backtracking search for the target profile")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--limit", type=int, default=10**7, help="distance-test step limit")
    p.add_argument("--out", help="write the kernel file here")
    p.set_defaults(func=_cmd_brute)

    p = sub.add_parser("random", help="random-agent complexity statistics")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="worker processes (sharded trials)")
    p.add_argument("--reuse", type=_reuse_mode, default=CALIBRATED_MODE)
    p.add_argument("--out", help="write stats JSON here instead of stdout")
    p.add_argument("--hist-out", help="also write the complexity histogram as CSV")
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("train", help="self-play training loop")
    p.add_argument("--ell", type=int, help="kernel size (overrides the config file)")
    p.add_argument("--config", help="flat key=value training config file")
    p.add_argument("--seed", type=int, help="overrides the config seed")
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
    p.set_defaults(func=_cmd_bler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KernelFileError, SingularKernelError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Non-learned kernel search baselines.

Two strategies over the same goal -- find an ell x ell kernel whose
partial distance profile equals a target -- plus Monte-Carlo complexity
statistics over the kernels the random strategy produces.

Both build the matrix bottom row first by the rule in `pdp.valid_rows`:
row i must be a weight-D_i word at distance D_i from the span of the
rows below it, so the placed rows fully determine which candidates remain.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from polarkit import complexity
from polarkit.complexity import CALIBRATED_MODE, ReuseMode
from polarkit.gf2 import BitMatrix
from polarkit.pdp import PartialDistanceProfile, compute_pdp, valid_rows


#: Candidates within a row are visited in a deterministic seeded
#: shuffle, and the step budget is split across `RESTARTS` attempts
#: with different shuffles.  Plain ascending order walks into
#: prefixes with no completion at some widths (ell=14 exceeds 10^7
#: steps); restarting with a fresh order escapes those traps while
#: keeping the search reproducible.
ORDER_SEED = 1234
RESTARTS = 10
#: A random trial fails after this many bit placements per column.
PLACEMENTS_PER_COLUMN = 50
#: `random_trial` draws its generator's 32-bit words this many at a time
_BLOCK = 128


@dataclass(frozen=True)
class Infeasible:
    """The target profile admits no kernel (search space exhausted)."""

    steps: int


@dataclass(frozen=True)
class StepLimitExceeded:
    steps: int


@dataclass(frozen=True)
class RandomSearchStats:
    ell: int
    iterations: int
    histogram: dict[int, int]  # complexity -> feasible trials
    best_kernel: BitMatrix | None  # the first of complexity min_complexity, in trial order

    @property
    def feasible_count(self) -> int:
        return sum(self.histogram.values())

    @property
    def min_complexity(self) -> int | None:
        return min(self.histogram, default=None)

    @property
    def max_complexity(self) -> int | None:
        return max(self.histogram, default=None)

    def to_json_dict(self) -> dict:
        return {
            "ell": self.ell,
            "iterations": self.iterations,
            "feasible_count": self.feasible_count,
            "min_complexity": self.min_complexity,
            "max_complexity": self.max_complexity,
            "best_kernel_rows": (
                [f"{r:#x}" for r in self.best_kernel.rows]
                if self.best_kernel
                else None
            ),
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def histogram_csv(self) -> str:
        lines = ["complexity,count"]
        lines += [f"{c},{n}" for c, n in sorted(self.histogram.items())]
        return "\n".join(lines) + "\n"


def brute_force_search(
    target: PartialDistanceProfile, step_limit: int = 10**7
) -> BitMatrix | Infeasible | StepLimitExceeded:
    """Backtracking enumeration, bottom row first.

    One step is one candidate distance test; the step budget is shared
    across all restart attempts.  The outcome is deterministic: the
    first kernel in the seeded order, exhaustion of the search space
    (within any single attempt, which is a complete enumeration), or the
    step limit.
    """
    if step_limit <= 0:
        raise ValueError("step_limit must be positive")
    ell = target.ell
    wants = target.distances[::-1]  # wants[level] is the distance of row ell-1-level
    steps = 0
    for a in range(RESTARTS):
        end = min(steps + max(1, step_limit // RESTARTS), step_limit)
        # each level's candidates: every word of weight D_i, in a seeded order
        orders = [
            np.random.default_rng([ORDER_SEED, a, level])
            .permutation(np.flatnonzero(valid_rows(ell, (), d)))
            for level, d in enumerate(wants)
        ]
        tested = [0] * ell  # candidates tested at each level under the current prefix
        rows: list[int] = []  # rows[0] is the bottom row (ell-1), built upward
        while steps < end:
            level = len(rows)
            # test candidates in order, within the budget, up to the first valid one
            window = orders[level][tested[level] : tested[level] + end - steps]
            hits = np.flatnonzero(valid_rows(ell, tuple(rows), wants[level])[window])
            count = int(hits[0]) + 1 if hits.size else window.size
            tested[level] += count
            steps += count
            if hits.size:
                rows.append(int(window[hits[0]]))
                if len(rows) == ell:
                    kernel = BitMatrix(ell, tuple(reversed(rows)))
                    assert compute_pdp(kernel) == target
                    return kernel
            elif not window.size:  # every candidate under this prefix was tested
                if not rows:
                    return Infeasible(steps)  # a full enumeration: truly infeasible
                tested[level] = 0
                rows.pop()
    return StepLimitExceeded(steps)


def _words(rng: np.random.Generator) -> Iterator[int]:
    """The generator's next 32-bit words, numpy's `next_uint32`, drawn
    `_BLOCK` at a time.  A uint32 draw over the full range returns exactly
    those words, a half word buffered at entry included."""
    while True:
        yield from rng.integers(0, 1 << 32, size=_BLOCK, dtype=np.uint32).tolist()


def _below(n: int, words: Iterator[int]) -> int:
    """`Generator.integers(n)` from the words it would draw: numpy's
    bounded draw, Lemire's multiply-and-reject rule (Lemire, ACM TOMACS
    2019).  n = 1 draws nothing."""
    if n == 1:
        return 0
    m = next(words) * n
    if m & 0xFFFFFFFF < n:  # only then can the word be rejected
        threshold = (1 << 32) % n
        while m & 0xFFFFFFFF < threshold:
            m = next(words) * n
    return m >> 32


def random_trial(target: PartialDistanceProfile, rng: np.random.Generator) -> BitMatrix | None:
    """One uniform-sampling construction attempt.

    Rows are grown bottom-up by picking unset bit positions uniformly; a
    row that reaches its target weight at the wrong distance is cleared
    and retried.  The trial fails once the placement cap is hit, or at
    once when no word is valid for the next row: such a prefix never
    completes, and retrying it would only spend draws up to the cap.

    Each placement is `rng.integers(len(free))`, reproduced from blocks of
    the generator's raw words: the kernel is the per-placement one, but
    the generator ends past the last block drawn.
    """
    ell = target.ell
    words = _words(rng)
    left = PLACEMENTS_PER_COLUMN * ell  # placements left before the trial fails
    rows: tuple[int, ...] = ()  # bottom row first
    while len(rows) < ell:
        want = target.distances[ell - 1 - len(rows)]
        valid = valid_rows(ell, rows, want)
        if not valid.any():
            return None
        while True:  # draw the row until it is valid
            row = 0
            free = list(range(ell))  # unset bit positions, ascending
            for _ in range(want):
                if not left:
                    return None
                row |= 1 << free.pop(_below(len(free), words))
                left -= 1
            if valid[row]:
                break
        rows += (row,)
    return BitMatrix(ell, rows[::-1])


def random_agent_search(
    ell: int,
    target: PartialDistanceProfile,
    iterations: int,
    seed: int,
    policy: ReuseMode = CALIBRATED_MODE,
    trial_offset: int = 0,
) -> RandomSearchStats:
    """Monte-Carlo statistics of decoding complexity over random feasible
    kernels.  Each trial draws from an independent stream derived from
    (seed, global trial index), so runs shard and nest deterministically."""
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    if target.ell != ell:
        raise ValueError(f"target profile has {target.ell} rows, not ell={ell}")
    histogram: dict[int, int] = {}
    best: tuple[int, BitMatrix] | None = None
    for t in range(trial_offset, trial_offset + iterations):
        rng = np.random.default_rng([seed, t])
        kernel = random_trial(target, rng)
        if kernel is None:
            continue
        assert compute_pdp(kernel).distances == target.distances
        # not memoized (trials rarely repeat a kernel); perfbench wraps the module's name
        comp = complexity.total_complexity(kernel, policy).total
        histogram[comp] = histogram.get(comp, 0) + 1
        if best is None or comp < best[0]:
            best = (comp, kernel)
    return RandomSearchStats(ell, iterations, histogram, best[1] if best else None)


def merge_stats(parts: list[RandomSearchStats]) -> RandomSearchStats:
    """Associative merge of shard results (same ell/seed stream assumed)."""
    if not parts:
        raise ValueError("nothing to merge")
    histogram: dict[int, int] = {}
    for p in parts:
        for c, n in p.histogram.items():
            histogram[c] = histogram.get(c, 0) + n
    # the first shard in trial order that reaches the overall minimum
    low = min(histogram, default=None)
    best = next((p.best_kernel for p in parts if p.min_complexity == low), None)
    return RandomSearchStats(parts[0].ell, sum(p.iterations for p in parts), histogram, best)

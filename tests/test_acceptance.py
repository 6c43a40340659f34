"""Acceptance gates.

Each test pins one release criterion at its stated tolerance.  Criterion
9 (property suites) is the union of the per-module test files and has no
separate test here.

Known state of this build (see the project README, "Complexity-model
calibration caveat"):
  - Criteria 1 and 5 are checked under ReuseMode.SECTION_TABLES, the
    policy that judges trellis-table reuse on each section's own codes.
  - Criterion 1 fails: that policy gives 1332 for BEST16 where 1396 is
    published.  The published width-12 total belongs to a singular
    printed matrix and is not asserted.
  - Criterion 5 passes on that policy (32/40 at width 4; width-8 means
    inside the published ranges).
  - Criterion 7 asserts a threshold quoted on the published scale and is
    a multi-hour run, gated behind POLARKIT_DESK=1.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from polarkit.codec import PolarCodeSpec, select_frozen_set, simulate_bler
from polarkit.complexity import ReuseMode, total_complexity
from polarkit.gf2 import BitMatrix, rank
from polarkit.pdp import (
    SingularKernelError,
    compute_pdp,
    error_exponent,
    target_profile,
)
from polarkit.reference import ARIKAN, BEST12, BEST12_PRINTED, BEST16, BEST16_COMPLEXITY
from polarkit.search import brute_force_search, random_agent_search
from polarkit.zero.env import default_reward_config, trans_reward
from polarkit.zero.train import TrainConfig, train_loop
from tests.conftest import TARGET_EXPONENTS, closed_form_return, trellis_oracle_cases
from tests.test_env import _random_episode


def _best_time(fn, repeats: int = 3) -> float:
    """Fastest of a few calls: a scheduler stall slows one call, not all."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_criterion_1_golden_complexity_totals():
    """Exact reference total under section-table reuse, and evaluator speed.

    The published width-12 total (652) belongs to the matrix as printed,
    which is singular: its row 5 is the sum of rows 1, 2 and 3.  No
    complexity exists for it, and BEST12 is a repair of it with no
    published total, so at width 12 only that singularity and the speed
    are checked.
    """
    policy = ReuseMode.SECTION_TABLES
    printed = BEST12_PRINTED.rows
    assert printed[5] == printed[1] ^ printed[2] ^ printed[3]
    assert rank(printed) < 12
    with pytest.raises(SingularKernelError):
        total_complexity(BEST12_PRINTED, policy)
    t12 = _best_time(lambda: total_complexity(BEST12, policy))
    t16 = _best_time(lambda: total_complexity(BEST16, policy))
    assert t12 < 0.1 and t16 < 0.1
    c16 = total_complexity(BEST16, policy).total
    assert c16 == BEST16_COMPLEXITY


def test_criterion_2_profiles_and_exponents():
    assert compute_pdp(BEST16).distances == target_profile(16).distances
    assert compute_pdp(BEST12).distances == target_profile(12).distances
    assert error_exponent(compute_pdp(BEST16)) == pytest.approx(0.5183, abs=5e-4)
    assert error_exponent(compute_pdp(BEST12)) == pytest.approx(0.4825, abs=5e-4)
    for ell in range(5, 17):
        assert error_exponent(target_profile(ell)) == pytest.approx(
            TARGET_EXPONENTS[ell], abs=5e-4
        ), ell


def test_criterion_3_decoder_oracle_equivalence():
    """The trellis phase LLRs equal exhaustive max-marginalization on
    conftest's cases (every width 2..12 and BEST12)."""
    _, deviations = trellis_oracle_cases()
    assert len(deviations) >= 200
    assert max(deviations) <= 1e-9


@pytest.mark.slow
def test_criterion_4_brute_force_feasibility():
    for ell in range(5, 17):
        result = brute_force_search(target_profile(ell))
        assert isinstance(result, BitMatrix), ell
        assert compute_pdp(result).distances == target_profile(ell).distances


@pytest.mark.slow
def test_criterion_5_random_agent_statistics():
    policy = ReuseMode.SECTION_TABLES
    stats4 = random_agent_search(4, target_profile(4), 10_000, seed=1, policy=policy)
    mins, maxs = [], []
    for seed in (1, 2, 3):
        s = random_agent_search(8, target_profile(8), 10_000, seed=seed, policy=policy)
        mins.append(s.min_complexity)
        maxs.append(s.max_complexity)
    mean_min = sum(mins) / 3
    mean_max = sum(maxs) / 3
    assert stats4.min_complexity == 32
    assert stats4.max_complexity == 40
    assert 140 <= mean_min <= 170
    assert 250 <= mean_max <= 320


def test_criterion_6_reward_arithmetic(rng):
    cfg16 = default_reward_config(16)
    assert trans_reward(cfg16.comp_min, cfg16) == pytest.approx(cfg16.r_max)
    assert trans_reward(cfg16.comp_max, cfg16) == pytest.approx(cfg16.r_min)
    assert trans_reward(BEST16_COMPLEXITY, cfg16) == pytest.approx(3604**2 / 3700, abs=1e-6)
    # episode sum == closed form, 100 random successful episodes
    from polarkit.complexity import total_complexity_cached
    from polarkit.zero.env import episode_return

    cfg = default_reward_config(4)
    checked = 0
    while checked < 100:
        final, transitions = _random_episode(4, cfg, rng, install_forced=False)
        if final.current_row != final.ell:
            continue
        comp = total_complexity_cached(final.kernel())
        expected = closed_form_return(final.steps, final.ell, comp, cfg)
        assert episode_return(transitions) == pytest.approx(expected, abs=1e-9)
        checked += 1


@pytest.mark.desk
@pytest.mark.skipif(
    not os.environ.get("POLARKIT_DESK"),
    reason="multi-hour desk run; set POLARKIT_DESK=1 to enable",
)
def test_criterion_7_desk_training_run():
    cfg = TrainConfig(ell=12, total_episodes=20_000, update_interval=200)
    successes = 0
    for seed in (0, 1, 2):
        result = train_loop(TrainConfig(**{**cfg.__dict__, "seed": seed}))
        means = [row["meanReturn"] for row in result.log_rows]
        decile = max(1, len(means) // 10)
        assert np.mean(means[-decile:]) > np.mean(means[:decile])
        if result.best_complexity is not None and result.best_complexity <= 700:
            successes += 1
    assert successes >= 2


@pytest.mark.slow
def test_criterion_8_bler_reduced_scale():
    # Arikan (256,128) SC at 3.0 dB, 2e4 trials, within x1.5 of 1.237e-2
    frozen = select_frozen_set(2, 8, 128, ARIKAN, 3.0, 10_000, seed=0)
    spec = PolarCodeSpec(2, 8, 128, ARIKAN, frozen)
    arikan = {
        r.snr_db: r.bler
        for r in simulate_bler(spec, [2.0, 2.5, 3.0], trials=20_000, seed=1)
    }
    assert 1.237e-2 / 1.5 <= arikan[3.0] <= 1.237e-2 * 1.5
    # width-16 kernel (256,128) RMLD at 2.0 dB, 5e3 trials, x1.5 of 6.13e-2
    frozen16 = select_frozen_set(16, 2, 128, BEST16, 2.0, 10_000, seed=0)
    spec16 = PolarCodeSpec(16, 2, 128, BEST16, frozen16)
    big = {
        r.snr_db: r.bler
        for r in simulate_bler(spec16, [2.0, 2.5], trials=5_000, seed=1)
    }
    assert 6.13e-2 / 1.5 <= big[2.0] <= 6.13e-2 * 1.5
    # ordering at both shared SNR points
    assert big[2.0] < arikan[2.0]
    assert big[2.5] < arikan[2.5]

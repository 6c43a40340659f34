"""Backtracking and random searches: verification, reproducibility,
nesting, and shard merging."""

from __future__ import annotations

import numpy as np
import pytest

from polarkit import search
from polarkit.complexity import total_complexity_cached
from polarkit.gf2 import BitMatrix, coset_distances
from polarkit.pdp import (
    PartialDistanceProfile,
    compute_pdp,
    meets_target,
    target_profile,
    valid_rows,
)
from polarkit.search import (
    _BLOCK,
    PLACEMENTS_PER_COLUMN,
    RESTARTS,
    Infeasible,
    RandomSearchStats,
    StepLimitExceeded,
    brute_force_search,
    merge_stats,
    random_agent_search,
    random_trial,
)
from polarkit.zero.env import RewardConfig, legal_actions, step_env
from tests.conftest import bare_board, oracle_brute_force_search


def test_brute_ell2_finds_arikan_profile():
    result = brute_force_search(target_profile(2))
    assert isinstance(result, BitMatrix)
    assert compute_pdp(result).distances == (1, 2)


def test_brute_infeasible_target():
    result = brute_force_search(PartialDistanceProfile((2, 2)))
    assert isinstance(result, Infeasible)
    assert result.steps > 0


def test_brute_step_limit():
    result = brute_force_search(target_profile(8), step_limit=3)
    assert isinstance(result, StepLimitExceeded)
    assert result.steps == 3


def test_brute_result_reverified_independently():
    for ell in (4, 6, 8):
        result = brute_force_search(target_profile(ell))
        assert isinstance(result, BitMatrix)
        assert compute_pdp(result).distances == target_profile(ell).distances


def test_brute_deterministic():
    a = brute_force_search(target_profile(6))
    b = brute_force_search(target_profile(6))
    assert a == b


def test_random_seed_reproducible():
    a = random_agent_search(4, target_profile(4), 300, seed=5)
    b = random_agent_search(4, target_profile(4), 300, seed=5)
    assert a == b


def test_random_results_meet_target():
    stats = random_agent_search(5, target_profile(5), 100, seed=9)
    assert stats.feasible_count > 0
    assert meets_target(stats.best_kernel, target_profile(5))
    assert total_complexity_cached(stats.best_kernel) == stats.min_complexity
    assert sum(stats.histogram.values()) == stats.feasible_count


def _env_random_trial(target, rng):
    """The game of `zero.env` played by a uniform-random agent with the
    random trial's placement cap: the slow path `random_trial` copies.
    Returns the kernel (None on a give-up) and the generator state at the
    first start of a row that no word fits, None if play never reached one."""
    ell = target.ell
    cfg = RewardConfig(game_limit=PLACEMENTS_PER_COLUMN * ell)
    weights = coset_distances(ell)
    state = bare_board(target)
    dead_end = None
    while not state.done:
        i = state.current_row
        if dead_end is None and not state.rows[i]:
            want = state.targets[i]
            table = coset_distances(ell, state.rows[:i])
            if not np.any((weights == want) & (table == want)):
                dead_end = rng.bit_generator.state
        legal = legal_actions(state)
        state, _, _ = step_env(state, legal[rng.integers(len(legal))], cfg)
    return (state.kernel() if state.current_row == ell else None), dead_end


def test_random_trial_matches_env_game(monkeypatch):
    """The same kernels as the env game, from the same draws: drawing one
    word at a time, a trial that stops at a dead end has drawn exactly what
    the game drew before first starting that row, and every other trial all
    that the game drew."""
    monkeypatch.setattr(search, "_BLOCK", 1)
    outcomes = set()
    for ell in range(2, 17):
        target = target_profile(ell)
        for seed in range(40):
            fast_rng, slow_rng = (np.random.default_rng([seed, ell]) for _ in range(2))
            fast = random_trial(target, fast_rng)
            slow, dead_end = _env_random_trial(target, slow_rng)
            assert fast == slow, (ell, seed)
            if dead_end is not None:
                assert fast is None
                assert fast_rng.bit_generator.state == dead_end, (ell, seed)
                outcomes.add("dead end")
            else:
                assert fast_rng.bit_generator.state == slow_rng.bit_generator.state, (ell, seed)
                outcomes.add("cap" if fast is None else "kernel")
    assert outcomes == {"kernel", "cap", "dead end"}


def _per_placement_trial(target, rng):
    """`random_trial` with one `rng.integers` call per placement, as it
    drew before it took its words in blocks.  Returns the kernel (None on
    a give-up) and the number of calls that drew a word (those with more
    than one free position)."""
    ell = target.ell
    left = PLACEMENTS_PER_COLUMN * ell
    draws = 0
    rows: tuple[int, ...] = ()
    while len(rows) < ell:
        want = target.distances[ell - 1 - len(rows)]
        valid = valid_rows(ell, rows, want)
        if not valid.any():
            return None, draws
        while True:
            row = 0
            free = list(range(ell))
            for _ in range(want):
                if not left:
                    return None, draws
                draws += len(free) > 1
                row |= 1 << free.pop(int(rng.integers(len(free))))
                left -= 1
            if valid[row]:
                break
        rows += (row,)
    return BitMatrix(ell, rows[::-1]), draws


def _assert_trial_matches_per_placement(target, make_rng):
    """`random_trial` on make_rng() builds the per-placement kernel and, in
    blocks of one word, leaves its generator in the per-placement state;
    returns the number of word-drawing calls."""
    fast_rng, slow_rng = make_rng(), make_rng()
    fast = random_trial(target, fast_rng)
    slow, draws = _per_placement_trial(target, slow_rng)
    assert fast == slow
    if search._BLOCK == 1:  # only then are the words drawn exactly those used
        assert _state(fast_rng) == _state(slow_rng)
    return draws


def _state(rng):
    """The bit generator's state with its arrays as lists, to compare."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(rng.bit_generator.state)


BIT_GENERATORS = (
    np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox, np.random.SFC64
)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
def test_block_draws_match_per_placement_draws(bit_generator, monkeypatch):
    for block in (1, 3, _BLOCK):
        monkeypatch.setattr(search, "_BLOCK", block)
        for ell in range(2, 17):
            for seed in range(4):
                _assert_trial_matches_per_placement(
                    target_profile(ell), lambda: np.random.Generator(bit_generator([seed, ell]))
                )


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
def test_block_draws_after_a_buffered_half_word(bit_generator, monkeypatch):
    """One earlier bounded draw leaves half of a 64-bit word buffered in
    every generator here but MT19937, whose words are 32 bits."""
    monkeypatch.setattr(search, "_BLOCK", 1)

    def make():
        rng = np.random.Generator(bit_generator(3))
        rng.integers(5)
        return rng

    assert make().bit_generator.state.get("has_uint32", 1) == 1
    for ell in (8, 12):
        _assert_trial_matches_per_placement(target_profile(ell), make)


def test_block_draws_reject_as_numpy_does(monkeypatch):
    """A buffered word 0 scaled by n = 12 leaves 0 below 2^32 mod 12 = 4:
    numpy's bounded draw rejects it and draws again."""
    monkeypatch.setattr(search, "_BLOCK", 1)

    def make():
        rng = np.random.default_rng(11)
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, 0
        rng.bit_generator.state = state
        return rng

    redrawn = make()
    words = redrawn.integers(0, 1 << 32, size=2, dtype=np.uint32).tolist()
    drawn = make()
    assert words[0] == 0 and drawn.integers(12) == words[1] * 12 >> 32
    assert _state(drawn) == _state(redrawn)  # integers(12) took both words
    _assert_trial_matches_per_placement(target_profile(12), make)


def test_block_draws_refill_blocks_at_ell16():
    """At ell 16 most trials run into the placement cap, about 800 words:
    several blocks each."""
    target = target_profile(16)
    draws = [
        _assert_trial_matches_per_placement(target, lambda: np.random.default_rng([9, t]))
        for t in range(10)
    ]
    assert max(draws) > 4 * _BLOCK


def test_random_nested_monotone():
    small = random_agent_search(4, target_profile(4), 200, seed=2)
    large = random_agent_search(4, target_profile(4), 600, seed=2)
    assert large.min_complexity <= small.min_complexity
    assert large.max_complexity >= small.max_complexity
    # common stream: the shorter run's histogram is dominated pointwise
    for comp, count in small.histogram.items():
        assert large.histogram.get(comp, 0) >= count


def test_merge_stats_equals_single_run():
    whole = random_agent_search(4, target_profile(4), 500, seed=11)
    parts = [
        random_agent_search(4, target_profile(4), span, seed=11, trial_offset=off)
        for off, span in ((0, 200), (200, 150), (350, 150))
    ]
    merged = merge_stats(parts)
    assert merged.histogram == whole.histogram
    assert merged.min_complexity == whole.min_complexity
    assert merged.max_complexity == whole.max_complexity
    assert merged.feasible_count == whole.feasible_count


@pytest.mark.parametrize("seed, bounds", [
    (75, (0, 2, 5, 14, 15)),  # trials 2-4 all fail; minimum 1604 at trials 0 and 14
    (80, (0, 5, 13, 20, 23)),  # trials 0-4 all fail; minimum 1568 at trials 12 and 22
])
def test_merge_stats_empty_shard_and_tied_minimum(seed, bounds):
    """Shards merge to the whole run's JSON, best kernel included: a shard
    with no feasible trial has no minimum or maximum, and of two shards
    tied at the minimum the one earlier in trial order gives the kernel."""
    target = target_profile(12)
    whole = random_agent_search(12, target, bounds[-1], seed=seed)
    parts = [
        random_agent_search(12, target, hi - lo, seed=seed, trial_offset=lo)
        for lo, hi in zip(bounds, bounds[1:])
    ]
    empty = [p for p in parts if not p.histogram]
    assert len(empty) == 1
    assert (empty[0].min_complexity, empty[0].max_complexity, empty[0].best_kernel) == (
        None, None, None
    )
    tied = [p.best_kernel for p in parts if p.min_complexity == whole.min_complexity]
    assert len(tied) == 2 and tied[0] != tied[1]
    assert merge_stats(parts).to_json() == whole.to_json()
    assert whole.best_kernel == tied[0]


def test_merge_stats_empty_rejected():
    with pytest.raises(ValueError):
        merge_stats([])


def test_stats_serialization():
    stats = random_agent_search(4, target_profile(4), 50, seed=1)
    d = stats.to_json_dict()
    assert d["ell"] == 4
    assert d["iterations"] == 50
    csv = stats.histogram_csv()
    assert csv.splitlines()[0] == "complexity,count"


def test_invalid_configs():
    with pytest.raises(ValueError, match="step_limit must be positive"):
        brute_force_search(target_profile(4), step_limit=0)
    with pytest.raises(ValueError):
        random_agent_search(4, target_profile(4), 0, seed=0)
    # the profile fixes the width: a different ell is refused before any trial
    for ell, target in ((8, target_profile(12)), (12, target_profile(8))):
        with pytest.raises(ValueError, match="not ell="):
            random_agent_search(ell, target, 20, seed=1)


# Seeded outputs are pinned across implementations, not only compared
# between two runs in one process: a faster distance check must make the
# same decisions and draw the same random numbers.
PINNED_RANDOM = {
    (6, 200, 3): {
        "ell": 6, "iterations": 200, "feasible_count": 200,
        "min_complexity": 116, "max_complexity": 196,
        "best_kernel_rows": ["0x2", "0xa", "0x5", "0x18", "0x1b", "0x35"],
        "histogram": {
            "116": 1, "120": 2, "122": 2, "124": 1, "126": 2, "134": 3, "136": 5,
            "138": 4, "140": 2, "142": 2, "144": 10, "146": 2, "148": 7, "150": 5,
            "152": 4, "154": 11, "156": 4, "158": 4, "160": 13, "162": 3, "164": 6,
            "166": 5, "168": 17, "170": 7, "172": 1, "174": 4, "176": 4, "178": 7,
            "180": 2, "182": 5, "184": 5, "186": 2, "188": 15, "190": 2, "192": 5,
            "194": 4, "196": 22,
        },
    },
    (12, 40, 7): {
        "ell": 12, "iterations": 40, "feasible_count": 24,
        "min_complexity": 1298, "max_complexity": 2004,
        "best_kernel_rows": [
            "0x10", "0x204", "0x44", "0x404", "0x11", "0x982",
            "0x254", "0x1d", "0x4c8", "0x378", "0x4f2", "0xfff",
        ],
        "histogram": {
            "1298": 1, "1318": 1, "1444": 1, "1452": 1, "1458": 1, "1462": 1,
            "1464": 1, "1530": 2, "1584": 1, "1634": 1, "1660": 1, "1666": 1,
            "1680": 1, "1698": 1, "1736": 1, "1744": 1, "1750": 1, "1844": 1,
            "1868": 1, "1888": 1, "1914": 1, "1954": 1, "2004": 1,
        },
    },
    # 191 of the 200 trials give up: 126 at a dead end, 65 at the placement cap
    (14, 200, 1): {
        "ell": 14, "iterations": 200, "feasible_count": 9,
        "min_complexity": 2786, "max_complexity": 3946,
        "best_kernel_rows": [
            "0x80", "0x180", "0x440", "0x210", "0x5", "0x470", "0x9a",
            "0x832", "0x350", "0x2a61", "0x30c5", "0x779", "0x3bd0", "0x3517",
        ],
        "histogram": {
            "2786": 1, "2946": 1, "3032": 1, "3166": 1, "3476": 1, "3652": 1,
            "3814": 1, "3866": 1, "3946": 1,
        },
    },
    # 274 of the 300 trials give up: 78 at a dead end, 196 at the placement cap
    (16, 300, 9): {
        "ell": 16, "iterations": 300, "feasible_count": 26,
        "min_complexity": 5584, "max_complexity": 7748,
        "best_kernel_rows": [
            "0x8000", "0x108", "0x41", "0x8001", "0x101", "0x4052", "0xa11", "0x462",
            "0x1604", "0x210f", "0x2c70", "0x8db8", "0x6969", "0xcc0f", "0x6ea4", "0xffff",
        ],
        "histogram": {
            "5584": 1, "5888": 1, "6000": 1, "6040": 1, "6176": 1, "6276": 2, "6282": 1,
            "6442": 1, "6526": 1, "6534": 1, "6540": 1, "6578": 1, "6806": 1, "6830": 1,
            "6872": 1, "6890": 1, "6970": 1, "7004": 1, "7038": 1, "7116": 1, "7124": 1,
            "7202": 1, "7630": 1, "7716": 1, "7748": 1,
        },
    },
}

PINNED_BRUTE_ROWS = {
    2: (0x2, 0x3),
    3: (0x2, 0x5, 0x3),
    4: (0x4, 0xC, 0x6, 0xF),
    5: (0x10, 0x14, 0x5, 0xC, 0xF),
    6: (0x8, 0x18, 0x12, 0x3, 0x1E, 0x39),
    7: (0x10, 0x5, 0x6, 0x48, 0x6A, 0x39, 0x36),
    8: (0x20, 0x3, 0x5, 0x28, 0x53, 0x74, 0x3A, 0xFF),
    9: (0x4, 0x110, 0xC0, 0x41, 0x22, 0x66, 0x161, 0x15D, 0x1EA),
    10: (0x40, 0x120, 0x88, 0x280, 0x220, 0xE1, 0x381, 0x312, 0x175, 0x3DE),
}


@pytest.mark.parametrize("ell, iterations, seed", sorted(PINNED_RANDOM))
def test_random_seeded_output_pinned(ell, iterations, seed):
    stats = random_agent_search(ell, target_profile(ell), iterations, seed=seed)
    assert stats.to_json_dict() == PINNED_RANDOM[(ell, iterations, seed)]


def test_brute_seeded_output_pinned():
    for ell, rows in PINNED_BRUTE_ROWS.items():
        result = brute_force_search(target_profile(ell))
        assert isinstance(result, BitMatrix), ell
        assert result.rows == rows, ell


def test_brute_step_counts_pinned():
    # ell=14 exhausts every restart's budget share without a kernel
    result = brute_force_search(target_profile(14), step_limit=20_000)
    assert result == StepLimitExceeded(20_000)
    # a full enumeration of an infeasible profile counts every distance test
    result = brute_force_search(PartialDistanceProfile((2, 2, 2, 4)))
    assert result == Infeasible(187)


@pytest.mark.slow
def test_brute_complete_on_known_feasible_targets():
    """Criterion 4 core: every shipped target in [5, 16] is reachable."""
    for ell in range(5, 17):
        result = brute_force_search(target_profile(ell))
        assert isinstance(result, BitMatrix), ell
        assert compute_pdp(result).distances == target_profile(ell).distances


def _assert_brute_matches_oracle(target, step_limit=10**7):
    got = brute_force_search(target, step_limit)
    want, steps = oracle_brute_force_search(target, step_limit)
    if isinstance(want, BitMatrix):
        assert isinstance(got, BitMatrix) and got == want, (target, steps)
    else:
        assert got == want, target
    return steps


INFEASIBLE = [(2, 2), (2, 2, 2, 4)]


def test_brute_matches_oracle_on_targets_and_infeasible_profiles():
    for ell in range(2, 11):
        _assert_brute_matches_oracle(target_profile(ell))
    for distances in INFEASIBLE:
        _assert_brute_matches_oracle(PartialDistanceProfile(distances))


@pytest.mark.parametrize("ell", [6, 8])
def test_brute_matches_oracle_at_every_small_step_limit(ell):
    for limit in range(1, 301):
        _assert_brute_matches_oracle(target_profile(ell), limit)


@pytest.mark.parametrize("distances", [target_profile(8).distances,
                                       target_profile(10).distances, *INFEASIBLE])
def test_brute_matches_oracle_at_attempt_budget_boundaries(distances):
    """Per-attempt budgets one below, at and one above the steps the
    first attempt needs: capped one test short, ending on its last test,
    and with a test to spare (exhaustion at exactly the budget is a cap,
    not a proof of infeasibility)."""
    target = PartialDistanceProfile(distances)
    needed = _assert_brute_matches_oracle(target)
    for per_attempt in (needed - 1, needed, needed + 1):
        for limit in (RESTARTS * per_attempt, RESTARTS * per_attempt + RESTARTS - 1):
            _assert_brute_matches_oracle(target, limit)
    for limit in (needed - 1, needed, needed + 1):
        _assert_brute_matches_oracle(target, limit)

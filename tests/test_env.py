"""Construction environment: legality, replay, and reward arithmetic."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from polarkit.complexity import total_complexity_cached
from polarkit.pdp import compute_pdp, target_profile
from polarkit.reference import BEST16_COMPLEXITY
from polarkit.zero.env import (
    RewardConfig,
    Transition,
    default_reward_config,
    episode_return,
    forced_row_count,
    legal_actions,
    reset_env,
    step_env,
    trans_reward,
)
from tests.conftest import bare_board, closed_form_return


def _random_episode(ell, cfg, rng, install_forced=True):
    target = target_profile(ell)
    state = reset_env(target, rng) if install_forced else bare_board(target)
    transitions = []
    while not state.done:
        action = int(rng.choice(legal_actions(state)))
        nxt, reward, _ = step_env(state, action, cfg)
        transitions.append(Transition(state, action, reward))
        state = nxt
    return state, transitions


def test_forced_row_count():
    assert forced_row_count(target_profile(12)) == 1  # only D_11 == 12
    assert forced_row_count(target_profile(2)) == 1
    assert forced_row_count(target_profile(9)) == 0  # bottom target is 6 < 9


def test_reset_installs_forced_rows():
    state = reset_env(target_profile(4), seed=0)
    assert state.rows[0] == 0b1111
    assert state.current_row == 1
    assert state.steps == 0


def test_legal_actions_are_unset_bits():
    state = reset_env(target_profile(4), seed=1)
    row = state.rows[state.current_row]
    legal = legal_actions(state)
    assert all(not (row >> a) & 1 for a in legal)
    assert len(legal) == 4 - row.bit_count()


def test_illegal_action_rejected():
    cfg = default_reward_config(4)
    state = bare_board(target_profile(4))
    state, _, _ = step_env(state, 2, cfg)
    with pytest.raises(ValueError):
        step_env(state, 2, cfg)
    with pytest.raises(ValueError):
        step_env(state, 9, cfg)
    finished = replace(state, done=True)  # a finished state offers no action
    assert legal_actions(finished) == []
    with pytest.raises(ValueError, match="episode is finished"):
        step_env(finished, 0, cfg)


def test_failed_row_is_cleared():
    """A completed row at the wrong coset distance resets to zero."""
    cfg = default_reward_config(3)
    state = bare_board(target_profile(3))
    # bottom row (target distance 2): any weight-2 row passes
    state, _, _ = step_env(state, 0, cfg)
    state, r, _ = step_env(state, 1, cfg)
    assert state.current_row == 1
    assert r == cfg.row_reward
    # same row again is at distance 0 from the span below -> cleared
    state, r, _ = step_env(state, 0, cfg)
    state, r, _ = step_env(state, 1, cfg)
    assert r == -cfg.step_penalty
    assert state.current_row == 1
    assert state.rows[1] == 0


def test_transcript_replay_reproduces_rewards(rng):
    cfg = default_reward_config(5)
    for _ in range(10):
        final, transitions = _random_episode(5, cfg, rng)
        for t in transitions:
            assert t.action in legal_actions(t.state)
            _, reward, _ = step_env(t.state, t.action, cfg)
            assert reward == t.reward
        if final.current_row == final.ell:
            assert compute_pdp(final.kernel()).distances == target_profile(5).distances


def test_trans_reward_endpoints_and_monotonicity():
    cfg = default_reward_config(12)
    assert trans_reward(cfg.comp_min, cfg) == pytest.approx(cfg.r_max)
    assert trans_reward(cfg.comp_max, cfg) == pytest.approx(cfg.r_min)
    assert trans_reward(cfg.comp_min - 100, cfg) == pytest.approx(cfg.r_max)  # clamped
    values = [trans_reward(c, cfg) for c in range(cfg.comp_min, cfg.comp_max + 1, 10)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_trans_reward_published_value():
    cfg = default_reward_config(16)
    assert trans_reward(BEST16_COMPLEXITY, cfg) == pytest.approx(3604**2 / 3700, abs=1e-6)


def test_closed_form_return_matches_episodes(rng):
    """Criterion 6: episode totals equal the closed form on successful
    self-driven episodes."""
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


def test_game_limit_terminates(rng):
    cfg = RewardConfig(game_limit=5)
    state = bare_board(target_profile(9))
    steps = 0
    while not state.done:
        state, _, _ = step_env(state, int(rng.choice(legal_actions(state))), cfg)
        steps += 1
        assert steps <= 5
    assert state.steps <= 5


def test_reward_config_validation():
    with pytest.raises(ValueError):
        RewardConfig(comp_min=100, comp_max=100)


def test_default_configs_all_sizes():
    for ell in range(2, 17):
        cfg = default_reward_config(ell)
        assert cfg.comp_min < cfg.comp_max
        assert cfg.r_min <= cfg.r_max
    assert default_reward_config(16).comp_max == 5000
    assert default_reward_config(12).comp_max == 1500

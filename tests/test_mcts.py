"""Gumbel root search: determinism, degenerate cases, and a toy bandit."""

from __future__ import annotations

import numpy as np
import pytest

from polarkit.zero.mcts import MctsConfig, SearchSpec, mcts_select


def _bandit_spec(rewards: dict[int, float]) -> SearchSpec:
    """One-step problem: every action ends the episode with a fixed reward."""

    def step(state, action):
        return ("leaf", action), rewards[action], True

    def evaluate(state):
        n = max(rewards) + 1 if rewards else 1
        return np.zeros(n), 0.0, list(rewards)

    return SearchSpec(step=step, evaluate=evaluate)


def test_single_action_shortcut():
    spec = _bandit_spec({3: 1.0})
    action, policy = mcts_select("root", spec, MctsConfig(), np.random.default_rng(0))
    assert action == 3
    assert policy.tolist() == [0.0, 0.0, 0.0, 1.0]  # dense over the network's actions


def test_no_legal_action_raises():
    spec = _bandit_spec({})
    with pytest.raises(ValueError):
        mcts_select("root", spec, MctsConfig(), np.random.default_rng(0))


def test_two_action_bandit_prefers_higher_reward():
    spec = _bandit_spec({0: 0.0, 1: 1.0})
    cfg = MctsConfig(simulations=16, sampled_actions=2)
    wins = sum(
        mcts_select("root", spec, cfg, np.random.default_rng(seed))[0] == 1
        for seed in range(20)
    )
    assert wins >= 18  # Gumbel noise may rarely override a small gap


def test_improved_policy_is_distribution_on_legal_actions():
    spec = _bandit_spec({0: 0.0, 2: 0.5, 5: 1.0})
    cfg = MctsConfig(simulations=24, sampled_actions=3)
    _, policy = mcts_select("root", spec, cfg, np.random.default_rng(7))
    assert policy.shape == (6,)
    assert np.flatnonzero(policy).tolist() == [0, 2, 5]
    assert policy.sum() == pytest.approx(1.0, abs=1e-9)
    assert (policy >= 0).all()
    # higher reward should not get lower improved probability
    assert policy[5] >= policy[0]


def test_completed_q_adds_visited_returns_in_legal_order():
    """Sixteen of twenty actions are visited; the unvisited ones get the
    mixed value, whose sum of visited returns cancels 1e16 against -1e16.
    Adding left to right in legal order (not numpy's pairwise order)
    gives the pinned probabilities."""
    spec = _bandit_spec(dict(enumerate([1e16, -1e16] + [1.0] * 18)))
    cfg = MctsConfig(simulations=32, sampled_actions=16)
    action, policy = mcts_select("root", spec, cfg, np.random.default_rng(4))
    assert action == 3
    assert repr(float(policy[0])) == "0.002179691547864657"


def test_deterministic_given_seed():
    spec = _bandit_spec({0: 0.3, 1: 0.7, 2: 0.1})
    cfg = MctsConfig(simulations=16, sampled_actions=3)
    a1, p1 = mcts_select("root", spec, cfg, np.random.default_rng(42))
    a2, p2 = mcts_select("root", spec, cfg, np.random.default_rng(42))
    assert a1 == a2
    assert p1.tolist() == p2.tolist()


def test_config_validation():
    with pytest.raises(ValueError):
        MctsConfig(simulations=0)
    with pytest.raises(ValueError):
        MctsConfig(sampled_actions=0)


def test_multi_step_chain():
    """Two-step chain where the delayed reward dominates: from the root,
    action 0 leads to a state whose only action pays 2; action 1 pays 1
    immediately."""

    def step(state, action):
        if state == "root" and action == 0:
            return "mid", 0.0, False
        if state == "root":
            return "end", 1.0, True
        return "end", 2.0, True

    def evaluate(state):
        return np.zeros(2), 0.0, {"root": [0, 1], "mid": [0]}[state]

    spec = SearchSpec(step=step, evaluate=evaluate)
    cfg = MctsConfig(simulations=32, sampled_actions=2)
    wins = sum(
        mcts_select("root", spec, cfg, np.random.default_rng(seed))[0] == 0
        for seed in range(20)
    )
    assert wins >= 18

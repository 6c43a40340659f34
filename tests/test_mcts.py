"""Gumbel root search: determinism, degenerate cases, and a toy bandit."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarkit.zero.mcts import (
    MctsConfig,
    SearchSpec,
    _completed_policy,
    _Node,
    _sigma,
    _simulate,
    mcts_select,
)
from tests.conftest import oracle_completed_policy, oracle_sigma


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


def _node(logits, value, returns) -> _Node:
    """A node over len(logits) actions whose action i has backed up
    returns[i], added from 0.0 in order as `_visit` does."""
    node = _Node("state", np.array(logits, dtype=float), value, list(range(len(logits))))
    node.n = [len(r) for r in returns]
    for i, backed_up in enumerate(returns):
        for ret in backed_up:
            node.q_sum[i] += ret
    return node


def _arrays(node: _Node) -> SimpleNamespace:
    """The node's statistics as the oracle's arrays."""
    return SimpleNamespace(
        logits=np.array(node.logits),
        value=node.value,
        n=np.array(node.n, dtype=np.int64),
        q_sum=np.array(node.q_sum),
    )


def _assert_matches_oracle(node: _Node) -> None:
    arrays = _arrays(node)
    assert repr(_sigma(node)) == repr(oracle_sigma(arrays).tolist())
    assert repr(_completed_policy(node).tolist()) == repr(oracle_completed_policy(arrays).tolist())


# (logits, value, returns backed up into each action)
EDGE_NODES = {
    "no visit": [
        ([0.1 * i - 0.7 for i in range(w)], 0.3, [[]] * w) for w in range(1, 17)
    ],
    "all Q equal": [  # hi == lo, with and without unvisited actions
        ([float(i % 3) for i in range(w)], 0.5, [[0.5] * (i % 3) for i in range(w)])
        for w in range(1, 17)
    ],
    "tied scores": [
        ([1.0] * w, 0.0, [[2.0]] * w) for w in range(1, 17)
    ] + [
        ([0.0, 1.0, 1.0, 0.0] * 4, -1.0, [[], [1.0], [1.0], []] * 4),
    ],
    "negative rewards": [
        ([0.25 * i for i in range(w)], -3.0, [[-1.0 - i, -0.5] if i % 2 else [] for i in range(w)])
        for w in range(1, 17)
    ],
    "cancellation": [  # the visited sum cancels 1e16 against -1e16
        ([0.0] * 16, 0.0, [[1e16], [-1e16]] + [[1.0]] * 12 + [[]] * 2),
        ([0.0] * 16, 1.0, [[1e16, -1e16], [-1e16]] + [[1.0]] * 10 + [[]] * 4),
    ],
}


@pytest.mark.parametrize("case", sorted(EDGE_NODES))
def test_statistics_match_array_oracle_on_edge_cases(case):
    """List statistics give the array oracle's sigma and completed policy,
    repr for repr."""
    for logits, value, returns in EDGE_NODES[case]:
        _assert_matches_oracle(_node(logits, value, returns))


# exact specials (ties, signed zero, the 1e16 cancellation) among plain floats
_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 1e16, -1e16]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@given(
    st.lists(st.tuples(_floats, st.lists(_floats, max_size=6)), min_size=1, max_size=16),
    _floats,
)
@settings(max_examples=400, deadline=None)
def test_statistics_match_array_oracle(actions, value):
    """Widths 1..16, any visit counts and returns, negative ones included."""
    logits = [logit for logit, _ in actions]
    _assert_matches_oracle(_node(logits, value, [r for _, r in actions]))


_tied = st.sampled_from([0.0, 1.0])


@given(st.lists(st.tuples(_tied, st.lists(_tied, max_size=2)), min_size=1, max_size=16), _tied)
@settings(max_examples=300, deadline=None)
def test_simulate_takes_the_first_of_tied_maxima(actions, value):
    """Below the root, the descent visits the action that np.argmax picks
    over the oracle's scores: the first of tied maxima."""
    node = _node([logit for logit, _ in actions], value, [r for _, r in actions])
    arrays = _arrays(node)
    expected = int(np.argmax(oracle_completed_policy(arrays) - arrays.n / (1.0 + arrays.n.sum())))
    _simulate(node, _bandit_spec(dict.fromkeys(range(len(actions)), 0.0)))
    assert node.n == [k + (i == expected) for i, k in enumerate(arrays.n.tolist())]


def test_simulate_tie_goes_to_the_first_position():
    node = _node([0.0, 1.0, 1.0, 0.0], 0.0, [[]] * 4)
    _simulate(node, _bandit_spec(dict.fromkeys(range(4), 0.0)))
    assert node.n == [0, 1, 0, 0]

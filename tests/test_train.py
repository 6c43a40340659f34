"""Training loop: config round-trips, smoke runs, and reported kernels."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from polarkit.complexity import total_complexity_cached
from polarkit.pdp import meets_target, target_profile
from polarkit.zero.env import default_reward_config, legal_actions, reset_env, step_env
from polarkit.zero.mcts import MctsConfig, mcts_select
from polarkit.zero import train
from polarkit.zero.net import Network, NetworkSpec, encode_state
from polarkit.zero.train import (
    TrainConfig,
    dump_train_config,
    load_train_config,
    make_search_spec,
    self_play_episode,
    train_loop,
    value_scale_of,
)
from tests.conftest import uncached_search_spec

SMOKE = TrainConfig(
    ell=4,
    total_episodes=20,
    update_interval=10,
    batch_size=16,
    updates_per_iteration=4,
    simulations=8,
    sampled_actions=4,
    seed=1,
)


def test_config_roundtrip(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(dump_train_config(SMOKE))
    assert load_train_config(path) == SMOKE


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("ell=4\nbogus=1\n")
    with pytest.raises(ValueError):
        load_train_config(path)


def test_config_comments_ignored(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("# comment\nell=6  # inline\n\nseed=3\n")
    cfg = load_train_config(path)
    assert cfg.ell == 6
    assert cfg.seed == 3


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(total_episodes=10, update_interval=20)


def test_smoke_run_outputs(tmp_path):
    result = train_loop(SMOKE, out_dir=tmp_path)
    assert len(result.log_rows) == 2
    assert (tmp_path / "training_log.csv").exists()
    assert (tmp_path / "train_config.txt").exists()
    header = (tmp_path / "training_log.csv").read_text().splitlines()[0]
    assert header == "iteration,episodes,minReturn,maxReturn,meanReturn,bestComplexity,learningRate"
    if result.best_kernel is not None:
        assert (tmp_path / "best_kernel.txt").exists()
        assert meets_target(result.best_kernel, target_profile(4))
        assert result.best_complexity == total_complexity_cached(result.best_kernel)


def test_smoke_run_reproducible():
    a = train_loop(SMOKE)
    b = train_loop(SMOKE)
    assert a.log_rows == b.log_rows
    assert a.best_complexity == b.best_complexity


# Seeded self-play is pinned across implementations, not only compared
# between two runs in one process: a faster search must visit the same
# actions, add its floats in the same order and break ties the same way.
# The digest covers every action, every reward's repr and the improved
# policy's value on each legal action of each step.
PINNED_EPISODES = {
    # (ell, seed): (steps, succeeded, sha256 prefix)
    (8, 3): (46, True, "a9a2bcc93bb473b5"),
    (8, 5): (22, True, "59eb3e72045bca7d"),
    (12, 1): (1200, False, "51885704e0621437"),  # stalls until the game limit
    (16, 0): (200, False, "6403ba4ce868db1f"),  # 13..16 legal actions, 16-way roots
}

#: game limits other than the default: untrained ell=16 play stalls too
PINNED_GAME_LIMITS = {16: 200}

PINNED_SMOKE_ROWS = [
    {"iteration": 1, "episodes": 10, "minReturn": 14.9, "maxReturn": 15.033333333333335,
     "meanReturn": 14.98, "bestComplexity": 48, "learningRate": 0.003},
    {"iteration": 2, "episodes": 20, "minReturn": 14.9, "maxReturn": 15.033333333333335,
     "meanReturn": 14.913333333333336, "bestComplexity": 48, "learningRate": 0.003},
]


@pytest.mark.parametrize("ell, seed", sorted(PINNED_EPISODES))
def test_self_play_episode_pinned(ell, seed):
    network = Network(NetworkSpec(ell), seed=0)
    reward_cfg = default_reward_config(ell)
    if ell in PINNED_GAME_LIMITS:
        reward_cfg = replace(reward_cfg, game_limit=PINNED_GAME_LIMITS[ell])
    record = self_play_episode(network, reward_cfg, MctsConfig(), np.random.default_rng(seed), ell)
    transcript = {
        "actions": [t.action for t in record.transitions],
        "rewards": [repr(t.reward) for t in record.transitions],
        "policies": [
            [repr(float(policy[a])) for a in legal_actions(t.state)]
            for t, policy in zip(record.transitions, record.policies)
        ],
    }
    digest = hashlib.sha256(json.dumps(transcript).encode()).hexdigest()[:16]
    assert (len(record.transitions), record.succeeded, digest) == PINNED_EPISODES[(ell, seed)]


def test_self_play_episode_rejects_other_width():
    """A network for one width cannot play another: refused before the
    board is reset, so the generator draws nothing."""
    network = Network(NetworkSpec(8), seed=0)
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="network plays ell=8, not ell=12"):
        self_play_episode(network, default_reward_config(12), MctsConfig(), rng, 12)
    assert rng.bit_generator.state == before


def test_smoke_run_pinned():
    result = train_loop(SMOKE)
    assert result.log_rows == PINNED_SMOKE_ROWS
    assert result.best_complexity == 48


@pytest.mark.parametrize("spike", ["nan", "tenfold"])
def test_divergence_guard_skips_update_and_halves_step(monkeypatch, spike):
    """A non-finite loss, or one above ten times the running loss, skips
    its update and halves the step size.  The spike is the second and last
    update of the run; the first sets the running loss to its own loss."""
    losses, at_spike = [], {}
    loss_and_grads = Network.loss_and_grads

    def spiking(self, *batch):
        loss, grads = loss_and_grads(self, *batch)
        losses.append(loss)
        if len(losses) == 2:
            at_spike.update({k: v.copy() for k, v in self.params.items()})
            loss = math.nan if spike == "nan" else 11 * losses[0]
        return loss, grads

    monkeypatch.setattr(Network, "loss_and_grads", spiking)
    result = train_loop(replace(SMOKE, total_episodes=10, updates_per_iteration=2))
    assert len(losses) == 2
    assert [row["learningRate"] for row in result.log_rows] == [train.LEARNING_RATE / 2]
    fresh = Network(NetworkSpec(SMOKE.ell), seed=SMOKE.seed).params
    assert any(not np.array_equal(at_spike[k], fresh[k]) for k in fresh)  # first update ran
    for key, value in result.network.params.items():
        np.testing.assert_array_equal(value, at_spike[key], err_msg=key)


def test_no_update_before_the_replay_holds_a_batch():
    """One ell=4 episode ends within its game limit, so it gives fewer
    transitions than a batch of 401 and the network stays as initialised."""
    cfg = TrainConfig(ell=4, total_episodes=1, update_interval=1, batch_size=401,
                      simulations=8, sampled_actions=4, seed=1)
    assert default_reward_config(4).game_limit < cfg.batch_size
    result = train_loop(cfg)
    fresh = Network(NetworkSpec(4), seed=1).params
    assert result.network.params.keys() == fresh.keys()
    for key, value in result.network.params.items():
        np.testing.assert_array_equal(value, fresh[key], err_msg=key)
    assert result.log_rows[0]["learningRate"] == train.LEARNING_RATE


# Untrained ell=12 episodes stall until the game limit; a 200-step limit
# keeps the memo checks fast and still ends some episodes in that branch.
SHORT_GAME = 200


def _short_game(ell):
    reward_cfg = replace(default_reward_config(ell), game_limit=SHORT_GAME)
    return reward_cfg, value_scale_of(reward_cfg, ell)


def _drive_episode(spec, reward_cfg, mcts_cfg, ell, seed):
    """(action, reward repr, improved policy) of every step of one seeded
    episode searched through `spec`."""
    rng = np.random.default_rng(seed)
    state = reset_env(target_profile(ell), rng)
    steps = []
    while not state.done:
        action, improved = mcts_select(state, spec, mcts_cfg, rng)
        state, reward, _ = step_env(state, action, reward_cfg)
        steps.append((action, repr(reward), improved.tolist()))
    return steps


def _count_forward(network):
    """Replace network.forward by a wrapper; returns its list of calls."""
    calls = []
    forward = network.forward

    def counted(x):
        calls.append(x)
        return forward(x)

    network.forward = counted
    return calls


@pytest.mark.parametrize("ell", [8, 12])
def test_memoised_search_matches_uncached(ell):
    """The board memo is invisible to the search: every action, reward and
    improved policy equals the uncached oracle's."""
    reward_cfg, _ = _short_game(ell)
    network = Network(NetworkSpec(ell), seed=0)
    for seed in range(3):
        cached = make_search_spec(network, reward_cfg)
        uncached = uncached_search_spec(network, reward_cfg)
        assert (_drive_episode(cached, reward_cfg, MctsConfig(), ell, seed)
                == _drive_episode(uncached, reward_cfg, MctsConfig(), ell, seed)), seed


def test_forward_runs_once_per_board_per_episode(monkeypatch):
    """The network and the legal actions run once per board, and the
    search never evaluates a finished state: a game-limit end has the
    board of an unfinished transposition, whose memo entry it would fill
    with no legal actions."""
    ell = 12
    reward_cfg, _ = _short_game(ell)
    network = Network(NetworkSpec(ell), seed=0)
    calls = _count_forward(network)
    legal_calls = []

    def counted_legal(state):
        legal_calls.append(state)
        return legal_actions(state)

    monkeypatch.setattr(train, "legal_actions", counted_legal)
    for _ in range(2):  # the same episode twice: each spec evaluates afresh
        spec = make_search_spec(network, reward_cfg)
        boards, finished = [], []

        def evaluate(state, spec=spec, boards=boards):
            assert not state.done
            boards.append((state.rows, state.current_row))
            return spec.evaluate(state)

        def step(state, action, spec=spec, finished=finished):
            nxt, reward, done = spec.step(state, action)
            finished.append(done)
            return nxt, reward, done

        calls.clear()
        legal_calls.clear()
        searched = replace(spec, step=step, evaluate=evaluate)
        _drive_episode(searched, reward_cfg, MctsConfig(), ell, 1)
        assert len(calls) == len(legal_calls) == len(set(boards)) < len(boards)
        assert any(finished)  # the search reached finished states


def test_memo_key_is_the_encoded_board():
    """A transposition (same board, other step count) reuses the evaluation;
    the same rows with another current row do not, since encode_state reads
    both.  In play `current_row` follows from `rows`, so only a hand-built
    state tells a rows-only key apart.  Cached logits are read-only."""
    ell = 12
    reward_cfg, vscale = _short_game(ell)
    network, twin = Network(NetworkSpec(ell), seed=0), Network(NetworkSpec(ell), seed=0)
    calls = _count_forward(network)
    spec = make_search_spec(network, reward_cfg)
    state = reset_env(target_profile(ell), seed=0)
    transposed = replace(state, steps=state.steps + 4)
    next_row = replace(state, current_row=state.current_row + 1)
    for s in (state, transposed, next_row):
        logits, value, legal = spec.evaluate(s)
        assert legal == legal_actions(s)
        expected_logits, expected_value = twin.predict(s)
        assert logits.tolist() == expected_logits.tolist()
        assert value == expected_value * vscale
        assert not logits.flags.writeable
    assert len(calls) == 2
    with pytest.raises(ValueError):
        logits[0] = 0.0


def test_spec_after_sgd_step_sees_the_updated_network():
    ell = 8
    reward_cfg, vscale = _short_game(ell)
    network = Network(NetworkSpec(ell), seed=0)
    state = reset_env(target_profile(ell), seed=0)
    before, _, _ = make_search_spec(network, reward_cfg).evaluate(state)
    _, grads = network.loss_and_grads(encode_state(state)[None, :], np.eye(ell)[[0]], np.ones(1))
    network.sgd_step(grads, lr=0.1)
    after, value, _ = make_search_spec(network, reward_cfg).evaluate(state)
    expected_logits, expected_value = network.predict(state)
    assert after.tolist() == expected_logits.tolist()
    assert after.tolist() != before.tolist()
    assert value == expected_value * vscale

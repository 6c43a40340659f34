"""Training loop: config round-trips, smoke runs, and reported kernels."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from polarkit.complexity import total_complexity_cached
from polarkit.pdp import meets_target, target_profile
from polarkit.zero.env import default_reward_config, legal_actions
from polarkit.zero.mcts import MctsConfig
from polarkit.zero.net import Network, NetworkSpec
from polarkit.zero.train import (
    TrainConfig,
    dump_train_config,
    load_train_config,
    self_play_episode,
    train_loop,
)

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
}

PINNED_SMOKE_ROWS = [
    {"iteration": 1, "episodes": 10, "minReturn": 14.9, "maxReturn": 15.033333333333335,
     "meanReturn": 14.98, "bestComplexity": 48, "learningRate": 0.003},
    {"iteration": 2, "episodes": 20, "minReturn": 14.9, "maxReturn": 15.033333333333335,
     "meanReturn": 14.913333333333336, "bestComplexity": 48, "learningRate": 0.003},
]


@pytest.mark.parametrize("ell, seed", sorted(PINNED_EPISODES))
def test_self_play_episode_pinned(ell, seed):
    network = Network(NetworkSpec(ell), seed=0)
    record = self_play_episode(
        network, default_reward_config(ell), MctsConfig(), np.random.default_rng(seed), ell
    )
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


def test_smoke_run_pinned():
    result = train_loop(SMOKE)
    assert result.log_rows == PINNED_SMOKE_ROWS
    assert result.best_complexity == 48

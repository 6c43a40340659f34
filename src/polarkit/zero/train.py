"""Self-play training loop.

Episodes are driven by the Gumbel tree search; transitions are stored in
a ring replay buffer as (encoded state, improved policy, normalized
return-to-go) and the network is updated between batches of episodes.
Per-iteration return statistics and the best kernel found go to a CSV
log that matches the reward-curve figures.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from polarkit.complexity import total_complexity_cached
from polarkit.gf2 import BitMatrix
from polarkit.kernelio import write_kernel
from polarkit.pdp import target_profile
from polarkit.zero.env import (
    EnvState,
    RewardConfig,
    Transition,
    default_reward_config,
    episode_return,
    legal_actions,
    reset_env,
    step_env,
)
from polarkit.zero.mcts import MctsConfig, SearchSpec, mcts_select
from polarkit.zero.net import Network, NetworkSpec, encode_state


#: Replay buffer length, in transitions.
REPLAY_CAPACITY = 100_000
#: Initial SGD step size; the divergence guard halves it.
LEARNING_RATE = 3e-3
#: Iterations between checkpoints (the last iteration is always saved).
CHECKPOINT_INTERVAL = 10


@dataclass(frozen=True)
class TrainConfig:
    ell: int = 12
    total_episodes: int = 20_000
    update_interval: int = 200  # episodes per iteration (reference runs use 2000)
    batch_size: int = 256
    updates_per_iteration: int = 64
    simulations: int = 32
    sampled_actions: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        target_profile(self.ell)  # rejects kernel sizes without a target
        for key in ("update_interval", "batch_size"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1")
        for key in ("updates_per_iteration", "seed"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be nonnegative")
        if self.total_episodes < self.update_interval or self.total_episodes % self.update_interval:
            raise ValueError("total_episodes must be a positive multiple of update_interval")
        if self.batch_size > REPLAY_CAPACITY:
            raise ValueError(f"batch_size must not exceed the replay capacity {REPLAY_CAPACITY}")
        self.mcts_config  # MctsConfig rejects simulations < sampled_actions or < 1

    @property
    def mcts_config(self) -> MctsConfig:
        return MctsConfig(self.simulations, self.sampled_actions)


def load_train_config(path: str | Path) -> TrainConfig:
    """Flat key=value text of integers; unknown, repeated and unparsable
    keys are rejected with their line number."""
    values: dict[str, int] = {}
    keys = {f.name for f in fields(TrainConfig)}
    for number, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in keys:
            raise ValueError(f"line {number}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"line {number}: {key} is set twice")
        try:
            values[key] = int(val)
        except ValueError:
            raise ValueError(f"line {number}: {key} expects an integer, got {val!r}") from None
    return TrainConfig(**values)


def dump_train_config(cfg: TrainConfig) -> str:
    return "".join(f"{f.name}={getattr(cfg, f.name)}\n" for f in fields(TrainConfig))


@dataclass(frozen=True)
class EpisodeRecord:
    transitions: tuple[Transition, ...]
    policies: tuple[np.ndarray, ...]  # improved policy over all actions per step
    final_state: EnvState

    @property
    def succeeded(self) -> bool:
        return self.final_state.current_row == self.final_state.ell


def make_search_spec(network: Network, reward_cfg: RewardConfig) -> SearchSpec:
    """Search hooks for one episode.  The search evaluates unfinished states
    only, whose network answer and legal actions read just the board,
    `(rows, current_row)`, so each board is evaluated once and its
    transpositions reuse the result.  The network changes only between
    episodes, so the memo never outlives the weights it was filled from."""
    value_scale = value_scale_of(reward_cfg, network.spec.ell)
    memo: dict[tuple[tuple[int, ...], int], tuple[np.ndarray, float, list[int]]] = {}

    def evaluate(state: EnvState):
        key = (state.rows, state.current_row)
        if key not in memo:
            logits, value = network.predict(state)
            logits.flags.writeable = False  # shared by every node of this board
            # legal stays a list: numpy reads a tuple index as one index per axis
            memo[key] = logits, value * value_scale, legal_actions(state)
        return memo[key]

    return SearchSpec(partial(step_env, cfg=reward_cfg), evaluate)


def value_scale_of(cfg: RewardConfig, ell: int) -> float:
    """Rough episode-return ceiling used to normalize value targets."""
    return cfg.r_max + ell * cfg.row_reward


def self_play_episode(
    network: Network,
    reward_cfg: RewardConfig,
    mcts_cfg: MctsConfig,
    rng: np.random.Generator,
    ell: int,
) -> EpisodeRecord:
    if ell != network.spec.ell:
        raise ValueError(f"network plays ell={network.spec.ell}, not ell={ell}")
    spec = make_search_spec(network, reward_cfg)
    state = reset_env(target_profile(ell), rng)
    transitions: list[Transition] = []
    policies: list[np.ndarray] = []
    while not state.done:
        action, improved = mcts_select(state, spec, mcts_cfg, rng)
        nxt, reward, _ = step_env(state, action, reward_cfg)
        transitions.append(Transition(state, action, reward))
        policies.append(improved)
        state = nxt
    return EpisodeRecord(tuple(transitions), tuple(policies), state)


@dataclass
class TrainResult:
    best_complexity: int | None
    best_kernel: BitMatrix | None
    log_rows: list[dict]
    network: Network


def train_loop(cfg: TrainConfig, out_dir: str | Path | None = None) -> TrainResult:
    ell = cfg.ell
    reward_cfg = default_reward_config(ell)
    mcts_cfg = cfg.mcts_config
    rng = np.random.default_rng(cfg.seed)
    network = Network(NetworkSpec(ell), seed=cfg.seed)
    vscale = value_scale_of(reward_cfg, ell)
    replay: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=REPLAY_CAPACITY)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "train_config.txt").write_text(dump_train_config(cfg))
    best: tuple[int, BitMatrix] | None = None
    log_rows: list[dict] = []
    lr = LEARNING_RATE
    running_loss: float | None = None
    iterations = cfg.total_episodes // cfg.update_interval
    for iteration in range(1, iterations + 1):
        returns = []
        for _ in range(cfg.update_interval):
            record = self_play_episode(network, reward_cfg, mcts_cfg, rng, ell)
            returns.append(episode_return(list(record.transitions)))
            if record.succeeded:
                kernel = record.final_state.kernel()
                comp = total_complexity_cached(kernel)
                if best is None or comp < best[0]:
                    best = (comp, kernel)
            rewards = [t.reward for t in record.transitions]
            to_go = np.cumsum(rewards[::-1])[::-1]
            for transition, improved, z in zip(record.transitions, record.policies, to_go):
                replay.append((encode_state(transition.state), improved, float(z) / vscale))
        for _ in range(cfg.updates_per_iteration):
            if len(replay) < cfg.batch_size:
                break
            idx = rng.integers(len(replay), size=cfg.batch_size)
            batch = [replay[int(i)] for i in idx]
            x = np.stack([b[0] for b in batch])
            pol = np.stack([b[1] for b in batch])
            z = np.array([b[2] for b in batch])
            loss, grads = network.loss_and_grads(x, pol, z)
            if not math.isfinite(loss) or (running_loss is not None and loss > 10 * running_loss):
                lr /= 2  # divergence guard; noted in the log row below
            else:
                network.sgd_step(grads, lr)
                running_loss = loss if running_loss is None else 0.99 * running_loss + 0.01 * loss
        row = {
            "iteration": iteration,
            "episodes": iteration * cfg.update_interval,
            "minReturn": min(returns),
            "maxReturn": max(returns),
            "meanReturn": float(np.mean(returns)),
            "bestComplexity": best[0] if best else "",
            "learningRate": lr,
        }
        log_rows.append(row)
        if out is not None:
            _write_log(out / "training_log.csv", log_rows)
            if iteration % CHECKPOINT_INTERVAL == 0 or iteration == iterations:
                network.save(str(out / f"checkpoint_{iteration:04d}.npz"))
            if best is not None:
                write_kernel(out / "best_kernel.txt", best[1])
    return TrainResult(best[0] if best else None, best[1] if best else None, log_rows, network)


def _write_log(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)

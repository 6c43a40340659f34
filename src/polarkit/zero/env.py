"""Kernel-construction environment.

The agent fills a row-reversed kernel bottom row first, one bit per step.
A row that reaches its target weight is checked by `pdp.valid_rows`, the
row rule every construction shares: a passing row is kept and play
advances, a failing row is cleared.  Finishing the top row scores the
completed kernel's decoding complexity through a shaped terminal reward.

States are immutable; `step_env` is a pure function, which lets tree
search branch from any state without copying machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from polarkit.complexity import total_complexity_cached
from polarkit.gf2 import BitMatrix
from polarkit.pdp import PartialDistanceProfile, valid_rows
from polarkit.reference import RANDOM_SEARCH_REFERENCE

#: Random bits `reset_env` sets in the first free row (fewer if its
#: target weight leaves no room).
PRESET_BITS = 1


@dataclass(frozen=True)
class RewardConfig:
    row_reward: float = 5.0
    comp_min: int = 650
    comp_max: int = 1500
    game_limit: int = 1200

    step_penalty: ClassVar[float] = 0.1
    gamma: ClassVar[float] = 2.0
    r_min: ClassVar[float] = 0.0

    def __post_init__(self) -> None:
        if self.comp_min >= self.comp_max:
            raise ValueError("comp_min must be below comp_max")

    @property
    def r_max(self) -> float:
        """Terminal bonus at comp_min: one unit per unit of complexity range."""
        return float(self.comp_max - self.comp_min)


def default_reward_config(ell: int) -> RewardConfig:
    """Published constants where stated (ell 12 and 16); for other sizes
    the bounds follow the same recipe from the random-search reference
    statistics (floor of the best known / ceiling of the worst observed)."""
    if ell == 16:
        return RewardConfig(10.0, 1300, 5000, 100 * ell)
    if ell == 12:
        return RewardConfig(5.0, 650, 1500, 100 * ell)
    lo, hi, _ = RANDOM_SEARCH_REFERENCE.get(ell, (32, 64, 0))
    comp_min = max(1, (lo * 9 // 10) // 10 * 10)
    comp_max = -(-hi * 11 // 10) // 10 * 10 + 10
    return RewardConfig(5.0, comp_min, comp_max, 100 * ell)


@dataclass(frozen=True)
class EnvState:
    rows: tuple[int, ...]  # row-reversed: rows[0] is the bottom kernel row
    current_row: int
    steps: int
    targets: tuple[int, ...]  # row-reversed distance targets
    done: bool

    @property
    def ell(self) -> int:
        return len(self.rows)

    def kernel(self) -> BitMatrix:
        return BitMatrix(self.ell, tuple(reversed(self.rows)))


@dataclass(frozen=True)
class Transition:
    state: EnvState
    action: int
    reward: float


def trans_reward(comp: int, cfg: RewardConfig) -> float:
    comp = min(max(comp, cfg.comp_min), cfg.comp_max)
    frac = (cfg.comp_max - comp) / (cfg.comp_max - cfg.comp_min)
    return cfg.r_min + (cfg.r_max - cfg.r_min) * frac**cfg.gamma


def forced_row_count(target: PartialDistanceProfile) -> int:
    """Bottom rows whose content is forced: a distance target of ell
    admits only the all-ones row."""
    count = 0
    for d in reversed(target.distances):
        if d != target.ell:
            break
        count += 1
    return count


def reset_env(
    target: PartialDistanceProfile, seed: int | np.random.Generator | None = None
) -> EnvState:
    """Install the forced bottom rows, then preset ``PRESET_BITS`` random
    bits of the first free row.  Presets do not count as steps."""
    ell = target.ell
    rng = np.random.default_rng(seed)
    reversed_targets = tuple(reversed(target.distances))
    rows = [0] * ell
    forced = forced_row_count(target)
    all_ones = (1 << ell) - 1
    for i in range(forced):
        rows[i] = all_ones
    if forced < ell:
        want = reversed_targets[forced]
        presets = min(PRESET_BITS, max(want - 1, 0))
        cols = rng.choice(ell, size=presets, replace=False)
        for j in cols:
            rows[forced] |= 1 << int(j)
    return EnvState(tuple(rows), forced, 0, reversed_targets, forced == ell)


def legal_actions(state: EnvState) -> list[int]:
    """Unset bit positions of the current row.  Action j sets bit j, which
    is kernel column ell-1-j (column 0 is a row's most significant bit)."""
    if state.done:
        return []
    row = state.rows[state.current_row]
    return [j for j in range(state.ell) if not (row >> j) & 1]


def step_env(state: EnvState, action: int, cfg: RewardConfig) -> tuple[EnvState, float, bool]:
    if state.done:
        raise ValueError("episode is finished")
    row = state.rows[state.current_row]
    if not 0 <= action < state.ell or (row >> action) & 1:
        raise ValueError(f"illegal action {action}")
    row |= 1 << action
    steps = state.steps + 1
    i = state.current_row
    rows = list(state.rows)
    rows[i] = row
    reward = -cfg.step_penalty
    done = steps >= cfg.game_limit
    if row.bit_count() == state.targets[i]:
        if valid_rows(state.ell, state.rows[:i], state.targets[i])[row]:
            reward = cfg.row_reward
            i += 1
            if i == state.ell:
                kernel = BitMatrix(state.ell, tuple(reversed(rows)))
                reward += trans_reward(total_complexity_cached(kernel), cfg)
                done = True
        else:
            rows[i] = 0
    return EnvState(tuple(rows), i, steps, state.targets, done), reward, done


def episode_return(transitions: list[Transition]) -> float:
    return float(sum(t.reward for t in transitions))

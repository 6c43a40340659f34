"""Gumbel root action selection with sequential halving.

Root candidates are sampled without replacement by perturbing the policy
logits with Gumbel noise; the simulation budget is spent in halving
rounds, keeping the candidates with the best perturbed-logit-plus-
transformed-Q score.  Below the root, simulations descend by the
deterministic completed-policy rule, so repeated calls with the same
seed and network are bit-reproducible.

The search is generic over the environment: it only sees the three
callables bundled in `SearchSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


@dataclass(frozen=True)
class MctsConfig:
    simulations: int = 32
    sampled_actions: int = 16
    c_visit: float = 50.0
    c_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.simulations >= self.sampled_actions >= 1:
            raise ValueError("need simulations >= sampled_actions >= 1")


@dataclass(frozen=True)
class SearchSpec:
    """Environment hooks: legal actions of a state, transition, and the
    network evaluation (policy logits over all actions + value)."""

    legal: Callable[[Any], list[int]]
    step: Callable[[Any, int], tuple[Any, float, bool]]  # -> (next, reward, done)
    evaluate: Callable[[Any], tuple[np.ndarray, float]]


@dataclass
class _Node:
    state: Any
    terminal: bool
    logits: np.ndarray
    value: float
    legal: list[int]
    n: dict[int, int] = field(default_factory=dict)
    q_sum: dict[int, float] = field(default_factory=dict)
    rewards: dict[int, float] = field(default_factory=dict)
    children: dict[int, "_Node"] = field(default_factory=dict)

    def q(self, a: int) -> float:
        return self.q_sum[a] / self.n[a]


def _sigma(q: np.ndarray, max_visits: int, cfg: MctsConfig) -> np.ndarray:
    return (cfg.c_visit + max_visits) * cfg.c_scale * q


def _normalized_q(node: _Node, cfg: MctsConfig) -> np.ndarray:
    """Completed Q over node.legal, min-max normalized to [0, 1] so the
    transformed values stay commensurate with policy logits regardless
    of the reward scale."""
    legal = node.legal
    visited_q = [node.q(a) for a in legal if node.n.get(a, 0)]
    v_mix = (node.value + sum(visited_q)) / (1 + len(visited_q))
    q = np.array([node.q(a) if node.n.get(a, 0) else v_mix for a in legal])
    lo, hi = q.min(), q.max()
    return (q - lo) / (hi - lo) if hi > lo else np.full_like(q, 0.5)


def _completed_policy(node: _Node, cfg: MctsConfig) -> np.ndarray:
    """Improved policy over node.legal: softmax of logits plus
    transformed completed-Q (unvisited actions fall back to the node's
    value estimate)."""
    legal = node.legal
    logits = np.array([node.logits[a] for a in legal])
    visits = np.array([node.n.get(a, 0) for a in legal])
    score = logits + _sigma(_normalized_q(node, cfg), int(visits.max(initial=0)), cfg)
    score -= score.max()
    probs = np.exp(score)
    return probs / probs.sum()


def _expand(state: Any, spec: SearchSpec, terminal: bool) -> _Node:
    if terminal:
        return _Node(state, True, np.zeros(0), 0.0, [])
    logits, value = spec.evaluate(state)
    return _Node(state, False, logits, value, spec.legal(state))


def _visit(node: _Node, a: int, spec: SearchSpec, cfg: MctsConfig) -> float:
    """Take action a at node: expand the child on its first visit, descend
    into it afterwards, and back the return up into node's statistics."""
    if a not in node.children:
        nxt, reward, done = spec.step(node.state, a)
        child = _expand(nxt, spec, done)
        node.children[a] = child
        node.rewards[a] = reward
        ret = reward + child.value
    else:
        ret = node.rewards[a] + _simulate(node.children[a], spec, cfg)
    node.n[a] = node.n.get(a, 0) + 1
    node.q_sum[a] = node.q_sum.get(a, 0.0) + ret
    return ret


def _simulate(node: _Node, spec: SearchSpec, cfg: MctsConfig) -> float:
    """One descent below the root; returns the backed-up return."""
    if node.terminal:
        return 0.0
    probs = _completed_policy(node, cfg)
    visits = np.array([node.n.get(a, 0) for a in node.legal])
    a = node.legal[int(np.argmax(probs - visits / (1.0 + visits.sum())))]
    return _visit(node, a, spec, cfg)


def mcts_select(
    state: Any,
    spec: SearchSpec,
    cfg: MctsConfig,
    rng: np.random.Generator,
) -> tuple[int, dict[int, float]]:
    """Choose a root action and return it with the improved policy."""
    root = _expand(state, spec, False)
    legal = root.legal
    if not legal:
        raise ValueError("no legal action at the root")
    if len(legal) == 1:
        return legal[0], {legal[0]: 1.0}
    gumbel = rng.gumbel(size=len(legal))
    base = {a: root.logits[a] + gumbel[i] for i, a in enumerate(legal)}
    m = min(cfg.sampled_actions, len(legal))
    candidates = sorted(legal, key=lambda a: -base[a])[:m]
    rounds = max(1, math.ceil(math.log2(m)))
    budget = cfg.simulations

    def scores(pool: list[int]) -> dict[int, float]:
        norm_q = _normalized_q(root, cfg)
        q_of = dict(zip(legal, norm_q))
        max_v = max(root.n.get(a, 0) for a in pool)
        return {a: base[a] + float(_sigma(np.array(q_of[a]), max_v, cfg)) for a in pool}

    remaining = list(candidates)
    for _ in range(rounds):
        per_action = max(1, budget // (rounds * max(1, len(remaining))))
        for a in remaining:
            for _ in range(per_action):
                _visit(root, a, spec, cfg)
        if len(remaining) > 1:
            ranked = scores(remaining)
            remaining = sorted(remaining, key=lambda a: -ranked[a])[
                : max(1, len(remaining) // 2)
            ]
    final = scores(remaining)
    best = max(remaining, key=final.__getitem__)
    probs = _completed_policy(root, cfg)
    return best, {a: float(p) for a, p in zip(legal, probs)}

"""Gumbel root action selection with sequential halving.

Root candidates are sampled without replacement by perturbing the policy
logits with Gumbel noise; the simulation budget is spent in halving
rounds, keeping the candidates with the best perturbed-logit-plus-
transformed-Q score.  Below the root, simulations descend by the
deterministic completed-policy rule, so repeated calls with the same
seed and network are bit-reproducible.

The search is generic over the environment: it only sees the two
callables bundled in `SearchSpec`.

A node has one statistic per legal action, at most ell of them, so the
bookkeeping is plain Python floats and lists: numpy's cost per call
outweighs its speed on so few entries.  Each float is formed by the same
IEEE operations, in the same order, as numpy array code over the node
would form it (the tests keep such code as the oracle); only the softmax
runs in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


#: sigma(q) = (C_VISIT + max_b N(b)) * q: Danihelka et al.'s transform with scale 1
C_VISIT = 50.0


@dataclass(frozen=True)
class MctsConfig:
    simulations: int = 32
    sampled_actions: int = 16

    def __post_init__(self) -> None:
        if not self.simulations >= self.sampled_actions >= 1:
            raise ValueError("need simulations >= sampled_actions >= 1")


@dataclass(frozen=True)
class SearchSpec:
    """Environment hooks: transition, and the evaluation of an unfinished
    state (policy logits over all actions, value, legal actions; an
    unfinished state has at least one)."""

    step: Callable[[Any, int], tuple[Any, float, bool]]  # -> (next, reward, done)
    evaluate: Callable[[Any], tuple[np.ndarray, float, list[int]]]


class _Node:
    """An expanded state; its statistics are lists over positions in
    `legal` (empty only on a finished state)."""

    __slots__ = ("state", "value", "legal", "logits", "n", "q_sum", "rewards", "children")

    def __init__(self, state: Any, logits: np.ndarray, value: float, legal: list[int]) -> None:
        self.state, self.value, self.legal = state, value, legal
        self.logits: list[float] = logits[legal].tolist()
        self.n = [0] * len(legal)
        self.q_sum = [0.0] * len(legal)
        self.rewards = [0.0] * len(legal)
        self.children: list[_Node | None] = [None] * len(legal)


def _sigma(node: _Node) -> list[float]:
    """Transformed completed Q over node.legal: Q min-max normalized to
    [0, 1], so it stays commensurate with policy logits regardless of the
    reward scale, then scaled by C_VISIT plus the largest visit count."""
    n = node.n
    visited_q = [s / k for s, k in zip(node.q_sum, n) if k]
    if not visited_q:
        return [C_VISIT * 0.5] * len(n)  # every Q is the value estimate
    if len(visited_q) == len(n):
        q = visited_q
    else:
        # Python's left-to-right sum: numpy's pairwise sum rounds differently
        mixed = (node.value + sum(visited_q)) / (1 + len(visited_q))
        q = [s / k if k else mixed for s, k in zip(node.q_sum, n)]
    scale = C_VISIT + max(n)
    lo, hi = min(q), max(q)
    if hi > lo:
        return [scale * ((x - lo) / (hi - lo)) for x in q]
    return [scale * 0.5] * len(q)


def _completed_policy(node: _Node) -> np.ndarray:
    """Improved policy over node.legal: softmax of logits plus
    transformed completed-Q (unvisited actions fall back to the node's
    value estimate)."""
    score = [x + s for x, s in zip(node.logits, _sigma(node))]
    top = max(score)
    # np.exp, not math.exp, which differs in the last bit on some inputs;
    # the sum is numpy's too, in its own order
    probs = np.exp(np.array([x - top for x in score]))
    return probs / probs.sum()


def _expand(state: Any, spec: SearchSpec, done: bool) -> _Node:
    return _Node(state, np.zeros(0), 0.0, []) if done else _Node(state, *spec.evaluate(state))


def _visit(node: _Node, i: int, spec: SearchSpec) -> float:
    """Take the action at position i of node.legal: expand the child on
    its first visit, descend into it afterwards, and back the return up
    into node's statistics."""
    child = node.children[i]
    if child is None:
        nxt, reward, done = spec.step(node.state, node.legal[i])
        child = node.children[i] = _expand(nxt, spec, done)
        node.rewards[i] = reward
        ret = reward + child.value
    else:
        ret = node.rewards[i] + _simulate(child, spec)
    node.n[i] += 1
    node.q_sum[i] += ret
    return ret


def _simulate(node: _Node, spec: SearchSpec) -> float:
    """One descent below the root; returns the backed-up return."""
    if not node.legal:
        return 0.0
    total = 1.0 + sum(node.n)
    score = [p - k / total for p, k in zip(_completed_policy(node).tolist(), node.n)]
    # max keeps the first of tied maxima, as np.argmax does
    i = max(range(len(score)), key=score.__getitem__)
    return _visit(node, i, spec)


def mcts_select(
    state: Any,
    spec: SearchSpec,
    cfg: MctsConfig,
    rng: np.random.Generator,
) -> tuple[int, np.ndarray]:
    """Choose a root action and return it with the improved policy, a
    distribution over all of the network's actions that is zero off the
    legal ones."""
    logits, value, legal = spec.evaluate(state)
    if not legal:
        raise ValueError("no legal action at the root")
    improved = np.zeros(len(logits))
    if len(legal) == 1:
        improved[legal[0]] = 1.0
        return legal[0], improved
    root = _Node(state, logits, value, legal)
    base = logits[legal] + rng.gumbel(size=len(legal))
    m = min(cfg.sampled_actions, len(legal))
    # stable sorts break ties by position in legal, first maximum first
    remaining = np.argsort(-base, kind="stable")[:m]
    rounds = max(1, math.ceil(math.log2(m)))
    for _ in range(rounds):
        per_action = max(1, cfg.simulations // (rounds * len(remaining)))
        for i in remaining.tolist():
            for _ in range(per_action):
                _visit(root, i, spec)
        if len(remaining) > 1:
            # the survivors share the largest visit count, so sigma's max is theirs
            score = base[remaining] + np.array(_sigma(root))[remaining]
            remaining = remaining[np.argsort(-score, kind="stable")[: len(remaining) // 2]]
    # ceil(log2 m) halvings leave a single candidate
    improved[legal] = _completed_policy(root)
    return legal[int(remaining[0])], improved

"""Shared fixtures and naive reference oracles.

The oracles here deliberately use list-of-bits representations and brute
enumeration so they share no code with the bit-packed implementations
they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import product
from typing import Iterable, Sequence

import numpy as np
import pytest

from polarkit import codec
from polarkit.codec import build_link_tables, phase_llrs_trellis
from polarkit.complexity import ReuseMode, comb_cost, extend_kernel, split_point
from polarkit.gf2 import (
    MAX_COLS,
    BitMatrix,
    coset_distances,
    eliminate,
    interval_mask,
    is_subcode,
    rank,
    row_basis,
)
from polarkit.pdp import PartialDistanceProfile, compute_pdp, target_profile
from polarkit.reference import BEST12
from polarkit.search import ORDER_SEED, RESTARTS, Infeasible, StepLimitExceeded
from polarkit.zero.env import EnvState, RewardConfig, legal_actions, step_env, trans_reward
from polarkit.zero.mcts import C_VISIT, SearchSpec
from polarkit.zero.train import value_scale_of


def pack_row(bits: Sequence[int]) -> int:
    """Pack a left-to-right bit sequence into an int (column 0 = MSB), the
    inverse of `gf2.unpack_row`."""
    value = 0
    for b in bits:
        value = (value << 1) | (b & 1)
    return value


#: The exponent of each width's `pdp.target_profile`, as tabulated (4 decimals).
TARGET_EXPONENTS = {
    2: 0.5000, 3: 0.4206, 4: 0.5000, 5: 0.4307, 6: 0.4513, 7: 0.4580, 8: 0.5000,
    9: 0.4616, 10: 0.4692, 11: 0.4775, 12: 0.4825, 13: 0.4883, 14: 0.4910,
    15: 0.4978, 16: 0.5183,
}


def supported_sizes() -> list[int]:
    """The widths `pdp.target_profile` has a target for, found by asking it."""
    sizes = []
    for ell in range(1, MAX_COLS + 1):
        try:
            target_profile(ell)
        except ValueError:
            continue
        sizes.append(ell)
    return sizes


def naive_rank(bit_rows: list[list[int]]) -> int:
    """Gaussian elimination over lists of bits."""
    rows = [list(r) for r in bit_rows]
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def naive_span(bit_rows: list[list[int]]) -> list[tuple[int, ...]]:
    """All codewords by explicit enumeration of coefficient vectors."""
    if not bit_rows:
        return [()]
    ncols = len(bit_rows[0])
    words = set()
    for coeffs in product((0, 1), repeat=len(bit_rows)):
        word = [0] * ncols
        for c, row in zip(coeffs, bit_rows):
            if c:
                word = [a ^ b for a, b in zip(word, row)]
        words.add(tuple(word))
    return sorted(words)


def naive_coset_min_distance(v_bits: list[int], bit_rows: list[list[int]]) -> int:
    if not bit_rows:
        return sum(v_bits)  # span is just the zero word
    return min(
        sum(a ^ b for a, b in zip(v_bits, word)) for word in naive_span(bit_rows)
    )


def _kernel_bit_rows(kernel: BitMatrix) -> list[list[int]]:
    ell = kernel.ncols
    return [[(row >> (ell - 1 - j)) & 1 for j in range(ell)] for row in kernel.rows]


def naive_kronecker_power(kernel: BitMatrix, m: int) -> np.ndarray:
    """The dense generator matrix K^(x)m, by repeated np.kron."""
    k = np.array(_kernel_bit_rows(kernel), dtype=np.int64)
    g = np.ones((1, 1), dtype=np.int64)
    for _ in range(m):
        g = np.kron(g, k) % 2
    return g


def kernel_phase_metric_exhaustive(
    kernel: BitMatrix, phase: int, prior_bits: tuple[int, ...], llrs
) -> float:
    """metric(u_phase = 0) - metric(u_phase = 1): the half-sum correlation
    metric maximized over every completion, enumerated by naive_span."""
    rows = _kernel_bit_rows(kernel)
    ell = kernel.ncols
    offset = [0] * ell
    for b, row in zip(prior_bits, rows[:phase], strict=True):
        if b:
            offset = [a ^ c for a, c in zip(offset, row)]
    tail = rows[phase + 1 :]
    completions = naive_span(tail) if tail else [(0,) * ell]

    def best(u_phase: int) -> float:
        base = [a ^ (c & u_phase) for a, c in zip(offset, rows[phase])]
        return max(
            0.5 * sum(-llr if a ^ c else llr for a, c, llr in zip(base, word, llrs))
            for word in completions
        )

    return best(0) - best(1)


def trellis_phase_metric(kernel: BitMatrix, phase: int, prior: tuple[int, ...], llrs) -> float:
    """`codec.phase_llrs_trellis` on one case: the prior decisions given as
    bits, re-encoded into the prefix codeword here."""
    prior_bits = np.array(prior, dtype=np.uint8).reshape(1, phase)
    prefix = (prior_bits @ np.array(kernel.to_bits(), dtype=np.uint8)[:phase]) % 2
    llr, _ = phase_llrs_trellis(build_link_tables(kernel), phase, prefix, np.atleast_2d(llrs))
    return float(llr[0])


def section_tree_phase_llrs(tree, prefix, llrs) -> np.ndarray:
    """`codec.phase_llrs_trellis`'s phase LLRs with no compiled program and
    no workspace: the phase tree (a root view of `complexity.section_trees`'
    table) evaluated recursively into fresh arrays.  A leaf's table is its
    column's prefix-signed half LLR h, as [h, -h] (one entry when the
    column is known) or, for a column free in the shortened code, [|h|]; a
    node's is the max over its 2^w linked sums of its children's entries."""
    signed = np.asarray(llrs, dtype=np.float64).T * (0.5 - np.asarray(prefix).T)

    def table(node) -> np.ndarray:
        if not node.children:
            h = signed[node.x]
            return np.abs(h)[None] if node.s_basis else np.stack([h, -h])[: 1 + node.v]
        left, right = (table(child)[link] for child, link in zip(node.children, node.links))
        return (left + right).max(axis=1)

    root = table(tree)
    return root[0] - root[1]


@cache
def trellis_oracle_cases() -> tuple[tuple[BitMatrix, ...], tuple[float, ...]]:
    """Acceptance criterion 3's cases: 15 random kernels at every width
    2..12 (odd widths split sections into unequal halves) and BEST12, and
    for each phase of each kernel, with random prior decisions and channel
    LLRs, |trellis phase LLR - kernel_phase_metric_exhaustive|.  Returns
    (kernels, deviations); computed once per session, since the codec test
    and the acceptance gate read the same cases."""
    rng = np.random.default_rng(33)
    kernels = tuple(random_kernel(ell, rng) for ell in range(2, 13) for _ in range(15))
    kernels += (BEST12,)
    deviations = []
    for kernel in kernels:
        for phase in range(kernel.ncols):
            prior = tuple(int(b) for b in rng.integers(0, 2, size=phase))
            llrs = rng.normal(size=kernel.ncols)
            got = trellis_phase_metric(kernel, phase, prior, llrs)
            deviations.append(abs(got - kernel_phase_metric_exhaustive(kernel, phase, prior, llrs)))
    return kernels, tuple(deviations)


def stateless_sc_decode(
    kernel: BitMatrix,
    frozen: frozenset[int],
    llrs: np.ndarray,
    base: int = 0,
    errors: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Differential oracle of `codec._sc_decode_rec`: the same recursion,
    rate-0 skips included, with no tables held between phases.  Each
    evaluated phase calls `codec.phase_llrs_trellis(dec, a, x, flat)`,
    whose `cold` program evaluates every node of the phase tree."""
    batch, length = llrs.shape
    if length == 1:
        if errors is not None:
            errors[base] += int(np.count_nonzero(llrs[:, 0] < 0))
        u = np.zeros((batch, 1), dtype=np.uint8) if base in frozen else (llrs < 0).astype(np.uint8)
        return u, u.copy()
    dec = build_link_tables(kernel)
    bits = np.array(kernel.to_bits(), dtype=np.uint8)
    ell = kernel.ncols
    sub = length // ell
    flat = llrs.reshape(batch, ell, sub).transpose(0, 2, 1).reshape(batch * sub, ell)
    x = np.zeros((batch * sub, ell), dtype=np.uint8)
    u_blocks = []
    for a in range(ell):
        start = base + a * sub
        if errors is None and frozen.issuperset(range(start, start + sub)):
            u_blocks.append(np.zeros((batch, sub), dtype=np.uint8))
            continue
        phase_llr = codec.phase_llrs_trellis(dec, a, x, flat)[0].reshape(batch, sub)
        u_a, v_a = stateless_sc_decode(kernel, frozen, phase_llr, start, errors)
        u_blocks.append(u_a)
        x ^= v_a.reshape(batch * sub, 1) & bits[a]
    u = np.concatenate(u_blocks, axis=1)
    return u, x.reshape(batch, sub, ell).transpose(0, 2, 1).reshape(batch, length)


def reduced_basis(rows: Iterable[int]) -> tuple[int, ...]:
    """Fully reduced echelon basis: a canonical fingerprint of the row space."""
    basis = row_basis(rows)
    for i, r in enumerate(basis):
        p = r.bit_length() - 1
        for j in range(len(basis)):
            if j != i and (basis[j] >> p) & 1:
                basis[j] ^= r
    return tuple(sorted(basis, reverse=True))


def shortened_basis(rows: Iterable[int], outside_mask: int) -> tuple[int, ...]:
    """Reduced echelon basis of the subcode whose outside-mask part is zero.

    Gaussian elimination with pivots restricted to the outside columns;
    residuals whose outside part cancels span exactly the shortened subcode.
    """
    residuals = eliminate({}, rows, outside_mask)
    return reduced_basis(r for r in residuals if not r & outside_mask)


def greedy_selection(
    seeds: Iterable[int], rows: Sequence[int], reduced: Iterable[int]
) -> tuple[int, ...]:
    """The rows whose ``reduced`` form lies outside the span of ``seeds``
    and of the forms kept before it, with every row read: the
    representatives' selection without its early stop."""
    pivots: dict[int, int] = {}
    eliminate(pivots, seeds)
    return tuple(r for r, res in zip(rows, eliminate(pivots, reduced), strict=True) if res)


@dataclass(frozen=True)
class OracleNode:
    """A section node with every field computed eagerly (the attributes
    of a ``complexity.SectionNode`` view)."""

    x: int
    y: int
    w: int
    v: int
    children: tuple["OracleNode", ...]
    s_basis: tuple[int, ...]
    mask: int
    w_reps: tuple[int, ...]
    v_reps: tuple[int, ...]
    phase: int

    @property
    def is_leaf(self) -> bool:
        return self.y - self.x == 1

    @property
    def k_s(self) -> int:
        return len(self.s_basis)

    @property
    def comb_cost(self) -> int:
        return 0 if self.is_leaf else comb_cost(self.w, self.v)


def build_section_tree(extended: BitMatrix) -> OracleNode:
    """Differential oracle for ``complexity.section_trees``: one phase's
    tree built from scratch, every node eliminating all the phase's rows."""
    ncols = extended.ncols
    full_mask = (1 << ncols) - 1
    code_basis = row_basis(extended.rows)
    phase = ncols - 1 - extended.nrows  # the extended rows are phase..ell-1

    def wv_reps(s_b, child_span, inside):
        w_reps = greedy_selection(child_span, s_b, s_b)
        v_reps = greedy_selection(s_b, code_basis, [r & inside for r in code_basis])
        return w_reps, v_reps

    def node(x: int, y: int) -> OracleNode:
        inside = interval_mask(ncols, x, y)
        s_b = shortened_basis(extended.rows, full_mask ^ inside)
        if y - x == 1:
            w_r, v_r = wv_reps(s_b, (), inside)
            return OracleNode(x, y, 0, len(v_r), (), s_b, inside, w_r, v_r, phase)
        z = split_point(x, y)
        left = node(x, z)
        right = node(z, y)
        w_r, v_r = wv_reps(s_b, left.s_basis + right.s_basis, inside)
        return OracleNode(x, y, len(w_r), len(v_r), (left, right), s_b, inside, w_r, v_r, phase)

    return node(0, ncols - 1)


def oracle_reuse_eligible(prev, nxt) -> bool:
    """``complexity.SectionTable.reuse_eligible`` as its rule reads, on two
    nodes (oracle nodes or views) of one interval in consecutive phases:
    equal child shortened codes, then a span test of the representatives."""
    if not prev.children or not nxt.children:
        return False
    if any(p.s_basis != n.s_basis for p, n in zip(prev.children, nxt.children)):
        return False
    return is_subcode(nxt.w_reps + nxt.v_reps, prev.w_reps + prev.v_reps)


def oracle_section_trees(kernel: BitMatrix) -> list[OracleNode]:
    return [build_section_tree(extend_kernel(kernel, phase)) for phase in range(kernel.ncols)]


def oracle_total_complexity(kernel: BitMatrix, policy: ReuseMode) -> dict:
    """``complexity.total_complexity(kernel, policy).to_json_dict()`` over
    ``oracle_section_trees``, in two recursive walks per phase: one finds
    the maximal reused sections, by ``oracle_reuse_eligible`` under
    ``ALL_CONTIGUOUS``, and a second charges every node outside them."""

    def reused_sections(prev, nxt, prev_reused: set) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []

        def walk(p, n, held: bool) -> None:
            if n.is_leaf:
                return
            key = (n.x, n.y)
            if policy is not ReuseMode.SECTION_TABLES:
                fits = oracle_reuse_eligible(p, n)
            else:
                left, right = p.children
                fits = held and (
                    n.s_basis == p.s_basis
                    or (key not in prev_reused and n.s_basis == left.s_basis + right.s_basis)
                )
            if fits:
                out.append(key)
            else:
                for pc, nc in zip(p.children, n.children):
                    walk(pc, nc, held and key not in prev_reused)

        if policy is not ReuseMode.NONE:
            for pc, nc in zip(prev.children, nxt.children):
                walk(pc, nc, True)
        return out

    def cost_with_reuse(tree, reused: set) -> int:
        if tree.is_leaf or (tree.x, tree.y) in reused:
            return 0
        return sum(cost_with_reuse(c, reused) for c in tree.children) + tree.comb_cost

    trees = oracle_section_trees(kernel)
    per_phase = []
    reused: list[tuple[int, int]] = []
    for i, tree in enumerate(trees):
        if i:
            reused = reused_sections(trees[i - 1], tree, set(reused))
        cost = cost_with_reuse(tree, set(reused))
        per_phase.append({"phase": i, "cost": cost, "reused": [list(iv) for iv in sorted(reused)]})
    return {
        "ell": kernel.ncols,
        "policy": policy.value,
        "total": sum(p["cost"] for p in per_phase),
        "per_phase": per_phase,
    }


def oracle_brute_force_search(target, step_limit):
    """``search.brute_force_search`` as a stack of per-level candidate
    iterators, testing each candidate against the coset-distance table
    directly.  Returns the outcome and the steps spent; for a kernel,
    the steps up to and including the test that placed its top row."""
    ell = target.ell
    wants = target.distances
    total_steps = 0
    per_attempt = max(1, step_limit // RESTARTS)
    for a in range(RESTARTS):
        budget = min(per_attempt, step_limit - total_steps)

        def candidates(level: int):
            # every word of weight D_i, ascending, then shuffled
            vs = np.flatnonzero(coset_distances(ell) == wants[ell - 1 - level]).tolist()
            np.random.default_rng([ORDER_SEED, a, level]).shuffle(vs)
            return iter(vs)

        rows: list[int] = []  # rows[0] is the bottom row (ell-1), built upward
        iters = [candidates(0)]
        steps = 0
        capped = False
        while iters and not capped:
            want = wants[ell - len(iters)]  # filling kernel row ell - len(iters)
            table = coset_distances(ell, tuple(rows))
            advanced = False
            for cand in iters[-1]:
                steps += 1
                if table[cand] == want:
                    rows.append(cand)
                    if len(rows) == ell:
                        kernel = BitMatrix(ell, tuple(reversed(rows)))
                        assert compute_pdp(kernel) == target
                        return kernel, total_steps + steps
                    iters.append(candidates(len(rows)))
                    advanced = True
                if advanced or steps >= budget:
                    capped = steps >= budget
                    break
            if not advanced and not capped:
                iters.pop()
                if rows:
                    rows.pop()
        total_steps += steps
        if not capped:
            # a full enumeration finished without a kernel: truly infeasible
            return Infeasible(total_steps), total_steps
        if total_steps >= step_limit:
            break
    return StepLimitExceeded(total_steps), total_steps


def random_kernel(ell: int, rng: np.random.Generator) -> BitMatrix:
    """Uniform random non-singular ell x ell kernel (rejection sampling)."""
    while True:
        rows = tuple(int(r) for r in rng.integers(1, 1 << ell, size=ell))
        if rank(rows) == ell:
            return BitMatrix(ell, rows)


def bare_board(target: PartialDistanceProfile) -> EnvState:
    """The empty board of `target`'s game, without `env.reset_env`'s forced
    rows and presets: the agent plays every bit itself, so a successful
    episode's total equals `closed_form_return` exactly."""
    return EnvState((0,) * target.ell, 0, 0, tuple(reversed(target.distances)), False)


def closed_form_return(steps: int, ell: int, comp: int, cfg: RewardConfig) -> float:
    """Total of a successful episode that played every bit itself: step
    penalties on non-completing steps, one row reward per row, and the
    shaped terminal bonus."""
    return -cfg.step_penalty * (steps - ell) + trans_reward(comp, cfg) + ell * cfg.row_reward


def uncached_search_spec(network, reward_cfg) -> SearchSpec:
    """`train.make_search_spec` without its board memo: every evaluation
    runs the network."""
    value_scale = value_scale_of(reward_cfg, network.spec.ell)

    def evaluate(state):
        logits, value = network.predict(state)
        return logits, value * value_scale, legal_actions(state)

    return SearchSpec(partial(step_env, cfg=reward_cfg), evaluate)


def oracle_sigma(node) -> np.ndarray:
    """`zero.mcts._sigma` as numpy array code.  `node` holds arrays over
    the legal actions, `n` (int64) and `q_sum`, and the scalar `value`."""
    visited = node.n > 0
    q = node.q_sum / np.maximum(node.n, 1)
    # Python's left-to-right sum: numpy's pairwise sum rounds differently
    visited_q = q[visited].tolist()
    q[~visited] = (node.value + sum(visited_q)) / (1 + len(visited_q))
    lo, hi = q.min(), q.max()
    q = (q - lo) / (hi - lo) if hi > lo else np.full_like(q, 0.5)
    return (C_VISIT + int(node.n.max())) * q


def oracle_completed_policy(node) -> np.ndarray:
    """`zero.mcts._completed_policy` as numpy array code, over a node as
    `oracle_sigma` takes it plus the array `logits`."""
    score = node.logits + oracle_sigma(node)
    score -= score.max()
    probs = np.exp(score)
    return probs / probs.sum()


#: seed of the `rng` fixture
RNG_SEED = 20240824


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(RNG_SEED)

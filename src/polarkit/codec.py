"""Polar encoding and successive-cancellation decoding with arbitrary
kernels.

Per-kernel phase metrics (the LLR of symbol u_i given the previous
decisions and the ell channel LLRs) come from two interchangeable paths:
an exhaustive max-marginalization oracle, and a trellis built from the
section trees of the complexity model.  Both use max-approximation
correlation metrics, so they agree to floating-point error.

The trellis tables of a section node are indexed by the cosets of the
shortened code inside the punctured code (2^v entries); a parent entry is
the max over 2^w combinations of linked child entries.  Coset indices are
coordinates over the canonical v-representative rows that the section
tree already carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from polarkit.complexity import SectionNode, build_section_tree, extend_kernel
from polarkit.gf2 import BitMatrix, eliminate, interval_mask, span_iter


@dataclass(frozen=True)
class PolarCodeSpec:
    ell: int
    m: int
    k: int
    kernel: BitMatrix
    frozen: frozenset[int]

    def __post_init__(self) -> None:
        n = self.n
        if n > 4096:
            raise ValueError("ell^m must not exceed 4096")
        if self.kernel.ncols != self.ell or self.kernel.nrows != self.ell:
            raise ValueError("kernel shape must match ell")
        if not self.frozen <= set(range(n)) or len(self.frozen) != n - self.k:
            raise ValueError("frozen set must contain exactly n-k indices in [0, n)")

    @property
    def n(self) -> int:
        return self.ell**self.m


def kernel_array(kernel: BitMatrix) -> np.ndarray:
    return np.array(kernel.to_bits(), dtype=np.uint8)


@lru_cache(maxsize=64)
def kronecker_power(kernel: BitMatrix, m: int) -> np.ndarray:
    if m == 0:
        return np.ones((1, 1), dtype=np.uint8)
    g = kernel_array(kernel)
    for _ in range(m - 1):
        g = np.kron(g, kernel_array(kernel)) % 2
    return g


def encode(spec: PolarCodeSpec, u: np.ndarray) -> np.ndarray:
    """c = u * K^(m) over GF(2); u must be zero on frozen positions."""
    u = np.asarray(u, dtype=np.uint8)
    if u.shape[-1] != spec.n:
        raise ValueError("message length must be n")
    if any(np.any(u[..., i]) for i in spec.frozen):
        raise ValueError("frozen positions must be zero")
    return (u @ kronecker_power(spec.kernel, spec.m)) % 2


# ---------------------------------------------------------------------------
# Phase metrics


def _row_offset(kernel: BitMatrix, prior_bits: np.ndarray) -> np.ndarray:
    """Batched codeword offset of the known prefix: (batch, i) bits times
    the first i kernel rows, as a (batch, ell) bit array."""
    i = prior_bits.shape[-1]
    rows = kernel_array(kernel)[:i]
    return (prior_bits.astype(np.uint8) @ rows) % 2


def kernel_phase_metric_exhaustive(
    kernel: BitMatrix, phase: int, prior_bits: tuple[int, ...], llrs: np.ndarray
) -> float:
    """metric(u_phase = 0) - metric(u_phase = 1), maximizing the half-sum
    correlation metric over all completions by enumeration."""
    ell = kernel.ncols
    if len(prior_bits) != phase:
        raise ValueError("need exactly `phase` prior bits")
    llrs = np.asarray(llrs, dtype=np.float64)
    offset = 0
    for b, row in zip(prior_bits, kernel.rows[:phase]):
        if b:
            offset ^= row
    tail = kernel.rows[phase + 1 :]
    best = [-math.inf, -math.inf]
    col_bit = np.array([1 << (ell - 1 - j) for j in range(ell)], dtype=np.int64)
    for b in (0, 1):
        base = offset ^ (kernel.rows[phase] if b else 0)
        for s in span_iter(list(tail)):
            bits = ((base ^ s) & col_bit) != 0
            metric = 0.5 * float(np.sum(np.where(bits, -llrs, llrs)))
            if metric > best[b]:
                best[b] = metric
    return best[0] - best[1]


@dataclass(frozen=True)
class _LeafPlan:
    column: int
    v: int  # 0: single known-bit entry; 1: two entries [bit0, bit1]
    s: int  # 1: the column is free inside the code -> entry is max(m0, m1)


@dataclass(frozen=True)
class _NodePlan:
    v: int
    w: int
    link_a: np.ndarray  # (2^v, 2^w) child-L coset indices
    link_b: np.ndarray
    children: tuple["_NodePlan | _LeafPlan", "_NodePlan | _LeafPlan"]


def _build_plan(node: SectionNode, ncols: int) -> "_NodePlan | _LeafPlan":
    if node.is_leaf:
        return _LeafPlan(node.x, node.v, node.k_s)
    plans = tuple(_build_plan(c, ncols) for c in node.children)
    # words[alpha * 2^w + beta]: bit k of the index selects (w_reps + v_reps)[k]
    words = [0]
    for g in node.w_reps + node.v_reps:
        words += [word ^ g for word in words]
    # Coset coordinates in a child: eliminate on its ncols columns, with
    # v-representative k carrying coefficient bit ncols + k above them, so a
    # word's residual holds its v-coordinates once its columns cancel.
    low = (1 << ncols) - 1
    links = []
    for child in node.children:
        inside = interval_mask(ncols, child.x, child.y)
        seeds = [(1 << (ncols + k)) | (r & inside) for k, r in enumerate(child.v_reps)]
        seeds += child.s_basis
        residuals = eliminate({}, seeds + [word & inside for word in words], low)[len(seeds):]
        if any(r & low for r in residuals):
            raise ValueError("word outside the punctured code")
        links.append(np.array([r >> ncols for r in residuals], dtype=np.int64))
    shape = (1 << node.v, 1 << node.w)
    return _NodePlan(node.v, node.w, links[0].reshape(shape), links[1].reshape(shape), plans)


@dataclass(frozen=True)
class KernelTrellis:
    """Per-phase decoding plans for one kernel."""

    kernel: BitMatrix
    plans: tuple["_NodePlan | _LeafPlan", ...]


@lru_cache(maxsize=64)
def build_link_tables(kernel: BitMatrix) -> KernelTrellis:
    ell = kernel.ncols
    plans = []
    for phase in range(ell):
        extended = extend_kernel(kernel, phase)
        tree = build_section_tree(extended)
        plans.append(_build_plan(tree, extended.ncols))
    return KernelTrellis(kernel, tuple(plans))


def _eval_plan(plan: "_NodePlan | _LeafPlan", half_llrs: np.ndarray) -> np.ndarray:
    """Table of max correlation metrics per coset: (batch, 2^v)."""
    if isinstance(plan, _LeafPlan):
        lam = half_llrs[:, plan.column]
        if plan.s:
            return np.abs(lam)[:, None]
        if plan.v:
            return np.stack([lam, -lam], axis=1)
        return lam[:, None]
    t_left = _eval_plan(plan.children[0], half_llrs)
    t_right = _eval_plan(plan.children[1], half_llrs)
    cand = t_left[:, plan.link_a] + t_right[:, plan.link_b]  # (batch, 2^v, 2^w)
    return cand.max(axis=2)


def phase_llrs_trellis(
    trellis: KernelTrellis, phase: int, prior_bits: np.ndarray, llrs: np.ndarray
) -> np.ndarray:
    """Batched phase LLRs: prior_bits (batch, phase), llrs (batch, ell)."""
    llrs = np.asarray(llrs, dtype=np.float64)
    signs = 1.0 - 2.0 * _row_offset(trellis.kernel, np.atleast_2d(prior_bits))
    table = _eval_plan(trellis.plans[phase], 0.5 * signs * llrs)
    assert table.shape[1] == 2
    return table[:, 0] - table[:, 1]


def kernel_phase_metric_trellis(
    kernel: BitMatrix, phase: int, prior_bits: tuple[int, ...], llrs: np.ndarray
) -> float:
    trellis = build_link_tables(kernel)
    prior = np.array([prior_bits], dtype=np.uint8).reshape(1, len(prior_bits))
    return float(phase_llrs_trellis(trellis, phase, prior, np.atleast_2d(llrs))[0])


# ---------------------------------------------------------------------------
# Successive cancellation


def _sc_decode_rec(
    spec: PolarCodeSpec,
    trellis: KernelTrellis,
    llrs: np.ndarray,
    base: int,
    genie_errors: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (decisions u, re-encoded block v) for a length-n' block of
    the recursion, batched over axis 0."""
    batch, length = llrs.shape
    if length == 1:
        if genie_errors is not None:
            genie_errors[base] += int(np.count_nonzero(llrs[:, 0] < 0))
            u = np.zeros((batch, 1), dtype=np.uint8)
        elif base in spec.frozen:
            u = np.zeros((batch, 1), dtype=np.uint8)
        else:
            u = (llrs < 0).astype(np.uint8)
        return u, u.copy()
    ell = spec.ell
    sub = length // ell
    lam = llrs.reshape(batch, ell, sub).transpose(0, 2, 1)  # (batch, sub, ell)
    flat = lam.reshape(batch * sub, ell)
    v_prev = np.zeros((batch * sub, 0), dtype=np.uint8)
    u_blocks = []
    for a in range(ell):
        phase_llr = phase_llrs_trellis(trellis, a, v_prev, flat).reshape(batch, sub)
        u_a, v_a = _sc_decode_rec(spec, trellis, phase_llr, base + a * sub, genie_errors)
        u_blocks.append(u_a)
        v_prev = np.concatenate([v_prev, v_a.reshape(batch * sub, 1)], axis=1)
    u = np.concatenate(u_blocks, axis=1)
    v = (v_prev @ kernel_array(spec.kernel)) % 2  # (batch*sub, ell)
    codeword = v.T.reshape(ell, batch, sub).transpose(1, 0, 2).reshape(batch, length)
    return u, codeword


def sc_decode_batch(spec: PolarCodeSpec, llrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
    if llrs.shape[1] != spec.n:
        raise ValueError("LLR length must be n")
    trellis = build_link_tables(spec.kernel)
    return _sc_decode_rec(spec, trellis, llrs, 0, None)


def sc_decode(spec: PolarCodeSpec, llrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decoded message and the codeword obtained by re-encoding it."""
    u, c = sc_decode_batch(spec, llrs)
    return u[0], c[0]


# ---------------------------------------------------------------------------
# AWGN harness


def noise_sigma(snr_db: float, rate: float) -> float:
    return 1.0 / math.sqrt(2.0 * rate * 10.0 ** (snr_db / 10.0))


def select_frozen_set(
    ell: int,
    m: int,
    k: int,
    kernel: BitMatrix,
    snr_db: float,
    trials: int,
    seed: int,
    batch: int = 256,
) -> frozenset[int]:
    """Genie-aided Monte Carlo: all-zero transmission, per-index
    first-decision error counts, worst n-k indices frozen (ties toward
    the smaller index)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = ell**m
    spec = PolarCodeSpec(ell, m, n, kernel, frozenset())  # frozen unused in genie mode
    trellis = build_link_tables(kernel)
    sigma = noise_sigma(snr_db, k / n)
    rng = np.random.default_rng(seed)
    errors = np.zeros(n, dtype=np.int64)
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        y = 1.0 + sigma * rng.standard_normal((b, n))
        llrs = 2.0 * y / sigma**2
        _sc_decode_rec(spec, trellis, llrs, 0, errors)
        done += b
    order = sorted(range(n), key=lambda i: (-errors[i], i))
    return frozenset(order[: n - k])


@dataclass(frozen=True)
class BlerResult:
    snr_db: float
    trials: int
    block_errors: int

    @property
    def bler(self) -> float:
        return self.block_errors / self.trials


def simulate_bler(
    spec: PolarCodeSpec,
    snr_db_list: list[float],
    trials: int,
    seed: int,
    batch: int = 256,
) -> list[BlerResult]:
    """Random messages, BPSK (0 -> +1) over AWGN with rate-scaled noise,
    SC decoding, block-error counts."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = spec.n
    info = np.array(sorted(set(range(n)) - spec.frozen), dtype=np.int64)
    results = []
    for idx, snr_db in enumerate(snr_db_list):
        sigma = noise_sigma(snr_db, spec.k / n)
        rng = np.random.default_rng([seed, idx])
        block_errors = 0
        done = 0
        while done < trials:
            b = min(batch, trials - done)
            u = np.zeros((b, n), dtype=np.uint8)
            if info.size:
                u[:, info] = rng.integers(0, 2, size=(b, info.size), dtype=np.uint8)
            x = 1.0 - 2.0 * encode(spec, u).astype(np.float64)
            y = x + sigma * rng.standard_normal((b, n))
            llrs = 2.0 * y / sigma**2
            decoded, _ = sc_decode_batch(spec, llrs)
            block_errors += int(np.count_nonzero(np.any(decoded != u, axis=1)))
            done += b
        results.append(BlerResult(snr_db, trials, block_errors))
    return results


def bler_csv(results: list[BlerResult]) -> str:
    lines = ["snr_db,trials,errors,bler"]
    lines += [f"{r.snr_db},{r.trials},{r.block_errors},{r.bler:.6e}" for r in results]
    return "\n".join(lines) + "\n"

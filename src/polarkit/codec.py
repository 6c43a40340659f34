"""Polar encoding and successive-cancellation decoding with arbitrary
kernels.

The transform x = u * K^(x)m is computed as m butterfly levels of one
kernel-multiply step over the ell axis (Arikan, "Channel polarization",
IEEE Trans. IT 2009).  The SC decoder re-encodes through a running
codeword of each block's decided phases, updated once per phase.  A
sub-block whose indices are all frozen is decided zero without running
its phase metric or the recursion below it (a rate-0 node: Alamdar-Yazdi
and Kschischang, IEEE Comm. Letters 2011); the genie construction of
`select_frozen_set` freezes every index, so it still decodes every block.

Per-kernel phase metrics (the LLR of symbol u_i given the previous
decisions and the ell channel LLRs) come from a trellis evaluated on the
section trees of the complexity model, with max-approximation
correlation metrics.  The tests check it against exhaustive
max-marginalization.

The trellis tables of a section node are indexed by the cosets of the
shortened code inside the punctured code (2^v entries); a parent entry is
the max over 2^w combinations of linked child entries.  The links live on
the section node (`SectionNode.links`): per child, coset coordinates over
the canonical v-representative rows that the tree already carries.

Phases reuse section tables: within a block, a phase gathers the table of
each node that the `SECTION_TABLES` complexity model reuses from the
previous phase with an unchanged shortened code, instead of evaluating
its subtree (Trifonov, "Recursive trellis processing of large
polarization kernels", ISIT 2021).  The gather re-indexes the previous
table for the prefix that the previous decision moved, and its output is
bit-identical to evaluating every node.  The model's other reuse, of the
previous node's pre-comparison sums, is not done here: such a node is
evaluated.  A phase after a skipped rate-0 block holds nothing and
evaluates in full.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from polarkit.complexity import ReuseMode, SectionNode, phase_costs, section_trees, span_words
from polarkit.gf2 import BitMatrix, rank
from polarkit.pdp import SingularKernelError


def code_length(ell: int, m: int, kernel: BitMatrix) -> int:
    """n = ell^m, once m >= 1, the code fits the decoder and the kernel is
    ell x ell and non-singular."""
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    # ell >= 2, so m > 12 already exceeds the bound: checked before the power
    if m > 12 or (n := ell**m) > 4096:
        raise ValueError("ell^m must not exceed 4096")
    if kernel.ncols != ell or kernel.nrows != ell:
        raise ValueError("kernel shape must match ell")
    if rank(kernel.rows) != ell:
        raise SingularKernelError("kernel must be non-singular")
    return n


@dataclass(frozen=True)
class PolarCodeSpec:
    ell: int
    m: int
    k: int
    kernel: BitMatrix
    frozen: frozenset[int]

    def __post_init__(self) -> None:
        n = code_length(self.ell, self.m, self.kernel)
        if not self.frozen <= set(range(n)) or len(self.frozen) != n - self.k:
            raise ValueError("frozen set must contain exactly n-k indices in [0, n)")

    @property
    def n(self) -> int:
        return self.ell**self.m


def _kernel_bits(kernel: BitMatrix) -> np.ndarray:
    """The kernel as an (ell, ell) uint8 bit array."""
    return np.array(kernel.to_bits(), dtype=np.uint8)


def encode(spec: PolarCodeSpec, u: np.ndarray) -> np.ndarray:
    """c = u * K^(m) over GF(2); u must be zero on frozen positions."""
    u = np.asarray(u, dtype=np.uint8)
    if u.shape[-1] != spec.n:
        raise ValueError("message length must be n")
    if np.any(u[..., sorted(spec.frozen)]):
        raise ValueError("frozen positions must be zero")
    bits = _kernel_bits(spec.kernel)
    # level t multiplies index digit t (base ell, most significant first):
    # y[..., j, r] = sum_i x[..., i, r] K[i, j] over GF(2)
    x = u % 2
    for t in range(spec.m):
        x = (bits.T @ x.reshape(*u.shape[:-1], spec.ell**t, spec.ell, -1)) % 2
    return x.reshape(u.shape)


# ---------------------------------------------------------------------------
# Phase metrics


@lru_cache(maxsize=64)
def build_link_tables(kernel: BitMatrix) -> tuple[SectionNode, ...]:
    """The section trees of all phases; each internal node builds its link
    arrays (`SectionNode.links`) on first use."""
    return tuple(section_trees(kernel))


#: Per internal node (x, y) of a phase tree: its table gathered from the
#: previous phase, or None where the phase stores its evaluated table
_Tables = dict[tuple[int, int], np.ndarray | None]


class _Decoder(NamedTuple):
    """What the SC recursion reads of one kernel: the phase trees, the
    kernel as a read-only (ell, ell) uint8 bit array, and per phase the
    nodes whose tables it gathers from the previous phase.  A gather is
    the node's (x, y) and, per coset, the index into the previous table
    read by rows whose previous decision is 0, and 1 (None: the same)."""

    trees: tuple[SectionNode, ...]
    bits: np.ndarray
    gathers: tuple[tuple[tuple[tuple[int, int], np.ndarray, np.ndarray | None], ...], ...]


def _node_at(tree: SectionNode, x: int, y: int) -> SectionNode:
    """The node of section [x, y) in a phase tree."""
    while (tree.x, tree.y) != (x, y):
        tree = tree.children[x >= tree.children[1].x]
    return tree


@lru_cache(maxsize=64)
def _decoder(kernel: BitMatrix) -> _Decoder:
    """A phase gathers a node's table wherever the `SECTION_TABLES` model
    reuses the previous phase's table of the node: the reused sections
    whose shortened code is unchanged.  Phase a+1's prefix is phase a's
    XOR u_a K[a], so coset c of node n reads the previous table at the
    coordinates of n's coset word c, plus u_a times those of K[a], in the
    previous node's coset basis."""
    trees = build_link_tables(kernel)
    gathers = [()]
    costs = phase_costs(trees, ReuseMode.SECTION_TABLES)
    for a, (prev, cost) in enumerate(zip(trees, costs[1:])):
        plan = []
        for x, y in cost.reused:
            p, n = _node_at(prev, x, y), _node_at(trees[a + 1], x, y)
            if n.s_basis == p.s_basis:  # else the model counts p's sums: evaluated here
                idx0 = p.coset_indices(span_words(n.v_reps))
                d = int(p.coset_indices([kernel.rows[a] << 1])[0])
                plan.append(((x, y), idx0, idx0 ^ d if d else None))
        gathers.append(tuple(plan))
    bits = _kernel_bits(kernel)
    bits.flags.writeable = False
    return _Decoder(trees, bits, tuple(gathers))


def _eval_node(node: SectionNode, half_llrs: np.ndarray, tables: _Tables) -> np.ndarray:
    """Table of max correlation metrics per coset: (batch, 2^v).  A node
    gathered in `tables` is not evaluated; one mapped to None stores its
    table there."""
    if not node.children:  # is_leaf and k_s read as fields: this runs per node per call
        lam = half_llrs[:, node.x]
        if node.s_basis:  # k_s = 1: the column is free inside the code: max(m0, m1)
            return np.abs(lam)[:, None]
        if node.v:  # two entries [bit0, bit1]; else one known-bit entry
            return np.stack([lam, -lam], axis=1)
        return lam[:, None]
    key = (node.x, node.y)
    table = tables.get(key)
    if table is not None:
        return table
    t_left = _eval_node(node.children[0], half_llrs, tables)
    t_right = _eval_node(node.children[1], half_llrs, tables)
    link_a, link_b = node.links
    cand = t_left[:, link_a]  # (batch, 2^v, 2^w)
    cand += t_right[:, link_b]
    table = cand.max(axis=2)
    if key in tables:
        tables[key] = table
    return table


def phase_llrs_trellis(
    trees: tuple[SectionNode, ...],
    phase: int,
    prefix: np.ndarray,
    llrs: np.ndarray,
    tables: _Tables | None = None,
) -> np.ndarray:
    """Batched phase LLRs: prefix (batch, ell) is the codeword of the
    decided symbols u_0 .. u_{phase-1}, llrs (batch, ell).  `tables` holds
    the node tables gathered from the previous phase and receives those
    that the next phase gathers; without it every node is evaluated."""
    llrs = np.asarray(llrs, dtype=np.float64)
    # the known prefix's codeword offset flips the signs of its 1-columns
    signs = 1.0 - 2.0 * prefix
    table = _eval_node(trees[phase], 0.5 * signs * llrs, {} if tables is None else tables)
    assert table.shape[1] == 2
    return table[:, 0] - table[:, 1]


# ---------------------------------------------------------------------------
# Successive cancellation


def _sc_decode_rec(
    dec: _Decoder,
    frozen: frozenset[int],
    llrs: np.ndarray,
    base: int,
    errors: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (decisions u, re-encoded block v) for a length-n' block of
    the recursion, batched over axis 0.  When `errors` is given, leaves
    add their counts of negative LLRs to it and every block is decoded;
    otherwise a block whose indices are all frozen is decided zero
    without evaluating its phase."""
    batch, length = llrs.shape
    if length == 1:
        if errors is not None:
            errors[base] += int(np.count_nonzero(llrs[:, 0] < 0))
        if base in frozen:
            u = np.zeros((batch, 1), dtype=np.uint8)
        else:
            u = (llrs < 0).astype(np.uint8)
        return u, u.copy()
    trees, bits, gathers = dec
    ell = bits.shape[0]
    sub = length // ell
    lam = llrs.reshape(batch, ell, sub).transpose(0, 2, 1)  # (batch, sub, ell)
    flat = lam.reshape(batch * sub, ell)
    # row b * sub + s: codeword of the phases decided so far, sum_a v_a K[a]
    x = np.zeros((batch * sub, ell), dtype=np.uint8)
    u_blocks = []
    # the previous phase's tables that this phase gathers; None after a skip
    held: dict[tuple[int, int], np.ndarray] | None = None
    for a in range(ell):
        start = base + a * sub
        if errors is None and frozen.issuperset(range(start, start + sub)):
            # rate-0 block: its decisions and re-encoding are zero, and no
            # other phase reads its LLRs, so x stays as it is
            u_blocks.append(np.zeros((batch, sub), dtype=np.uint8))
            held = None
            continue
        keep = [key for key, _, _ in gathers[a + 1]] if a + 1 < ell else []
        tables: _Tables = dict.fromkeys(keep)
        if held:  # rows whose previous decision is 1 read the translated cosets
            flipped = np.flatnonzero(v_a)
            for key, idx0, idx1 in gathers[a]:
                prev = held.pop(key)
                table = tables[key] = prev[:, idx0]
                if idx1 is not None:
                    table[flipped] = prev[flipped[:, None], idx1]
        phase_llr = phase_llrs_trellis(trees, a, x, flat, tables).reshape(batch, sub)
        held = {key: tables[key] for key in keep}
        u_a, v_a = _sc_decode_rec(dec, frozen, phase_llr, start, errors)
        u_blocks.append(u_a)
        x ^= v_a.reshape(batch * sub, 1) & bits[a]
    u = np.concatenate(u_blocks, axis=1)
    return u, x.reshape(batch, sub, ell).transpose(0, 2, 1).reshape(batch, length)


def sc_decode_batch(spec: PolarCodeSpec, llrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decoded messages and the codewords obtained by re-encoding them."""
    llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
    if llrs.shape[1] != spec.n:
        raise ValueError("LLR length must be n")
    return _sc_decode_rec(_decoder(spec.kernel), spec.frozen, llrs, 0, None)


# ---------------------------------------------------------------------------
# AWGN harness

#: Codewords per decoder call; the seeded noise draws, and so every
#: selected frozen set and BLER count, depend on it.
BATCH = 256


def _batch_sizes(trials: int) -> Iterator[int]:
    """Codewords per decoder call: full batches, then the remainder.
    Rejects trials < 1 when called, not when first iterated."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # a range, not itertools.repeat: its length may exceed a C ssize_t
    return (min(BATCH, left) for left in range(trials, 0, -BATCH))


def noise_sigma(snr_db: float, rate: float) -> float:
    """Noise deviation of BPSK over AWGN at Eb/N0 = snr_db dB and code rate
    `rate`; ValueError unless sigma and the LLR scale 2 / sigma^2 are
    positive and finite."""
    try:
        sigma = 1.0 / math.sqrt(2.0 * rate * 10.0 ** (snr_db / 10.0))
        scale = 2.0 / sigma**2
    except (OverflowError, ZeroDivisionError):
        scale = math.nan
    if not 0.0 < scale < math.inf:  # also rejects nan
        raise ValueError(f"SNR {snr_db} dB out of range for the AWGN model")
    return sigma


def select_frozen_set(
    ell: int,
    m: int,
    k: int,
    kernel: BitMatrix,
    snr_db: float,
    trials: int,
    seed: int,
) -> frozenset[int]:
    """Monte-Carlo genie construction: all-zero transmission decoded in one
    SC pass with every index frozen, so each decision is the known bit;
    per-index counts of wrong hard decisions, worst n-k indices frozen
    (ties toward the smaller index)."""
    sizes = _batch_sizes(trials)
    n = code_length(ell, m, kernel)
    dec = _decoder(kernel)
    sigma = noise_sigma(snr_db, k / n)
    rng = np.random.default_rng(seed)
    errors = np.zeros(n, dtype=np.int64)
    for b in sizes:
        y = 1.0 + sigma * rng.standard_normal((b, n))
        llrs = 2.0 * y / sigma**2
        _sc_decode_rec(dec, frozenset(range(n)), llrs, 0, errors)
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
) -> list[BlerResult]:
    """Random messages, BPSK (0 -> +1) over AWGN with rate-scaled noise,
    SC decoding, block-error counts."""
    _batch_sizes(trials)  # rejects trials < 1 before any draw
    n = spec.n
    info = np.array(sorted(set(range(n)) - spec.frozen), dtype=np.int64)
    results = []
    for idx, snr_db in enumerate(snr_db_list):
        sigma = noise_sigma(snr_db, spec.k / n)
        rng = np.random.default_rng([seed, idx])
        block_errors = 0
        for b in _batch_sizes(trials):
            u = np.zeros((b, n), dtype=np.uint8)
            if info.size:
                u[:, info] = rng.integers(0, 2, size=(b, info.size), dtype=np.uint8)
            x = 1.0 - 2.0 * encode(spec, u).astype(np.float64)
            y = x + sigma * rng.standard_normal((b, n))
            llrs = 2.0 * y / sigma**2
            decoded, _ = sc_decode_batch(spec, llrs)
            block_errors += int(np.count_nonzero(np.any(decoded != u, axis=1)))
        results.append(BlerResult(snr_db, trials, block_errors))
    return results


def bler_csv(results: list[BlerResult]) -> str:
    lines = ["snr_db,trials,errors,bler"]
    lines += [f"{r.snr_db},{r.trials},{r.block_errors},{r.bler:.6e}" for r in results]
    return "\n".join(lines) + "\n"

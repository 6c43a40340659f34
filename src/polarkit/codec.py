"""Polar encoding and successive-cancellation decoding with arbitrary
kernels.

The transform x = u * K^(x)m is computed as m butterfly levels of one
kernel-multiply step over the ell axis (Arikan, "Channel polarization",
IEEE Trans. IT 2009); each level XORs the inputs where K has a 1.  The SC
decoder re-encodes through a running codeword of each block's decided
phases, updated once per phase.  A sub-block whose indices are all frozen
is decided zero without running its phase metric or the recursion below
it (a rate-0 node: Alamdar-Yazdi and Kschischang, IEEE Comm. Letters
2011).  A sub-block with no frozen index is decided by the signs of its
LLRs, v = (llrs < 0) and u = v (K^-1)^(x)j, through the same butterfly (a
rate-1 node: Sarkis et al., "Fast polar decoders", IEEE JSAC 2014).  That
is max-log SC's decision wherever no phase LLR is 0.  An exact-zero LLR
ties a phase: on [0, -1, 2, 0.5] (ARIKAN, all information) SC returns
v = [1, 1, 0, 0] and the signs [0, 1, 0, 0]; so does a spread so wide
that rounding loses an LLR, as in [1, -1e-17].  Such blocks take the
recursion (`_signs_decide`).  The genie construction of
`select_frozen_set` freezes every index and counts every decision, so it
decodes every block.

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
Tables are coset-major, (2^v, rows), so a link reads whole contiguous
rows.  Each phase tree compiles into flat post-order step lists
(`_program`), with the leaves' entries composed into their parents'
links as rows of a bank of prefix-signed half LLRs.

Phases reuse section tables: within a block, a phase gathers the table of
each node that the `SECTION_TABLES` complexity model reuses from the
previous phase with an unchanged shortened code, instead of evaluating
its subtree (Trifonov, "Recursive trellis processing of large
polarization kernels", ISIT 2021).  The gather re-indexes the previous
table for the prefix that the previous decision moved, and its output is
bit-identical to evaluating every node.  The model's other reuse, of the
previous node's pre-comparison sums, is not done here: such a node is
evaluated.  `build_link_tables` builds a kernel's decoder once, with two
programs per phase: `warm` gathers, and `cold` evaluates every node, for
phase 0 and for a phase after a skipped rate-0 block, which holds nothing.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from polarkit.complexity import ReuseMode, SectionNode, phase_costs, section_trees, span_words
from polarkit.gf2 import MAX_COLS, BitMatrix, eliminate, rank, unpack_row
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


def _columns(rows: tuple[int, ...], ell: int) -> tuple[tuple[int, ...], ...]:
    """Per column j of an ell x ell GF(2) matrix given by its rows, the rows
    holding a 1 there."""
    return tuple(tuple(i for i, r in enumerate(rows) if r >> (ell - 1 - j) & 1) for j in range(ell))


@lru_cache(maxsize=64)
def _butterflies(kernel: BitMatrix) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The `_butterfly` columns of the kernel K and of its inverse.  Row j of
    K^-1 holds the coefficients of the rows of K that sum to the unit word
    of column j; the elimination carries row i's coefficient above the
    columns, at bit ell + (ell - 1 - i)."""
    ell = kernel.ncols
    low = (1 << ell) - 1
    pivots: dict[int, int] = {}
    eliminate(pivots, [(1 << (2 * ell - 1 - i)) | r for i, r in enumerate(kernel.rows)], low)
    units = eliminate(pivots, [1 << (ell - 1 - j) for j in range(ell)], low)
    return _columns(kernel.rows, ell), _columns(tuple(r >> ell for r in units), ell)


def _butterfly(x: np.ndarray, columns: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """x * B^(x)j over GF(2), along the last axis (length ell^j) of the uint8
    bits x, for the ell x ell matrix B of `columns`.  Level t works on index
    digit t (base ell, most significant first): output j XORs the inputs i
    where B[i, j] = 1, y[..., j, r] = sum_i x[..., i, r] B[i, j]."""
    ell = len(columns)
    shape = x.shape
    step = 1
    while step < shape[-1]:
        x = x.reshape(*shape[:-1], step, ell, -1)
        y = np.empty_like(x)
        for j, (i, *rest) in enumerate(columns):
            out = y[..., j, :]
            if not rest:
                out[...] = x[..., i, :]
                continue
            np.bitwise_xor(x[..., i, :], x[..., rest[0], :], out=out)
            for r in rest[1:]:
                out ^= x[..., r, :]
        x = y
        step *= ell
    return x.reshape(shape)


def encode(spec: PolarCodeSpec, u: np.ndarray) -> np.ndarray:
    """c = u * K^(m) over GF(2); u must be zero on frozen positions."""
    u = np.asarray(u, dtype=np.uint8)
    if u.shape[-1] != spec.n:
        raise ValueError("message length must be n")
    if np.any(u[..., sorted(spec.frozen)]):
        raise ValueError("frozen positions must be zero")
    return _butterfly(u % 2, _butterflies(spec.kernel)[0])


# ---------------------------------------------------------------------------
# Phase metrics


#: Where a step reads a child table: the leaf bank, the table the previous
#: steps left on the stack, or (a node's (x, y)) a gathered table
_BANK, _STACK = "bank", "stack"


class _Program(NamedTuple):
    """A phase tree compiled into a flat post-order step list.  Leaf bank
    row r reads column cols[r] of the prefix-signed half LLRs: as is (the
    bit-0 metric of a column in the punctured code, or the known bit's),
    negated from row `minus` on (its bit-1 metric), and as a magnitude from
    row `absolute` on (a column free in the shortened code: the max of
    both).  Only the entries that the phase reads are rows.  A step is a
    node's (x, y), its children's sources and links (leaf entries composed
    into bank rows), and whether it maximizes over w > 0 sums; it leaves
    the node's coset-major table on the stack.  A gather gives a node the
    previous phase's table instead, with no steps below it: its (x, y)
    and, per coset, the previous row read by rows whose previous decision
    is 0, and 1 (None: the same).  `keep` names the nodes whose tables the
    next phase gathers."""

    cols: np.ndarray
    minus: int
    absolute: int
    steps: tuple[tuple[tuple[int, int], object, np.ndarray, object, np.ndarray, bool], ...]
    gathers: tuple[tuple[tuple[int, int], np.ndarray, np.ndarray | None], ...]
    keep: frozenset[tuple[int, int]]


def _program(root: SectionNode, gathers: tuple, keep: frozenset) -> _Program:
    """The step list of phase tree `root` when the tables of `gathers` are given."""
    gathered = {key for key, _, _ in gathers}
    steps: list[list] = []
    bank_links: list[np.ndarray] = []

    def source(child: SectionNode, link: np.ndarray) -> tuple[object, np.ndarray]:
        if child.children:
            key = (child.x, child.y)
            if key in gathered:
                return key, link
            visit(child)
            return _STACK, link
        # bank entries coded kind * MAX_COLS + column: kind 0 the bit-0
        # metric, 1 the bit-1 metric, 2 the magnitude
        x = child.x
        entries = [2 * MAX_COLS + x] if child.s_basis else [x, MAX_COLS + x][: 1 + child.v]
        bank_links.append(np.array(entries)[link])
        return _BANK, bank_links[-1]

    def visit(node: SectionNode) -> None:
        (left, link_a), (right, link_b) = [source(*c) for c in zip(node.children, node.links)]
        steps.append([(node.x, node.y), left, link_a, right, link_b, node.w > 0])

    visit(root)
    codes = sorted({int(code) for link in bank_links for code in link.flat})
    bank_row = np.zeros(3 * MAX_COLS, dtype=np.int64)
    bank_row[codes] = range(len(codes))
    for step in steps:
        for i in (1, 3):  # composed bank links read bank rows
            if step[i] == _BANK:
                step[i + 1] = bank_row[step[i + 1]]
        if not step[5]:  # w = 0: one sum per coset, nothing to maximize
            step[2], step[4] = step[2][:, 0], step[4][:, 0]
    minus, absolute = (bisect_left(codes, kind * MAX_COLS) for kind in (1, 2))
    cols = np.array(codes, dtype=np.int64) % MAX_COLS
    return _Program(cols, minus, absolute, tuple(map(tuple, steps)), gathers, keep)


class _Decoder(NamedTuple):
    """What the SC recursion reads of one kernel: per phase a, the columns
    where kernel row a is 1; the `_butterfly` columns of the kernel's
    inverse; and per phase two programs, `cold`, which evaluates every
    node (phase 0, and a phase after a skipped block), and `warm`, which
    gathers from the previous phase's tables."""

    supports: tuple[np.ndarray, ...]
    inverse: tuple[tuple[int, ...], ...]
    cold: tuple[_Program, ...]
    warm: tuple[_Program, ...]


def _node_at(tree: SectionNode, x: int, y: int) -> SectionNode:
    """The node of section [x, y) in a phase tree."""
    while (tree.x, tree.y) != (x, y):
        tree = tree.children[x >= tree.children[1].x]
    return tree


@lru_cache(maxsize=64)
def build_link_tables(kernel: BitMatrix) -> _Decoder:
    """The decoder of a kernel: its section trees, their link arrays
    (`SectionNode.links`) and every phase's programs, all built here.  A
    phase gathers a node's table wherever the `SECTION_TABLES` model
    reuses the previous phase's table of the node: the reused sections
    whose shortened code is unchanged.  Phase a+1's prefix is phase a's
    XOR u_a K[a], so coset c of node n reads the previous table at the
    coordinates of n's coset word c, plus u_a times those of K[a], in the
    previous node's coset basis."""
    trees = section_trees(kernel)
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
    keeps = [frozenset(key for key, _, _ in plan) for plan in gathers[1:]] + [frozenset()]
    cold = tuple(_program(tree, (), keep) for tree, keep in zip(trees, keeps))
    warm = tuple(map(_program, trees, gathers, keeps))
    supports = tuple(np.flatnonzero(unpack_row(r, kernel.ncols)) for r in kernel.rows)
    return _Decoder(supports, _butterflies(kernel)[1], cold, warm)


def phase_llrs_trellis(
    dec: _Decoder,
    phase: int,
    prefix: np.ndarray,
    llrs: np.ndarray,
    held: dict[tuple[int, int], np.ndarray] | None = None,
    flip: np.ndarray | None = None,
) -> tuple[np.ndarray, dict[tuple[int, int], np.ndarray]]:
    """Batched phase LLRs and the tables that the next phase gathers:
    prefix (batch, ell) is the codeword of the decided symbols u_0 ..
    u_{phase-1}, llrs (batch, ell).  Without `held`, the previous phase's
    kept tables (popped as they are gathered), every node is evaluated;
    `flip` (1, batch) marks the rows whose previous decision is 1.
    Transposed views of coset-major (ell, batch) arrays read fastest."""
    prog = dec.cold[phase] if held is None else dec.warm[phase]
    tables: dict[tuple[int, int], np.ndarray] = {}
    for key, idx0, idx1 in prog.gathers:  # flipped rows read the translated cosets
        prev = held.pop(key)
        table = tables[key] = prev[idx0]
        if idx1 is not None:
            np.copyto(table, prev[idx1], where=flip)
    # the known prefix's codeword offset flips the signs of its 1-columns
    bank = (np.asarray(llrs, dtype=np.float64).T * (0.5 - np.asarray(prefix).T))[prog.cols]
    bit1, free = bank[prog.minus : prog.absolute], bank[prog.absolute :]
    np.negative(bit1, out=bit1)
    np.abs(free, out=free)
    stack: list[np.ndarray] = []
    for key, left, link_a, right, link_b, maximize in prog.steps:
        t_right = bank if right == _BANK else stack.pop() if right == _STACK else tables[right]
        t_left = bank if left == _BANK else stack.pop() if left == _STACK else tables[left]
        cand = t_left[link_a]  # (2^v, 2^w, batch), or (2^v, batch) for w = 0
        cand += t_right[link_b]
        table = cand.max(axis=1) if maximize else cand
        del cand, t_left, t_right  # before the next step allocates: a lower heap peak
        if key in prog.keep:
            tables[key] = table
        stack.append(table)
    (table,) = stack
    assert table.shape[0] == 2
    return table[0] - table[1], {key: tables[key] for key in prog.keep}


# ---------------------------------------------------------------------------
# Successive cancellation

#: A rate-1 block is decided by the signs of its LLRs when their magnitudes
#: lie within this factor of each other (see `_signs_decide`)
_SIGN_RANGE = 2.0**23


def _signs_decide(llrs: np.ndarray) -> bool:
    """Whether max-log SC decoding of a block without frozen indices
    returns the signs of its LLRs, read from their spread.  A phase metric
    is the max over words of a sum along the section tree, and rounding is
    monotone, so the signs' word keeps the largest rounded sum; a word
    that differs from it in column i falls short by |LLR_i| less at most
    8 roundings of 2^-53 times ell times the largest |LLR|.  While the
    spread stays below 2^46 every phase LLR therefore has the signs' sign,
    and its magnitude lies between the smallest |LLR| and ell times the
    largest, so the spread grows at most ell-fold per level: from 2^23 it
    stays below 2^35 through the 12 levels of n = 4096.  The bounds on
    the extremes keep every sum normal and finite.  Exact zeros, where the
    signs' word is not the unique maximiser, and NaN fail the test."""
    mag = np.abs(llrs)
    lo, hi = mag.min(), mag.max()
    return 2.0**-1000 < lo and hi < min(lo * _SIGN_RANGE, 2.0**1000)


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
    otherwise a block whose indices are all frozen is decided zero without
    evaluating its phase, and one without frozen indices is decided by
    hard decision when `_signs_decide`."""
    batch, length = llrs.shape
    if length == 1:
        if errors is not None:
            errors[base] += int(np.count_nonzero(llrs[:, 0] < 0))
        if base in frozen:
            u = np.zeros((batch, 1), dtype=np.uint8)
        else:
            u = (llrs < 0).astype(np.uint8)
        return u, u.copy()
    if errors is None and frozen.isdisjoint(range(base, base + length)) and _signs_decide(llrs):
        v = (llrs < 0).view(np.uint8)
        return _butterfly(v, dec.inverse), v
    ell = len(dec.supports)
    sub = length // ell
    # coset-major: row c of flat and x is kernel column c, entry b * sub + s
    flat = llrs.reshape(batch, ell, sub).transpose(1, 0, 2).reshape(ell, batch * sub)
    # the codeword of the phases decided so far, sum_a v_a K[a]
    x = np.zeros((ell, batch * sub), dtype=np.uint8)
    u_blocks = []
    # the previous phase's tables that this phase gathers, None after a
    # skip, and the rows whose previous decision is 1
    held = flip = None
    for a in range(ell):
        start = base + a * sub
        if errors is None and frozen.issuperset(range(start, start + sub)):
            # rate-0 block: its decisions and re-encoding are zero, and no
            # other phase reads its LLRs, so x stays as it is
            u_blocks.append(np.zeros((batch, sub), dtype=np.uint8))
            held = None
            continue
        phase_llr, held = phase_llrs_trellis(dec, a, x.T, flat.T, held, flip)
        u_a, v_a = _sc_decode_rec(dec, frozen, phase_llr.reshape(batch, sub), start, errors)
        u_blocks.append(u_a)
        x[dec.supports[a]] ^= v_a.reshape(1, -1)
        flip = v_a.reshape(1, -1).view(bool)
    u = np.concatenate(u_blocks, axis=1)
    return u, x.reshape(ell, batch, sub).transpose(1, 0, 2).reshape(batch, length)


def sc_decode_batch(spec: PolarCodeSpec, llrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decoded messages and the codewords obtained by re-encoding them."""
    llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
    if llrs.shape[1] != spec.n:
        raise ValueError("LLR length must be n")
    return _sc_decode_rec(build_link_tables(spec.kernel), spec.frozen, llrs, 0, None)


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
    dec = build_link_tables(kernel)
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

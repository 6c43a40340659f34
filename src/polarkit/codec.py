"""Polar encoding and successive-cancellation decoding with arbitrary
kernels.

The transform x = u * K^(x)m is computed as m butterfly levels of one
kernel-multiply step (Arikan, "Channel polarization", IEEE Trans. IT
2009); each level XORs the inputs where K has a 1.  Encoder and decoder
run index-major, as fast SC decoders do (Sarkis et al., "Fast polar
decoders", IEEE JSAC 2014): a block of length ell * sub is a (length,
batch) array whose kernel column c is rows [c * sub, (c + 1) * sub), so
every split of a block is a view, and the decoder writes its decisions in
place into one zeroed (n, batch) array.  It re-encodes through a running
codeword of each block's decided phases, updated once per phase.  A
sub-block whose indices are all frozen is left zero without running its
phase metric or the recursion below it (a rate-0 node: Alamdar-Yazdi and
Kschischang, IEEE Comm. Letters 2011).  A sub-block with no frozen index
is decided by the signs of its LLRs, v = (llrs < 0) and u = v
(K^-1)^(x)j, through the same butterfly (a rate-1 node, Sarkis et al.).
That is max-log SC's decision unless a phase LLR is 0, which an exact
zero or a spread so wide that rounding loses an LLR can cause; such
blocks take the recursion (`_signs_decide`).  The genie construction of
`select_frozen_set` freezes every index and counts every decision, so it
decodes every block.

Per-kernel phase metrics (the LLR of symbol u_i given the previous
decisions and the ell channel LLRs) come from a trellis on the section
trees of the complexity model, with max-approximation correlation
metrics; the tests check it against exhaustive max-marginalization.  It
reads the model's `SectionTable` by (phase, section).  A section's table
is indexed by the cosets of the shortened code inside the punctured code
(2^v entries, over the v-representatives: `_coset_indices`); an entry is
the max over 2^w sums of the halves' entries, which the section's link
arrays name (`_links`).  Tables are coset-major, (2^v, rows), so a link
reads whole contiguous rows.  Each phase tree compiles into a flat step
list in the post-order of the table's sections (`_program`), whose
leaves are rows of a bank: blocks of ell rows holding the prefix-signed
half LLRs h, -h and |h| (`_Program`), with a buffer plan: each array that
a call forms has a fixed offset in one float64 workspace (`_plan`) and is
written there through `out=`, so a call allocates only the phase LLRs and
the tables kept for the next phase.

Phases reuse section tables: within a block, a phase gathers the table of
each node that the `SECTION_TABLES` complexity model reuses from the
previous phase with an unchanged shortened code, re-indexed for the
prefix that the previous decision moved, instead of evaluating its
subtree (Trifonov, "Recursive trellis processing of large polarization
kernels", ISIT 2021); the output is bit-identical.  The model's other
reuse, of the previous node's pre-comparison sums, is not done here: such
a node is evaluated.  `build_link_tables` builds a kernel's decoder once,
with two programs per phase: `warm` gathers, and `cold` evaluates every
node, for phase 0 and for a phase after a skipped rate-0 block.  A phase
that gathers nothing has one program, which serves as both.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from polarkit.complexity import ReuseMode, SectionTable, phase_costs, section_trees
from polarkit.gf2 import MAX_COLS, BitMatrix, check_width, eliminate, rank, unpack_row
from polarkit.pdp import SingularKernelError


def code_length(ell: int, m: int, kernel: BitMatrix) -> int:
    """n = ell^m, once ell passes `check_width`, m >= 1, the code fits the
    decoder and the kernel is ell x ell and non-singular."""
    check_width(ell)
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
    """x * B^(x)j over GF(2), along axis 0 (length ell^j) of the uint8 bits
    x, for the ell x ell matrix B of `columns`.  Level t works on index
    digit t (base ell, most significant first) of x as (ell^t, ell, -1):
    output j XORs the inputs i where B[i, j] = 1, y[r, j] = sum_i x[r, i] B[i, j]."""
    ell = len(columns)
    shape = x.shape
    step = 1
    while step < shape[0]:
        x = x.reshape(step, ell, -1)
        y = np.empty_like(x)
        for j, (i, *rest) in enumerate(columns):
            out = y[:, j]
            if not rest:
                out[...] = x[:, i]
                continue
            np.bitwise_xor(x[:, i], x[:, rest[0]], out=out)
            for r in rest[1:]:
                out ^= x[:, r]
        x = y
        step *= ell
    return x.reshape(shape)


def encode(spec: PolarCodeSpec, u: np.ndarray) -> np.ndarray:
    """c = u * K^(m) over GF(2), a transposed view; u is zero on frozen positions."""
    u = np.asarray(u, dtype=np.uint8)
    if u.shape[-1] != spec.n:
        raise ValueError("message length must be n")
    if np.any(u[..., sorted(spec.frozen)]):
        raise ValueError("frozen positions must be zero")
    return _butterfly(np.remainder(u.T, 2, order="C"), _butterflies(spec.kernel)[0]).T


# ---------------------------------------------------------------------------
# Phase metrics


class _Step(NamedTuple):
    """One node of a phase tree, as slices of workspace rows: the left and
    right child tables and the (2^v, 2^w) links into them, flattened; where
    the left links' gather and then the sums go, where the right links'
    gather goes, and where the node's (2^v, rows) table goes, the max over
    the 2^w sums (the sums themselves when w = 0)."""

    key: tuple[int, int]
    left: slice
    left_link: np.ndarray
    right: slice
    right_link: np.ndarray
    sums: slice
    other: slice
    out: slice
    shape: tuple[int, int]


class _Gather(NamedTuple):
    """A node given the previous phase's table instead of steps: per coset,
    the previous row read by rows whose previous decision is 0, and 1
    (None: the same), and the workspace rows of the two reads; the second
    one's rows then take the place of the first's where `mask` is set."""

    key: tuple[int, int]
    idx0: np.ndarray
    idx1: np.ndarray | None
    out: slice
    other: slice | None


class _Program(NamedTuple):
    """A phase tree compiled into a flat post-order step list over one
    workspace of `peak` coset rows.  The call first writes the leaf bank
    at `bank`, blocks of ell rows where row kind * ell + c holds column c's
    prefix-signed half LLR h as kind 0, h (the bit-0 metric of a column in
    the punctured code, or the known bit's), kind 1, -h (its bit-1
    metric), and kind 2, |h| (a column free in the shortened code: the max
    of both).  The bank has no rows when the steps read no leaf, three
    blocks when they read a free column, and two otherwise.  Where a gather
    needs it, the `mask` row holds all-one bits for the rows whose previous
    decision is 1.  `keep` names the nodes whose tables the next phase
    gathers; `root` is where the phase tree's (2, rows) table ends up.
    Every array that a call forms has a fixed offset, so no two arrays that
    are live at once overlap (`_plan`)."""

    bank: slice
    mask: slice | None
    gathers: tuple[_Gather, ...]
    steps: tuple[_Step, ...]
    keep: frozenset[tuple[int, int]]
    root: slice
    peak: int


def _plan(spans: list[list[int]]) -> list[int]:
    """Row offsets for buffers given as [rows, first use, last use], such
    that no two buffers whose uses overlap in time overlap in rows:
    largest first, each at the lowest offset clear of the buffers already
    placed that are live with it (greedy by size)."""
    offsets: dict[int, int] = {}
    for i in sorted(range(len(spans)), key=lambda i: -spans[i][0]):
        rows, first, last = spans[i]
        live = [j for j in offsets if spans[j][1] <= last and first <= spans[j][2]]
        at = 0
        for j in sorted(live, key=offsets.get):
            if at + rows <= offsets[j]:
                break
            at = max(at, offsets[j] + spans[j][0])
        offsets[i] = at
    return [offsets[i] for i in range(len(spans))]


def span_words(rows: tuple[int, ...]) -> list[int]:
    """Every word of span(rows); word i is the XOR of the rows[k] whose bit
    k is set in i."""
    words = [0]
    for g in rows:
        words += [word ^ g for word in words]
    return words


def _coset_indices(table: SectionTable, phase: int, j: int, words: list[int]) -> np.ndarray:
    """The int64 table index of each word's coset in section j of a phase:
    its coordinates over the v-representatives modulo the shortened code,
    on the section's columns.  ValueError for a word outside the punctured
    code."""
    # Eliminate on the MAX_COLS columns, with v-representative k carrying
    # coefficient bit MAX_COLS + k above them, so a word's residual holds
    # its v-coordinates once its columns cancel.
    low = (1 << MAX_COLS) - 1
    mask = table.sections[j][2]
    seeds = [(1 << (MAX_COLS + k)) | (r & mask) for k, r in enumerate(table.v_reps(phase, j))]
    seeds += table.s_basis[phase][j]
    residuals = eliminate({}, seeds + [word & mask for word in words], low)[len(seeds) :]
    if any(r & low for r in residuals):
        raise ValueError("word outside the punctured code")
    return np.array([r >> MAX_COLS for r in residuals], dtype=np.int64)


def _links(table: SectionTable, phase: int, j: int) -> tuple[np.ndarray, ...]:
    """Per half of internal section j of a phase, the (2^v, 2^w) int64
    array of the half's coset that each of the section's 2^(w+v) sums
    reads; the trellis merge."""
    # words[alpha * 2^w + beta]: bit k of the index selects (w_reps + v_reps)[k]
    words = span_words(table.w_reps(phase, j) + table.v_reps(phase, j))
    shape, halves = (1 << table.v[phase][j], 1 << table.w[phase][j]), table.sections[j][3]
    return tuple(_coset_indices(table, phase, h, words).reshape(shape) for h in halves)


def _program(
    table: SectionTable, phase: int, links: dict, gathers: tuple, keep: frozenset
) -> _Program:
    """The step list of a phase's section tree when the tables of `gathers`
    are given, one step per internal section outside them in the
    post-order of `table.sections`, and its workspace plan; `links` holds
    each internal section's `_links` by (phase, section).  Time counts the
    numpy operations of a call; a buffer lives from the operation that
    writes it to its last reader."""
    sections, s_basis, w, v = table.sections, table.s_basis[phase], table.w[phase], table.v[phase]
    spans: list[list[int]] = []  # per buffer: [rows, first use, last use]

    def buffer(rows: int, time: int, *reads: int) -> int:
        for buf in reads:
            spans[buf][2] = time
        spans.append([rows, time, time])
        return len(spans) - 1

    ell, blocks = table.ell, 0  # blocks: of the bank, known after the loop
    bank = buffer(0, 0)
    time = 1
    mask = buffer(1, time) if any(idx1 is not None for _, _, idx1 in gathers) else None
    tables, planned = {}, []  # tables: the buffer of each gathered or computed section
    for key, idx0, idx1 in gathers:
        out = tables[key] = buffer(len(idx0), time + 1)
        # the bit select reads both takes and the mask
        other = None if idx1 is None else buffer(len(idx1), time + 2, out, mask)
        time += 1 if idx1 is None else 2
        planned.append((key, idx0, idx1, out, other))
    steps = []
    for j, (x, y, _, halves) in enumerate(sections):
        if not halves or any(a <= x and y <= b for (a, b), _, _ in gathers):
            continue
        reads, shape = [], (1 << v[j], 1 << w[j])
        for h, link in zip(halves, links[phase, j]):
            hx, hy, _, internal = sections[h]
            link = link.ravel()
            if not internal:  # the bank rows of the leaf's entries
                free = bool(s_basis[h])
                link = np.array([2 * ell + hx] if free else [hx, ell + hx][: 1 + v[h]])[link]
                blocks = max(blocks, 2 + free)
            reads += [tables[hx, hy] if internal else bank, link]
        left, link_a, right, link_b = reads
        sums = buffer(link_a.size, time + 1, left)
        other = buffer(link_b.size, time + 2, right, sums)
        time += 3 if w[j] else 2
        out = tables[x, y] = buffer(shape[0], time, sums) if w[j] else sums
        steps.append(((x, y), left, link_a, right, link_b, sums, other, out, shape))
    assert spans[out][0] == 2  # the last step's table: the root's, never gathered
    spans[bank][0] = blocks * ell
    at = [slice(o, o + rows) for o, (rows, _, _) in zip(_plan(spans), spans)]
    return _Program(
        at[bank],
        None if mask is None else at[mask],
        tuple(
            _Gather(key, idx0, idx1, at[take0], None if take1 is None else at[take1])
            for key, idx0, idx1, take0, take1 in planned
        ),
        tuple(
            _Step(key, at[left], link_a, at[right], link_b, at[sums], at[other], at[end], shape)
            for key, left, link_a, right, link_b, sums, other, end, shape in steps
        ),
        keep,
        at[out],
        max(where.stop for where in at),
    )


class _Decoder(NamedTuple):
    """What the SC recursion reads of one kernel: per phase a, the columns
    where kernel row a is 1; the `_butterfly` columns of the kernel's
    inverse; and per phase two programs, `cold`, which evaluates every
    node (phase 0, and a phase after a skipped block), and `warm`, which
    gathers from the previous phase's tables: the same object as `cold`
    where the phase gathers nothing."""

    supports: tuple[np.ndarray, ...]
    inverse: tuple[tuple[int, ...], ...]
    cold: tuple[_Program, ...]
    warm: tuple[_Program, ...]


@lru_cache(maxsize=64)
def build_link_tables(kernel: BitMatrix) -> _Decoder:
    """The decoder of a kernel: its section table, the link arrays of every
    internal section of every phase (`_links`) and every phase's programs,
    all built here.  A phase gathers a section's table wherever the
    `SECTION_TABLES` model reuses the previous phase's table of the
    section: the reused sections whose shortened code is unchanged.  Phase
    a+1's prefix is phase a's XOR u_a K[a], so coset c of section j reads
    the previous table at the coordinates of j's coset word c, plus u_a
    times those of K[a], in the previous phase's coset basis of j."""
    table = section_trees(kernel)
    ell, sections, s_basis = table.ell, table.sections, table.s_basis
    index = {section[:2]: j for j, section in enumerate(sections)}
    internal = [j for j, section in enumerate(sections) if section[3]]
    links = {(a, j): _links(table, a, j) for a in range(ell) for j in internal}
    gathers = [()]
    for a, cost in enumerate(phase_costs(table, ReuseMode.SECTION_TABLES)[1:]):
        plan = []
        for key in cost.reused:
            j = index[key]
            if s_basis[a + 1][j] == s_basis[a][j]:  # else the model counts a's sums: evaluated here
                idx0 = _coset_indices(table, a, j, span_words(table.v_reps(a + 1, j)))
                d = int(_coset_indices(table, a, j, [kernel.rows[a] << 1])[0])
                plan.append((key, idx0, idx0 ^ d if d else None))
        gathers.append(tuple(plan))
    keeps = [frozenset(key for key, _, _ in plan) for plan in gathers[1:]] + [frozenset()]
    cold = tuple(_program(table, a, links, (), keeps[a]) for a in range(ell))
    # a phase that gathers nothing compiles to its cold program: share that one
    warm = tuple(
        _program(table, a, links, plan, keeps[a]) if plan else cold[a]
        for a, plan in enumerate(gathers)
    )
    supports = tuple(np.flatnonzero(unpack_row(r, kernel.ncols)) for r in kernel.rows)
    return _Decoder(supports, _butterflies(kernel)[1], cold, warm)


#: The float64 buffer that every phase call runs in, grown as needed (see
#: `_workspace`)
_WORKSPACE = np.empty(0)


def _workspace(peak: int, rows: int) -> np.ndarray:
    """The workspace as `peak` coset rows of `rows` entries.  One buffer
    serves every decoder: calls never nest, since the SC recursion goes
    below a phase only after its call has returned, and no call reads what
    an earlier one left there.  Threads would share it: decode from one
    thread per process."""
    global _WORKSPACE
    if _WORKSPACE.size < peak * rows:
        _WORKSPACE = np.empty(peak * rows)
    return _WORKSPACE[: peak * rows].reshape(peak, rows)


def phase_llrs_trellis(
    dec: _Decoder,
    phase: int,
    prefix: np.ndarray,
    llrs: np.ndarray,
    held: dict[tuple[int, int], np.ndarray] | None = None,
    flip: np.ndarray | None = None,
) -> tuple[np.ndarray, dict[tuple[int, int], np.ndarray]]:
    """Batched phase LLRs and the tables that the next phase gathers:
    prefix (rows, ell) is the codeword of the decided symbols u_0 ..
    u_{phase-1}, llrs (rows, ell).  Without `held`, the previous phase's
    kept tables (popped as they are gathered), every node is evaluated;
    `flip` (1, rows) marks the rows whose previous decision is 1.
    Transposed views of coset-major (ell, rows) arrays are not copied.  The
    program runs in the workspace; only the phase LLRs and the kept tables
    leave it, as fresh arrays.  Takes clip their indices, which the
    program keeps in range, since numpy buffers `out` under the default
    mode.  The loops call `ndarray.take` and `np.maximum.reduce`, what
    `np.take` and `np.max` dispatch to, without the wrappers' per-call cost."""
    prog = dec.cold[phase] if held is None else dec.warm[phase]
    llrs = np.asarray(llrs, dtype=np.float64).T
    ell = len(llrs)
    ws = _workspace(prog.peak, llrs.shape[1])
    kept: dict[tuple[int, int], np.ndarray] = {}
    bank = ws[prog.bank]
    if len(bank):  # else no step reads a leaf
        signed, bit1, free = bank[:ell], bank[ell : 2 * ell], bank[2 * ell :]
        # the known prefix's codeword offset flips the signs of its 1-columns
        np.subtract(0.5, np.asarray(prefix).T, out=signed)
        np.multiply(llrs, signed, out=signed)
        np.negative(signed, out=bit1)
        if len(free):
            np.abs(signed, out=free)
    if prog.mask is not None:
        mask = ws[prog.mask].view(np.uint64)
        np.copyto(mask, flip)
        np.negative(mask, out=mask)  # all ones on the flipped rows
    for key, idx0, idx1, out, other in prog.gathers:
        prev = held.pop(key)
        table = ws[out]
        prev.take(idx0, axis=0, out=table, mode="clip")
        if idx1 is not None:  # flipped rows read the translated cosets: a bit select
            prev.take(idx1, axis=0, out=ws[other], mode="clip")
            a, b = table.view(np.uint64), ws[other].view(np.uint64)
            b ^= a
            b &= mask
            a ^= b
        if key in prog.keep:
            kept[key] = table.copy()
    for key, left, link_a, right, link_b, at, other, out, shape in prog.steps:
        sums = ws[at]  # (2^v * 2^w, batch)
        ws[left].take(link_a, axis=0, out=sums, mode="clip")
        ws[right].take(link_b, axis=0, out=ws[other], mode="clip")
        np.add(sums, ws[other], out=sums)
        if shape[1] > 1:
            np.maximum.reduce(sums.reshape(*shape, -1), axis=1, out=ws[out])
        if key in prog.keep:
            kept[key] = ws[out].copy()
    table = ws[prog.root]
    return np.subtract(table[0], table[1]), kept


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
    signs' word is not the unique maximiser, and NaN fail the test.  An
    empty batch passes: no LLR's sign is wrong."""
    if not llrs.size:
        return True
    mag = np.abs(llrs)
    lo, hi = mag.min(), mag.max()
    return 2.0**-1000 < lo and hi < min(lo * _SIGN_RANGE, 2.0**1000)


def _sc_decode_rec(
    dec: _Decoder,
    frozen: frozenset[int],
    llrs: np.ndarray,
    base: int,
    errors: np.ndarray | None,
    u: np.ndarray,
) -> np.ndarray:
    """Decodes the block of C-contiguous LLRs (length, batch) from index
    `base` into u, its zeroed rows of the decision array, and returns the
    re-encoded block v.  When `errors` is given, leaves add their counts of
    negative LLRs to it and every block is decoded; otherwise a block whose
    indices are all frozen is left zero without evaluating its phase, and
    one without frozen indices is decided by hard decision when
    `_signs_decide`."""
    length = len(llrs)
    if length == 1:
        if errors is not None:
            errors[base] += int(np.count_nonzero(llrs < 0))
        if base not in frozen:
            np.less(llrs, 0, out=u.view(bool))
        return u
    if errors is None and frozen.isdisjoint(range(base, base + length)) and _signs_decide(llrs):
        v = (llrs < 0).view(np.uint8)
        u[...] = _butterfly(v, dec.inverse)
        return v
    ell = len(dec.supports)
    sub = length // ell
    # row c is kernel column c, entry s * batch + b
    flat = llrs.reshape(ell, -1)
    # the codeword of the phases decided so far, sum_a v_a K[a]
    x = np.zeros(flat.shape, dtype=np.uint8)
    # the previous phase's tables that this phase gathers, None after a
    # skip, and the rows whose previous decision is 1
    held = flip = None
    for a, u_a in enumerate(u.reshape(ell, sub, -1)):
        start = base + a * sub
        if errors is None and frozen.issuperset(range(start, start + sub)):
            # rate-0 block: its decisions and re-encoding are zero, and no
            # other phase reads its LLRs, so u and x stay as they are
            held = None
            continue
        phase_llr, held = phase_llrs_trellis(dec, a, x.T, flat.T, held, flip)
        v_a = _sc_decode_rec(dec, frozen, phase_llr.reshape(sub, -1), start, errors, u_a)
        x[dec.supports[a]] ^= v_a.reshape(1, -1)
        flip = v_a.reshape(1, -1).view(bool)
    return x.reshape(llrs.shape)


def sc_decode_batch(spec: PolarCodeSpec, llrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decoded messages and their re-encoded codewords, as transposed views."""
    llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
    if llrs.shape[1] != spec.n:
        raise ValueError("LLR length must be n")
    llrs = np.ascontiguousarray(llrs.T)
    u = np.zeros(llrs.shape, dtype=np.uint8)
    v = _sc_decode_rec(build_link_tables(spec.kernel), spec.frozen, llrs, 0, None, u)
    return u.T, v.T


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
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}] for n={n}")
    dec = build_link_tables(kernel)
    sigma = noise_sigma(snr_db, k / n)
    rng = np.random.default_rng(seed)
    errors = np.zeros(n, dtype=np.int64)
    for b in sizes:
        llrs = np.ascontiguousarray(rng.standard_normal((b, n)).T)  # the decoder's layout
        llrs = 2.0 * (1.0 + sigma * llrs) / sigma**2
        _sc_decode_rec(dec, frozenset(range(n)), llrs, 0, errors, np.zeros((n, b), np.uint8))
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
            # 2 (1 - 2c + sigma z) / sigma^2 in place, by the IEEE operations
            # of that expression in its order
            llrs = encode(spec, u).astype(np.float64)
            llrs *= 2.0
            np.subtract(1.0, llrs, out=llrs)
            noise = rng.standard_normal((b, n))
            noise *= sigma
            llrs += noise
            del noise  # only the LLRs stay live through the decode
            llrs *= 2.0
            llrs /= sigma**2
            decoded, _ = sc_decode_batch(spec, llrs)
            block_errors += int(np.count_nonzero(np.any(decoded != u, axis=1)))
        results.append(BlerResult(snr_db, trials, block_errors))
    return results


def bler_csv(results: list[BlerResult]) -> str:
    lines = ["snr_db,trials,errors,bler"]
    lines += [f"{r.snr_db},{r.trials},{r.block_errors},{r.bler:.6e}" for r in results]
    return "\n".join(lines) + "\n"

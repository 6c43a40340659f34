"""Shared fixtures and naive reference oracles.

The oracles here deliberately use list-of-bits representations and brute
enumeration so they share no code with the bit-packed implementations
they check.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from polarkit.gf2 import BitMatrix, rank


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


def random_kernel(ell: int, rng: np.random.Generator) -> BitMatrix:
    """Uniform random non-singular ell x ell kernel (rejection sampling)."""
    while True:
        rows = tuple(int(r) for r in rng.integers(1, 1 << ell, size=ell))
        if rank(rows) == ell:
            return BitMatrix(ell, rows)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240824)

"""GF(2) core: oracle equivalences and dimension identities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarkit.gf2 import (
    BitMatrix,
    coset_distances,
    eliminate,
    interval_mask,
    is_subcode,
    rank,
    unpack_row,
)
from tests.conftest import (
    naive_coset_min_distance,
    naive_rank,
    naive_span,
    pack_row,
    random_kernel,
    reduced_basis,
    shortened_basis,
)

rows_strategy = st.integers(min_value=2, max_value=10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, (1 << n) - 1), min_size=0, max_size=8),
    )
)


def test_pack_unpack_roundtrip():
    bits = [1, 0, 1, 1, 0]
    assert unpack_row(pack_row(bits), 5) == bits
    assert pack_row([1, 0, 0, 0]) == 0b1000  # column 0 is the MSB


def test_identity_rank():
    assert rank((0b1000, 0b0100, 0b0010, 0b0001)) == 4


def test_duplicate_rows_rank():
    assert rank((0b11, 0b11)) == 1


@given(rows_strategy)
@settings(max_examples=150)
def test_rank_matches_naive(data):
    n, rows = data
    bit_rows = [unpack_row(r, n) for r in rows]
    assert rank(rows) == naive_rank(bit_rows)


@given(rows_strategy, st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_rank_permutation_invariant(data, pyrandom):
    n, rows = data
    shuffled = list(rows)
    pyrandom.shuffle(shuffled)
    assert rank(rows) == rank(shuffled)


small_rows_strategy = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, (1 << n) - 1), min_size=0, max_size=5),
    )
)


@given(small_rows_strategy)
@settings(max_examples=60, deadline=None)  # each example walks 2^n naive spans
def test_coset_distances_matches_naive(data):
    n, rows = data
    table = coset_distances(n, tuple(rows))
    assert table.shape == (1 << n,)
    bit_rows = [unpack_row(r, n) for r in rows]
    for v in range(1 << n):
        assert table[v] == naive_coset_min_distance(unpack_row(v, n), bit_rows)


def test_coset_distances_examples():
    assert coset_distances(2, (0b11,))[0b10] == 1
    assert coset_distances(16)[(1 << 16) - 1] == 16


def test_coset_distances_table_is_read_only():
    table = coset_distances(4, (0b0110,))
    with pytest.raises(ValueError):
        table[0] = 3
    assert table[0] == 0


def test_coset_distances_depend_only_on_the_span(rng):
    for _ in range(50):
        n = int(rng.integers(2, 11))
        rows = [int(r) for r in rng.integers(0, 1 << n, size=int(rng.integers(1, 6)))]
        other = list(rows) + [rows[0] ^ rows[-1]]
        rng.shuffle(other)
        assert np.array_equal(coset_distances(n, tuple(rows)), coset_distances(n, tuple(other)))


@given(rows_strategy)
@settings(max_examples=100)
def test_span_contains_agrees_with_enumeration(data):
    n, rows = data
    bit_rows = [unpack_row(r, n) for r in rows]
    span = {pack_row(word) for word in naive_span(bit_rows)}
    pivots: dict[int, int] = {}
    eliminate(pivots, rows)
    assert len(pivots) == naive_rank(bit_rows)
    for v in range(min(1 << n, 64)):
        assert (eliminate(dict(pivots), [v]) == [0]) == (v in span)
        assert is_subcode([v], rows) == (v in span)


def test_eliminate_restricted_mask_keeps_shortened_residuals(rng):
    for _ in range(50):
        n = int(rng.integers(2, 11))
        rows = [int(r) for r in rng.integers(0, 1 << n, size=int(rng.integers(0, n + 1)))]
        x = int(rng.integers(0, n))
        y = int(rng.integers(x + 1, n + 1))
        outside = ((1 << n) - 1) ^ interval_mask(n, x, y)
        pivots: dict[int, int] = {}
        residuals = eliminate(pivots, rows, outside)
        assert len(pivots) == naive_rank([unpack_row(r & outside, n) for r in rows])
        kept = [r for r in residuals if r not in pivots.values()]
        assert all(not r & outside for r in kept)
        span = {pack_row(word) for word in naive_span([unpack_row(r, n) for r in rows])}
        kept_span = {pack_row(word) for word in naive_span([unpack_row(r, n) for r in kept])}
        assert kept_span == {word for word in span if not word & outside}


def test_eliminate_stops_at_rank(rng):
    """With ``rank``, the reduction reads rows up to the one whose pivot
    brings the pivots to that size: its residuals and pivots are the full
    reduction's up to that row; without reaching it, nothing changes."""
    for _ in range(200):
        n = int(rng.integers(2, 11))
        rows = [int(r) for r in rng.integers(0, 1 << n, size=int(rng.integers(0, n + 3)))]
        seeds = [int(r) for r in rng.integers(0, 1 << n, size=int(rng.integers(0, 3)))]
        pivots: dict[int, int] = {}
        eliminate(pivots, seeds)
        full_pivots = dict(pivots)
        full = eliminate(full_pivots, rows)
        target = len(pivots) + int(rng.integers(1, n + 1))
        stopped_pivots = dict(pivots)
        stopped = eliminate(stopped_pivots, rows, rank=target)
        added = [i for i, r in enumerate(full) if r]
        if len(pivots) + len(added) >= target:
            last = added[target - len(pivots) - 1]
            assert stopped == full[: last + 1]
            assert len(stopped_pivots) == target
            assert stopped_pivots.items() <= full_pivots.items()
        else:
            assert (stopped, stopped_pivots) == (full, full_pivots)


def _xor_of(gens: list[int], coeffs: int, n: int) -> list[int]:
    """XOR, over lists of bits, of the generators named by coeffs' bits."""
    word = [0] * n
    for k, g in enumerate(gens):
        if (coeffs >> k) & 1:
            word = [a ^ b for a, b in zip(word, unpack_row(g, n))]
    return word


def test_eliminate_carries_coefficients_above_the_mask(rng):
    for _ in range(50):
        n = int(rng.integers(2, 13))
        low = (1 << n) - 1
        gens = [int(r) for r in rng.integers(0, 1 << n, size=int(rng.integers(1, 7)))]
        pivots: dict[int, int] = {}
        eliminate(pivots, [(1 << (n + k)) | g for k, g in enumerate(gens)], low)
        for coeffs in rng.integers(0, 1 << len(gens), size=8):
            word = _xor_of(gens, int(coeffs), n)
            (residual,) = eliminate(dict(pivots), [pack_row(word)], low)
            assert not residual & low
            assert _xor_of(gens, residual >> n, n) == word


def test_is_subcode_examples():
    assert is_subcode([], [0b1])
    assert not is_subcode([0b111], [0b110, 0b101])
    assert is_subcode([0b110, 0b101], [0b110, 0b101])


@given(rows_strategy, rows_strategy)
@settings(max_examples=100)
def test_mutual_subcode_implies_equal_rank(a_data, b_data):
    _, a = a_data
    _, b = b_data
    if is_subcode(a, b) and is_subcode(b, a):
        assert rank(a) == rank(b)


def test_reduced_basis_is_canonical(rng):
    for _ in range(50):
        n = int(rng.integers(2, 12))
        rows = [int(r) for r in rng.integers(0, 1 << n, size=6)]
        base = reduced_basis(rows)
        # any generating set of the same space reduces to the same tuple
        mixed = list(rows)
        mixed.append(rows[0] ^ rows[1])
        rng.shuffle(mixed)
        assert reduced_basis(mixed) == base


def test_interval_mask_msb_convention():
    assert interval_mask(4, 0, 2) == 0b1100
    assert interval_mask(4, 3, 4) == 0b0001
    with pytest.raises(ValueError):
        interval_mask(4, 2, 2)


def test_dimension_identity_shortened_plus_outside(rng):
    for _ in range(100):
        n = int(rng.integers(2, 13))
        m = BitMatrix(n, tuple(int(r) for r in rng.integers(0, 1 << n, size=n)))
        x = int(rng.integers(0, n))
        y = int(rng.integers(x + 1, n + 1))
        outside = ((1 << n) - 1) ^ interval_mask(n, x, y)
        assert len(shortened_basis(m.rows, outside)) + rank(r & outside for r in m.rows) == rank(
            m.rows
        )


def test_shortened_basis_spans_inside_subcode(rng):
    for _ in range(50):
        n = int(rng.integers(2, 11))
        rows = [int(r) for r in rng.integers(0, 1 << n, size=n)]
        x = int(rng.integers(0, n))
        y = int(rng.integers(x + 1, n + 1))
        outside = ((1 << n) - 1) ^ interval_mask(n, x, y)
        basis = shortened_basis(rows, outside)
        assert basis == reduced_basis(basis)  # canonical: equal codes, equal bases
        span = {pack_row(word) for word in naive_span([unpack_row(r, n) for r in rows])}
        basis_span = {pack_row(word) for word in naive_span([unpack_row(r, n) for r in basis])}
        assert len(basis_span) == 1 << len(basis)  # independent rows
        assert basis_span == {word for word in span if not word & outside}


def test_weight_vectors_complete_and_ordered():
    # the weight table lists every word of a weight, ascending (brute's candidates)
    vecs = np.flatnonzero(coset_distances(6) == 2).tolist()
    assert vecs == sorted(vecs)
    assert len(vecs) == 15
    assert all(v.bit_count() == 2 for v in vecs)
    assert np.flatnonzero(coset_distances(4) == 0).tolist() == [0]
    assert np.flatnonzero(coset_distances(4) == 4).tolist() == [0b1111]


def test_bitmatrix_validation():
    with pytest.raises(ValueError):
        BitMatrix(2, (0b100,))
    with pytest.raises(ValueError):
        BitMatrix(18, ())


def test_random_kernel_is_nonsingular():
    kernel = random_kernel(8, np.random.default_rng(0))
    assert rank(kernel.rows) == 8

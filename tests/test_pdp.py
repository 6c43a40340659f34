"""Partial distance profiles, exponents, and shipped targets."""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

from polarkit.gf2 import BitMatrix, unpack_row
from polarkit.pdp import (
    PartialDistanceProfile,
    SingularKernelError,
    compute_pdp,
    error_exponent,
    meets_target,
    target_profile,
    valid_rows,
)
from polarkit.reference import ARIKAN, BEST12, BEST16
from polarkit.search import brute_force_search
from tests.conftest import (
    TARGET_EXPONENTS,
    naive_coset_min_distance,
    random_kernel,
    supported_sizes,
)


def test_arikan_pdp():
    pdp = compute_pdp(ARIKAN)
    assert pdp.distances == (1, 2)
    assert error_exponent(pdp) == pytest.approx(0.5, abs=1e-12)


def test_identity_pdp():
    assert compute_pdp(BitMatrix(4, (0b1000, 0b0100, 0b0010, 0b0001))).distances == (1, 1, 1, 1)


def test_singular_kernel_rejected():
    with pytest.raises(SingularKernelError):
        compute_pdp(BitMatrix(2, (0b11, 0b11)))
    with pytest.raises(SingularKernelError):
        compute_pdp(BitMatrix(3, (0b100, 0b010)))


def test_reference_kernels_meet_targets():
    assert meets_target(BEST12, target_profile(12))
    assert meets_target(BEST16, target_profile(16))
    with pytest.raises(ValueError, match="kernel size and target size differ"):
        meets_target(BEST12, target_profile(16))


def test_target_exponents_match_table():
    for ell in supported_sizes():
        if ell < 5:
            continue
        computed = error_exponent(target_profile(ell))
        assert computed == pytest.approx(TARGET_EXPONENTS[ell], abs=5e-4), ell


def test_small_targets_are_optimal_by_enumeration():
    """Exhaustive check that no non-singular kernel beats the shipped
    exponent at widths 2 and 3."""
    for ell in (2, 3):
        best = 0.0
        for rows in product(range(1, 1 << ell), repeat=ell):
            try:
                pdp = compute_pdp(BitMatrix(ell, rows))
            except SingularKernelError:
                continue
            best = max(best, error_exponent(pdp))
        assert best == pytest.approx(TARGET_EXPONENTS[ell], abs=5e-4)


def test_pdp_bounded_by_row_weight(rng):
    for _ in range(30):
        ell = int(rng.integers(2, 9))
        kernel = random_kernel(ell, rng)
        pdp = compute_pdp(kernel)
        for i, d in enumerate(pdp.distances):
            assert d <= kernel.rows[i].bit_count()


def test_pdp_depends_only_on_suffix_rows(rng):
    """D_i is unchanged when any row strictly above i is replaced."""
    for _ in range(30):
        ell = int(rng.integers(3, 9))
        kernel = random_kernel(ell, rng)
        pdp = compute_pdp(kernel)
        i = int(rng.integers(1, ell))
        j = int(rng.integers(0, i))
        mutated = list(kernel.rows)
        mutated[j] = int(rng.integers(1, 1 << ell))
        try:
            other = compute_pdp(BitMatrix(ell, tuple(mutated)))
        except SingularKernelError:
            continue
        assert other.distances[i:] == pdp.distances[i:]


def test_exponent_strictly_increases_with_any_distance():
    base = target_profile(12)
    e0 = error_exponent(base)
    for i in range(base.ell):
        if base.distances[i] == base.ell:
            continue
        bumped = list(base.distances)
        bumped[i] += 1
        e1 = error_exponent(PartialDistanceProfile(tuple(bumped)))
        assert e1 > e0


def test_exponent_closed_form():
    pdp = compute_pdp(BEST16)
    expected = sum(math.log(d, 16) for d in pdp.distances) / 16
    assert error_exponent(pdp) == pytest.approx(expected, abs=1e-15)


def test_profile_validation():
    with pytest.raises(ValueError):
        PartialDistanceProfile((0, 1, 2))
    with pytest.raises(ValueError):
        PartialDistanceProfile((1, 3))  # a distance above the width
    # widths outside [2, 16]: no search, exponent or matrix can use them
    with pytest.raises(ValueError):
        brute_force_search(PartialDistanceProfile(()))
    with pytest.raises(ValueError):
        error_exponent(PartialDistanceProfile((1,)))
    with pytest.raises(ValueError):
        PartialDistanceProfile((1,) * 18)
    with pytest.raises(ValueError):
        target_profile(17)


def test_valid_rows_matches_naive_rule(rng):
    empty_sets = 0
    for _ in range(80):
        ell = int(rng.integers(2, 7))
        below = tuple(int(r) for r in rng.integers(0, 1 << ell, size=int(rng.integers(0, ell))))
        bit_rows = [unpack_row(r, ell) for r in below]
        dist = [naive_coset_min_distance(unpack_row(v, ell), bit_rows) for v in range(1 << ell)]
        for d in range(1, ell + 1):
            want = [v.bit_count() == d and dist[v] == d for v in range(1 << ell)]
            assert valid_rows(ell, below, d).tolist() == want, (ell, below, d)
            empty_sets += not any(want)
    assert empty_sets > 0  # prefixes that admit no row were compared too


def test_valid_rows_read_only_and_weight_words_for_empty_prefix():
    for ell in range(2, 9):
        for d in range(1, ell + 1):
            mask = valid_rows(ell, (), d)
            assert np.flatnonzero(mask).tolist() == [
                v for v in range(1 << ell) if v.bit_count() == d
            ]
    with pytest.raises(ValueError):
        valid_rows(4, (0b0110,), 2)[0b0011] = False

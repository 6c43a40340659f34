"""Partial distance profiles, error exponents, and shipped target profiles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from polarkit.gf2 import MAX_ELL, MIN_ELL, BitMatrix, coset_distances


class SingularKernelError(ValueError):
    """Raised when a square kernel matrix is not full rank."""


@dataclass(frozen=True)
class PartialDistanceProfile:
    distances: tuple[int, ...]

    def __post_init__(self) -> None:
        if not MIN_ELL <= self.ell <= MAX_ELL:
            raise ValueError(
                f"profile width {self.ell} outside supported range [{MIN_ELL}, {MAX_ELL}]"
            )
        if any(not 1 <= d <= self.ell for d in self.distances):
            raise ValueError("every partial distance must lie in [1, ell]")

    @property
    def ell(self) -> int:
        return len(self.distances)


# Relaxed target profiles for widths 5..16.  Widths 2..4 were filled in by
# one-off exhaustive enumeration over all non-singular matrices, maximizing
# the exponent (see tests for the oracle).
_TARGETS: dict[int, tuple[int, ...]] = {
    2: (1, 2),
    3: (1, 2, 2),
    4: (1, 2, 2, 4),
    5: (1, 2, 2, 2, 4),
    6: (1, 2, 2, 2, 4, 4),
    7: (1, 2, 2, 2, 4, 4, 4),
    8: (1, 2, 2, 2, 4, 4, 4, 8),
    9: (1, 2, 2, 2, 2, 4, 4, 6, 6),
    10: (1, 2, 2, 2, 2, 4, 4, 4, 6, 8),
    11: (1, 2, 2, 2, 2, 4, 4, 4, 6, 6, 8),
    12: (1, 2, 2, 2, 2, 4, 4, 4, 4, 6, 6, 12),
    13: (1, 2, 2, 2, 2, 4, 4, 4, 4, 6, 6, 8, 10),
    14: (1, 2, 2, 2, 2, 4, 4, 4, 4, 6, 6, 8, 8, 8),
    15: (1, 2, 2, 2, 2, 4, 4, 4, 4, 6, 6, 8, 8, 8, 8),
    16: (1, 2, 2, 2, 2, 4, 4, 4, 4, 6, 6, 8, 8, 8, 8, 16),
}


def compute_pdp(kernel: BitMatrix) -> PartialDistanceProfile:
    """Distance from each row to the span of the rows below it; a square
    kernel is singular exactly when one of them is 0."""
    ell = kernel.ncols
    if kernel.nrows != ell:
        raise SingularKernelError("kernel must be square")
    below = [kernel.rows[:i:-1] for i in range(ell)]  # bottom first, as the searches key them
    distances = tuple(int(coset_distances(ell, b)[r]) for b, r in zip(below, kernel.rows))
    if 0 in distances:
        raise SingularKernelError("kernel must be non-singular")
    return PartialDistanceProfile(distances)


@lru_cache(maxsize=64)
def valid_rows(ell: int, below: tuple[int, ...], d: int) -> np.ndarray:
    """The row rule of every construction: a read-only mask of the weight-d
    words at distance d from span(below), the rows placed so far, bottom first."""
    mask = coset_distances(ell, below) == d
    if below:
        mask &= valid_rows(ell, (), d)
    mask.flags.writeable = False
    return mask


def error_exponent(pdp: PartialDistanceProfile) -> float:
    ell = pdp.ell
    return sum(math.log(d, ell) for d in pdp.distances) / ell


def target_profile(ell: int) -> PartialDistanceProfile:
    if ell not in _TARGETS:
        raise ValueError(
            f"unsupported kernel size ell={ell}; supported range is [{MIN_ELL}, {MAX_ELL}]"
        )
    return PartialDistanceProfile(_TARGETS[ell])


def meets_target(kernel: BitMatrix, target: PartialDistanceProfile) -> bool:
    if kernel.ncols != target.ell:
        raise ValueError("kernel size and target size differ")
    return compute_pdp(kernel).distances == target.distances

"""Partial distance profiles, error exponents, and shipped target profiles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from polarkit.gf2 import BitMatrix, coset_distances


class SingularKernelError(ValueError):
    """Raised when a square kernel matrix is not full rank."""


@dataclass(frozen=True)
class PartialDistanceProfile:
    distances: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 2 <= self.ell <= 16:
            raise ValueError(f"profile width {self.ell} outside supported range [2, 16]")
        if any(not 1 <= d <= self.ell for d in self.distances):
            raise ValueError("every partial distance must lie in [1, ell]")

    @property
    def ell(self) -> int:
        return len(self.distances)


# Relaxed target profiles for widths 5..16 with their exponents (4 decimals).
# Widths 2..4 were filled in by one-off exhaustive enumeration over all
# non-singular matrices, maximizing the exponent (see tests for the oracle).
_TARGETS: dict[int, tuple[tuple[int, ...], float]] = {
    2: ((1, 2), 0.5000),
    3: ((1, 2, 2), 0.4206),
    4: ((1, 2, 2, 4), 0.5000),
    5: ((1, 2, 2, 2, 4), 0.4307),
    6: ((1, 2, 2, 2, 4, 4), 0.4513),
    7: ((1, 2, 2, 2, 4, 4, 4), 0.4580),
    8: ((1, 2, 2, 2, 4, 4, 4, 8), 0.5000),
    9: ((1, 2, 2, 2, 2, 4, 4, 6, 6), 0.4616),
    10: ((1, 2, 2, 2, 2, 4, 4, 4, 6, 8), 0.4692),
    11: ((1, 2, 2, 2, 2, 4, 4, 4, 6, 6, 8), 0.4775),
    12: ((1, 2, 2, 2, 2, 4, 4, 4, 4, 6, 6, 12), 0.4825),
    13: ((1, 2, 2, 2, 2, 4, 4, 4, 4, 6, 6, 8, 10), 0.4883),
    14: ((1, 2, 2, 2, 2, 4, 4, 4, 4, 6, 6, 8, 8, 8), 0.4910),
    15: ((1, 2, 2, 2, 2, 4, 4, 4, 4, 6, 6, 8, 8, 8, 8), 0.4978),
    16: ((1, 2, 2, 2, 2, 4, 4, 4, 4, 6, 6, 8, 8, 8, 8, 16), 0.5183),
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
        raise ValueError(f"unsupported kernel size ell={ell}; supported range is [2, 16]")
    return PartialDistanceProfile(_TARGETS[ell][0])


def target_exponent(ell: int) -> float:
    """Tabulated exponent of the shipped target profile (4-decimal print)."""
    if ell not in _TARGETS:
        raise ValueError(f"unsupported kernel size ell={ell}; supported range is [2, 16]")
    return _TARGETS[ell][1]


def meets_target(kernel: BitMatrix, target: PartialDistanceProfile) -> bool:
    if kernel.ncols != target.ell:
        raise ValueError("kernel size and target size differ")
    return compute_pdp(kernel).distances == target.distances

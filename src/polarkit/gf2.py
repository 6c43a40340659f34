"""Exact GF(2) linear algebra on bit-packed rows.

Rows are python ints.  Column j of a width-n row sits at bit (n-1-j), so
column 0 is the most significant bit and a row reads left-to-right like its
binary literal: the 12-column row 0x800 has a single 1 in column 0.
All widths are <= 17 (16-column kernels plus one appended column); a
coset-distance table holds 2^ell bytes and the cache keeps at most 64 of
them (4 MiB at ell=16).  Each table is built from the previous one through
an index array of all words, which is made once per width and shared.

``eliminate`` is the one Gaussian elimination; bases, subcode tests,
shortened codes and their reduced bases, the complexity model's w/v
representatives and the decoder's coset coordinates are all built on it.  A caller may carry
coefficient bits above the 17 columns and keep them out of the pivot
search with a mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

#: Supported kernel widths; a phase's extended matrix appends one column.
MIN_ELL, MAX_ELL = 2, 16
MAX_COLS = MAX_ELL + 1


def unpack_row(row: int, ncols: int) -> list[int]:
    return [(row >> (ncols - 1 - j)) & 1 for j in range(ncols)]


@dataclass(frozen=True)
class BitMatrix:
    """Ordered rows over GF(2); row order is significant."""

    ncols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.ncols <= MAX_COLS:
            raise ValueError(f"ncols must be in [1, {MAX_COLS}], got {self.ncols}")
        limit = 1 << self.ncols
        for r in self.rows:
            if not 0 <= r < limit:
                raise ValueError(f"row {r:#x} does not fit in {self.ncols} columns")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def to_bits(self) -> list[list[int]]:
        return [unpack_row(r, self.ncols) for r in self.rows]


def eliminate(
    pivots: dict[int, int], rows: Iterable[int], mask: int = -1, rank: int | None = None
) -> list[int]:
    """Reduce each row, in order, by the pivot rows and return every row's
    residual.

    ``pivots`` maps a leading bit inside ``mask`` to the row that owns it,
    and grows: a residual with a bit left inside ``mask`` becomes the pivot
    of its leading bit there.  Bits outside ``mask`` are carried, never
    searched: a row whose residual is zero inside ``mask`` equals there the
    XOR of the pivots that reduced it, and its residual's other bits are
    its own XORed with those pivots' other bits.  Given ``rank``, the
    reduction stops at the row whose pivot brings ``pivots`` to that size,
    so only the residuals up to it are returned.
    """
    residuals = []
    for r in rows:
        while m := r & mask:
            p = m.bit_length() - 1
            pivot = pivots.get(p)
            if pivot is None:
                pivots[p] = r
                if rank is not None and len(pivots) == rank:
                    residuals.append(r)
                    return residuals
                break
            r ^= pivot
        residuals.append(r)
    return residuals


def row_basis(rows: Iterable[int]) -> list[int]:
    """Row-echelon basis (by leading bit); input rows are not mutated."""
    pivots: dict[int, int] = {}
    eliminate(pivots, rows)
    return [pivots[p] for p in sorted(pivots, reverse=True)]


def rank(rows: Iterable[int]) -> int:
    return len(row_basis(rows))


@lru_cache(maxsize=None)
def _words(ncols: int) -> np.ndarray:
    """Read-only array of every width-ncols word, ascending: the index of a table."""
    words = np.arange(1 << ncols)
    words.flags.writeable = False
    return words


@lru_cache(maxsize=64)
def coset_distances(ncols: int, rows: tuple[int, ...] = ()) -> np.ndarray:
    """Read-only uint8 table whose entry x is the Hamming distance from x
    to span(rows): each word's weight for ``()``, else the table of
    ``rows[:-1]`` where x may also reach the span through x ^ rows[-1]."""
    if rows:
        prev = coset_distances(ncols, rows[:-1])
        table = np.minimum(prev, prev.take(_words(ncols) ^ rows[-1]))
    else:
        table = np.zeros(1 << ncols, dtype=np.uint8)
        for b in range(ncols):
            table[1 << b : 2 << b] = table[: 1 << b] + 1
    table.flags.writeable = False
    return table


def is_subcode(a_rows: Iterable[int], b_rows: Iterable[int]) -> bool:
    """True iff rowspace(A) is contained in rowspace(B)."""
    pivots: dict[int, int] = {}
    eliminate(pivots, b_rows)
    # a row of A outside the span already decides; one inside adds no pivot
    return not any(eliminate(pivots, a_rows))


def interval_mask(ncols: int, x: int, y: int) -> int:
    """Bit mask selecting columns [x, y) of a width-ncols row."""
    if not 0 <= x < y <= ncols:
        raise ValueError(f"invalid column interval [{x}, {y}) for width {ncols}")
    return ((1 << (y - x)) - 1) << (ncols - y)


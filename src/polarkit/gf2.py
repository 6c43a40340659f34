"""Exact GF(2) linear algebra on bit-packed rows.

Rows are python ints.  Column j of a width-n row sits at bit (n-1-j), so
column 0 is the most significant bit and a row reads left-to-right like its
binary literal: the 12-column row 0x800 has a single 1 in column 0.
All widths are <= 17 (16-column kernels plus one appended column), which
keeps every span enumerable.

``eliminate`` is the one Gaussian elimination; bases, subcode tests,
shortened codes, the complexity model's w/v representatives and the
decoder's coset coordinates are all built on it.  A caller may carry
coefficient bits above the 17 columns and keep them out of the pivot
search with a mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_COLS = 17


def pack_row(bits: Sequence[int]) -> int:
    """Pack a left-to-right bit sequence into an int (column 0 = MSB)."""
    value = 0
    for b in bits:
        value = (value << 1) | (b & 1)
    return value


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

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, tuple(1 << (n - 1 - i) for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row_weight(self, i: int) -> int:
        return self.rows[i].bit_count()

    def to_bits(self) -> list[list[int]]:
        return [unpack_row(r, self.ncols) for r in self.rows]


def eliminate(pivots: dict[int, int], rows: Iterable[int], mask: int = -1) -> list[int]:
    """Reduce each row, in order, by the pivot rows and return every row's
    residual.

    ``pivots`` maps a leading bit inside ``mask`` to the row that owns it,
    and grows: a residual with a bit left inside ``mask`` becomes the pivot
    of its leading bit there.  Bits outside ``mask`` are carried, never
    searched: a row whose residual is zero inside ``mask`` equals there the
    XOR of the pivots that reduced it, and its residual's other bits are
    its own XORed with those pivots' other bits.
    """
    residuals = []
    for r in rows:
        while m := r & mask:
            p = m.bit_length() - 1
            pivot = pivots.get(p)
            if pivot is None:
                pivots[p] = r
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


def reduced_basis(rows: Iterable[int]) -> tuple[int, ...]:
    """Fully reduced echelon basis: a canonical fingerprint of the row space."""
    basis = row_basis(rows)
    for i, r in enumerate(basis):
        p = r.bit_length() - 1
        for j in range(len(basis)):
            if j != i and (basis[j] >> p) & 1:
                basis[j] ^= r
    return tuple(sorted(basis, reverse=True))


def span_iter(basis: Sequence[int]) -> Iterator[int]:
    """Yield all 2^len(basis) span elements (Gray-code order, starts at 0)."""
    value = 0
    yield value
    for i in range(1, 1 << len(basis)):
        value ^= basis[(i & -i).bit_length() - 1]
        yield value


def coset_min_distance(v: int, generators: Iterable[int], stop_below: int | None = None) -> int:
    """Min Hamming distance from v to the span of the generators.

    The zero word is always in the span, so the result is <= weight(v).
    If stop_below is given, returns early with the first distance found
    strictly below it (enough for equality checks against a target).
    """
    basis = row_basis(generators)
    best = v.bit_count()
    if stop_below is not None and best < stop_below:
        return best
    value = 0
    for i in range(1, 1 << len(basis)):
        value ^= basis[(i & -i).bit_length() - 1]
        d = (v ^ value).bit_count()
        if d < best:
            best = d
            if stop_below is not None and best < stop_below:
                return best
    return best


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


def punctured_dimension(m: BitMatrix, x: int, y: int) -> int:
    """Dimension of the code projected onto columns [x, y)."""
    mask = interval_mask(m.ncols, x, y)
    return rank(r & mask for r in m.rows)


def shortened_basis(rows: Iterable[int], outside_mask: int) -> list[int]:
    """Basis of the subcode whose outside-mask part is zero.

    Gaussian elimination with pivots restricted to the outside columns;
    residuals whose outside part cancels span exactly the shortened subcode.
    """
    residuals = eliminate({}, rows, outside_mask)
    return row_basis(r for r in residuals if not r & outside_mask)


def weight_vectors(length: int, w: int) -> Iterator[int]:
    """All weight-w vectors of the given length, ascending as integers.

    Under the column-0-is-MSB convention this is a fixed lexicographic-style
    total order; enumeration completeness is all the search needs.
    """
    if not 0 <= length <= 16:
        raise ValueError("length must be in [0, 16]")
    if w > length or w < 0:
        raise ValueError(f"weight {w} invalid for length {length}")
    if w == 0:
        yield 0
        return
    v = (1 << w) - 1
    limit = 1 << length
    while v < limit:
        yield v
        # Gosper's hack: next larger int with the same popcount
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r

"""Published reference kernels used for calibration and regression checks.

BEST12 (repaired, below) and BEST16 are the published self-play kernels,
kept as calibration pins, not as the cheapest of their widths: the seeded
`polarkit random --ell 12 --iters 600 --seed 7` finds one of BEST12's
profile at 1042, where BEST12 costs 1264 (default policy).  Rows are hex
words, top row first, column 0 at the most significant bit.

The width-12 matrix circulating in print is singular (its row 5 is the sum
of rows 1, 2 and 3, and its row 9 has weight 7 where the distance profile
requires weight 6).  BEST12 below carries the minimal two-digit repair that
restores full rank while keeping every row weight equal to its target
partial distance: row 5 0xA50 -> 0x350, row 9 0xE4B -> 0xE0B.
"""

from __future__ import annotations

from polarkit.gf2 import BitMatrix

BEST12 = BitMatrix(12, (
    0x800, 0x210, 0xA00, 0x240, 0x003, 0x350,
    0x162, 0x868, 0x464, 0xE0B, 0x78C, 0xFFF,
))

#: The width-12 matrix as printed, rows 5 (0xA50) and 9 (0xE4B) included.
#: It is singular, so the published width-12 total (652) belongs to a
#: matrix no complexity can be computed for, and no published total
#: exists for the repaired BEST12.
BEST12_PRINTED = BitMatrix(12, (
    0x800, 0x210, 0xA00, 0x240, 0x003, 0xA50,
    0x162, 0x868, 0x464, 0xE4B, 0x78C, 0xFFF,
))

BEST16 = BitMatrix(16, (
    0x8000, 0x2010, 0x1400, 0x0A00, 0x0C00, 0x4882,
    0x9500, 0xC300, 0xF000, 0x5C88, 0x098E, 0xFF00,
    0x33F0, 0xF036, 0x9A65, 0xFFFF,
))

#: Published complexity total for BEST16.  The evaluator in
#: polarkit.complexity does not reproduce it under any reuse policy; see
#: the README section "Complexity-model calibration caveat".
BEST16_COMPLEXITY = 1396

ARIKAN = BitMatrix(2, (0b10, 0b11))

#: Published random-search complexity statistics per kernel size:
#: ell -> (min observed, max observed, trials).  Used for regression
#: context and to derive default reward-shaping bounds.
RANDOM_SEARCH_REFERENCE: dict[int, tuple[int, int, int]] = {
    4: (32, 40, 10_000),
    5: (51, 93, 10_000),
    6: (84, 146, 10_000),
    7: (117, 219, 10_000),
    8: (152, 280, 10_000),
    9: (271, 503, 10_000),
    10: (326, 708, 10_000),
    11: (523, 1041, 10_000),
    12: (668, 1448, 200_000),
    13: (1049, 2109, 10_000),
    14: (1424, 2834, 10_000),
    15: (1717, 4107, 10_000),
    16: (1774, 5690, 400_000),
}

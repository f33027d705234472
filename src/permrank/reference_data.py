"""Frozen expected values used by the verification suites and tests.

These are fixtures, not computations: verification compares live results
against them, so they must never be regenerated from the code under test.
The bound-table rows and character tables are independently established
values; the asymptotic ratios were produced once by the high-precision
oracle run and frozen here (the ratio is deterministic for fixed n and
digit count).
"""

from __future__ import annotations

#: n -> (earlier lower bound, new lower bound, upper bound), n = 1..10.
BOUNDS_TABLE: dict[int, tuple[int, int, int]] = {
    1: (1, 1, 1),
    2: (6, 6, 6),
    3: (33, 39, 39),
    4: (180, 276, 292),
    5: (985, 2055, 2505),
    6: (5418, 15798, 24306),
    7: (29953, 124173, 263431),
    8: (166344, 992232, 3154824),
    9: (927441, 8030943, 41368977),
    10: (5188590, 65672850, 589410910),
}

#: Character table of degree 3: rows are shapes (3), (2,1), (1,1,1);
#: columns are classes (1,1,1), (2,1), (3).
CHARACTER_TABLE_3: list[list[int]] = [
    [1, 1, 1],
    [2, 0, -1],
    [1, -1, 1],
]

#: Character table of degree 4: rows are shapes (4), (3,1), (2,2), (2,1,1),
#: (1,1,1,1); columns are classes (1^4), (2,1,1), (2,2), (3,1), (4).
CHARACTER_TABLE_4: list[list[int]] = [
    [1, 1, 1, 1, 1],
    [3, 1, -1, 0, -1],
    [2, 0, 2, -1, 0],
    [3, -1, -1, 0, 1],
    [1, -1, 1, 1, -1],
]

#: n -> asymptotic ratio at 30+ significant digits, from the oracle pre-run.
ASYMPTOTIC_RATIOS: dict[int, str] = {
    1: "0.53742203384717565943528244670878688",
    10: "0.91100077609835679097871328200040434",
    50: "0.98046720495622542464886796869412189",
    100: "0.99011776286724944722316690720420859",
    200: "0.99502956330611643642516880299340827",
    400: "0.99750740630044384927323437116975718",
}

#: Loose cap on |ratio(400) - 1|, fixed after the oracle run (observed
#: value 0.0024926).
ASYMPTOTIC_CAP_AT_400 = 0.05

"""Built-in construction of every configuration used in the analysis.

The 64-ray saturated configuration M is stored as a literal vector
table; its subconfigurations (the critical 36-ray set, the tropical
48-ray sets) are stored as index sets into M so the vectors live once.
The 120-ray E8 configuration and its 64-ray full-support part A are
generated from their shape rules; B = A union T(A) for the orthogonal
map T defined by eight basis assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .rays import (
    Ray,
    build_configuration,
    make_ray,
    scaled_ray,
)
from .orthograph import _bits, capacity, clique_masks


def _vec(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split())


#: The 64 vectors of the saturated configuration M (indices 0..63).
M_VECTORS = tuple(
    _vec(s)
    for s in (
        "1 -1 -1 -1 -1 -1 -1 1",
        "1 -1 -1 -1 -1 -1 1 -1",
        "1 -1 -1 -1 1 1 -1 1",
        "1 -1 -1 -1 1 1 1 -1",
        "1 -1 -1 1 -1 -1 -1 -1",
        "1 -1 -1 1 -1 -1 1 1",
        "1 -1 -1 1 1 1 -1 -1",
        "1 -1 -1 1 1 1 1 1",
        "1 -1 1 -1 -1 -1 -1 -1",
        "1 -1 1 -1 -1 -1 1 1",
        "1 -1 1 -1 1 1 -1 -1",
        "1 -1 1 -1 1 1 1 1",
        "1 -1 1 1 -1 -1 -1 1",
        "1 -1 1 1 -1 -1 1 -1",
        "1 -1 1 1 1 1 -1 1",
        "1 -1 1 1 1 1 1 -1",
        "1 1 -1 -1 -1 1 -1 1",
        "1 1 -1 -1 -1 1 1 -1",
        "1 1 -1 -1 1 -1 -1 1",
        "1 1 -1 -1 1 -1 1 -1",
        "1 1 -1 1 -1 1 -1 -1",
        "1 1 -1 1 -1 1 1 1",
        "1 1 -1 1 1 -1 -1 -1",
        "1 1 -1 1 1 -1 1 1",
        "1 1 1 -1 -1 1 -1 -1",
        "1 1 1 -1 -1 1 1 1",
        "1 1 1 -1 1 -1 -1 -1",
        "1 1 1 -1 1 -1 1 1",
        "1 1 1 1 -1 1 -1 1",
        "1 1 1 1 -1 1 1 -1",
        "1 1 1 1 1 -1 -1 1",
        "1 1 1 1 1 -1 1 -1",
        "1 -1 -1 1 0 0 0 0",
        "1 -1 -1 -1 0 0 0 0",
        "1 -1 0 0 0 0 -1 1",
        "1 -1 0 0 0 0 -1 -1",
        "1 -1 0 0 0 0 1 1",
        "1 -1 0 0 0 0 1 -1",
        "1 -1 1 1 0 0 0 0",
        "1 -1 1 -1 0 0 0 0",
        "1 1 -1 1 0 0 0 0",
        "1 1 -1 -1 0 0 0 0",
        "1 1 0 0 0 0 -1 1",
        "1 1 0 0 0 0 -1 -1",
        "1 1 0 0 0 0 1 1",
        "1 1 0 0 0 0 1 -1",
        "1 1 1 1 0 0 0 0",
        "1 1 1 -1 0 0 0 0",
        "0 0 1 -1 -1 1 0 0",
        "0 0 1 1 -1 1 0 0",
        "0 0 0 0 1 -1 -1 1",
        "0 0 0 0 1 -1 -1 -1",
        "0 0 0 0 1 -1 1 1",
        "0 0 0 0 1 -1 1 -1",
        "0 0 1 1 1 -1 0 0",
        "0 0 1 -1 1 -1 0 0",
        "0 0 1 -1 -1 -1 0 0",
        "0 0 1 1 -1 -1 0 0",
        "0 0 0 0 1 1 -1 1",
        "0 0 0 0 1 1 -1 -1",
        "0 0 0 0 1 1 1 1",
        "0 0 0 0 1 1 1 -1",
        "0 0 1 1 1 1 0 0",
        "0 0 1 -1 1 1 0 0",
    )
)

#: Index set of the critical 36-ray subconfiguration N of M.
N_INDICES = (
    2, 3, 4, 9, 12, 13, 14, 15, 16, 19, 21, 23, 24, 25, 26, 27, 29, 30,
    32, 33, 34, 37, 39, 40, 41, 43, 46, 48, 51, 52, 55, 58, 59, 60, 61, 62,
)

#: Index set of the tropical 48-ray subconfiguration T0 of M.
T0_INDICES = (
    0, 1, 2, 3, 4, 7, 9, 10, 12, 13, 14, 15, 16, 19, 20, 21,
    22, 23, 24, 25, 26, 27, 29, 30, 32, 33, 34, 37, 38, 39, 40, 41,
    43, 44, 46, 47, 48, 50, 51, 52, 53, 55, 57, 58, 59, 60, 61, 62,
)

#: The colour-class index sets of the (6,2) and (4,4) colourings of M.
PARTITION_62_ONES = (
    0, 1, 3, 4, 5, 7, 11, 15, 32, 33, 36, 37, 60, 61, 62, 63,
)
PARTITION_44_ONES = (
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    32, 33, 34, 35, 36, 37, 38, 39, 56, 57, 58, 59, 60, 61, 62, 63,
)

#: The 40 Kernaghan-Peres vectors (indices 0..39).
KP_VECTORS = tuple(
    _vec(s)
    for s in (
        "1 0 0 0 0 0 0 0",
        "0 1 0 0 0 0 0 0",
        "0 0 1 0 0 0 0 0",
        "0 0 0 1 0 0 0 0",
        "0 0 0 0 1 0 0 0",
        "0 0 0 0 0 1 0 0",
        "0 0 0 0 0 0 1 0",
        "0 0 0 0 0 0 0 1",
        "1 1 1 1 0 0 0 0",
        "1 1 -1 -1 0 0 0 0",
        "1 -1 1 -1 0 0 0 0",
        "1 -1 -1 1 0 0 0 0",
        "0 0 0 0 1 1 1 1",
        "0 0 0 0 1 1 -1 -1",
        "0 0 0 0 1 -1 1 -1",
        "0 0 0 0 1 -1 -1 1",
        "1 1 0 0 1 1 0 0",
        "1 1 0 0 -1 -1 0 0",
        "1 -1 0 0 1 -1 0 0",
        "1 -1 0 0 -1 1 0 0",
        "0 0 1 1 0 0 1 1",
        "0 0 1 1 0 0 -1 -1",
        "0 0 1 -1 0 0 1 -1",
        "0 0 1 -1 0 0 -1 1",
        "1 0 1 0 1 0 1 0",
        "1 0 1 0 -1 0 -1 0",
        "1 0 -1 0 1 0 -1 0",
        "1 0 -1 0 -1 0 1 0",
        "0 1 0 1 0 1 0 1",
        "0 1 0 1 0 -1 0 -1",
        "0 1 0 -1 0 1 0 -1",
        "0 1 0 -1 0 -1 0 1",
        "1 0 0 1 0 1 -1 0",
        "1 0 0 -1 0 1 1 0",
        "1 0 0 1 0 -1 1 0",
        "1 0 0 -1 0 -1 -1 0",
        "0 1 1 0 -1 0 0 1",
        "0 1 -1 0 1 0 0 1",
        "0 -1 1 0 1 0 0 1",
        "0 -1 -1 0 -1 0 0 1",
    )
)

#: Excluded indices turning the 40-ray set into the critical 36-ray one.
KP_EXCLUDED = (0, 12, 22, 31)

#: Basis assignments defining the orthogonal-up-to-scalar map T.
TRANSFORM_PAIRS = tuple(
    (_vec(src), _vec(dst))
    for src, dst in (
        ("1 -1 -1 -1 -1 -1 -1 1", "1 -1 -1 1 0 0 0 0"),
        ("1 -1 -1 -1 1 1 1 -1", "1 -1 1 -1 0 0 0 0"),
        ("1 -1 1 1 -1 -1 1 -1", "1 1 -1 -1 0 0 0 0"),
        ("1 -1 1 1 1 1 -1 1", "1 1 1 1 0 0 0 0"),
        ("1 1 -1 1 -1 1 -1 -1", "0 0 0 0 1 -1 -1 1"),
        ("1 1 -1 1 1 -1 1 1", "0 0 0 0 1 -1 1 -1"),
        ("1 1 1 -1 -1 1 1 1", "0 0 0 0 1 1 -1 -1"),
        ("1 1 1 -1 1 -1 -1 -1", "0 0 0 0 1 1 1 1"),
    )
)

#: The 32 tropical index sets into M, T0 first; computed once by the
#: restricted disjoint-six-tuple enumeration and verified by the
#: acceptance suite.
TROPICAL_INDEX_SETS = (
    (0, 1, 2, 3, 4, 7, 9, 10, 12, 13, 14, 15, 16, 19, 20, 21, 22, 23, 24, 25, 26, 27, 29, 30, 32, 33, 34, 37, 38, 39, 40, 41, 43, 44, 46, 47, 48, 50, 51, 52, 53, 55, 57, 58, 59, 60, 61, 62),
    (0, 1, 2, 3, 4, 7, 9, 10, 12, 13, 14, 15, 16, 19, 20, 21, 22, 23, 24, 25, 26, 27, 29, 30, 32, 33, 34, 37, 38, 39, 40, 42, 43, 44, 45, 47, 48, 49, 51, 52, 54, 55, 57, 58, 59, 60, 61, 62),
    (0, 1, 2, 3, 4, 7, 9, 10, 12, 13, 14, 15, 16, 19, 20, 21, 22, 23, 24, 25, 26, 27, 29, 30, 33, 34, 35, 36, 37, 38, 40, 41, 43, 44, 46, 47, 48, 50, 51, 52, 53, 55, 56, 57, 58, 61, 62, 63),
    (0, 1, 2, 3, 4, 7, 9, 10, 12, 13, 14, 15, 16, 19, 20, 21, 22, 23, 24, 25, 26, 27, 29, 30, 33, 34, 35, 36, 37, 38, 40, 42, 43, 44, 45, 47, 48, 49, 51, 52, 54, 55, 56, 57, 58, 61, 62, 63),
    (0, 1, 2, 3, 4, 7, 9, 10, 12, 13, 14, 15, 17, 18, 20, 21, 22, 23, 24, 25, 26, 27, 28, 31, 32, 33, 34, 37, 38, 39, 40, 41, 43, 44, 46, 47, 48, 50, 51, 52, 53, 55, 57, 58, 59, 60, 61, 62),
    (0, 1, 2, 3, 4, 7, 9, 10, 12, 13, 14, 15, 17, 18, 20, 21, 22, 23, 24, 25, 26, 27, 28, 31, 32, 33, 34, 37, 38, 39, 40, 42, 43, 44, 45, 47, 48, 49, 51, 52, 54, 55, 57, 58, 59, 60, 61, 62),
    (0, 1, 2, 3, 4, 7, 9, 10, 12, 13, 14, 15, 17, 18, 20, 21, 22, 23, 24, 25, 26, 27, 28, 31, 33, 34, 35, 36, 37, 38, 40, 41, 43, 44, 46, 47, 48, 50, 51, 52, 53, 55, 56, 57, 58, 61, 62, 63),
    (0, 1, 2, 3, 4, 7, 9, 10, 12, 13, 14, 15, 17, 18, 20, 21, 22, 23, 24, 25, 26, 27, 28, 31, 33, 34, 35, 36, 37, 38, 40, 42, 43, 44, 45, 47, 48, 49, 51, 52, 54, 55, 56, 57, 58, 61, 62, 63),
    (0, 1, 2, 3, 5, 6, 8, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22, 23, 24, 25, 26, 27, 29, 30, 32, 33, 34, 37, 38, 39, 40, 41, 43, 44, 46, 47, 48, 50, 51, 52, 53, 55, 57, 58, 59, 60, 61, 62),
    (0, 1, 2, 3, 5, 6, 8, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22, 23, 24, 25, 26, 27, 29, 30, 32, 33, 34, 37, 38, 39, 40, 42, 43, 44, 45, 47, 48, 49, 51, 52, 54, 55, 57, 58, 59, 60, 61, 62),
    (0, 1, 2, 3, 5, 6, 8, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22, 23, 24, 25, 26, 27, 29, 30, 33, 34, 35, 36, 37, 38, 40, 41, 43, 44, 46, 47, 48, 50, 51, 52, 53, 55, 56, 57, 58, 61, 62, 63),
    (0, 1, 2, 3, 5, 6, 8, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22, 23, 24, 25, 26, 27, 29, 30, 33, 34, 35, 36, 37, 38, 40, 42, 43, 44, 45, 47, 48, 49, 51, 52, 54, 55, 56, 57, 58, 61, 62, 63),
    (0, 1, 2, 3, 5, 6, 8, 11, 12, 13, 14, 15, 17, 18, 20, 21, 22, 23, 24, 25, 26, 27, 28, 31, 32, 33, 34, 37, 38, 39, 40, 41, 43, 44, 46, 47, 48, 50, 51, 52, 53, 55, 57, 58, 59, 60, 61, 62),
    (0, 1, 2, 3, 5, 6, 8, 11, 12, 13, 14, 15, 17, 18, 20, 21, 22, 23, 24, 25, 26, 27, 28, 31, 32, 33, 34, 37, 38, 39, 40, 42, 43, 44, 45, 47, 48, 49, 51, 52, 54, 55, 57, 58, 59, 60, 61, 62),
    (0, 1, 2, 3, 5, 6, 8, 11, 12, 13, 14, 15, 17, 18, 20, 21, 22, 23, 24, 25, 26, 27, 28, 31, 33, 34, 35, 36, 37, 38, 40, 41, 43, 44, 46, 47, 48, 50, 51, 52, 53, 55, 56, 57, 58, 61, 62, 63),
    (0, 1, 2, 3, 5, 6, 8, 11, 12, 13, 14, 15, 17, 18, 20, 21, 22, 23, 24, 25, 26, 27, 28, 31, 33, 34, 35, 36, 37, 38, 40, 42, 43, 44, 45, 47, 48, 49, 51, 52, 54, 55, 56, 57, 58, 61, 62, 63),
    (0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 16, 17, 18, 19, 20, 23, 25, 26, 28, 29, 30, 31, 32, 33, 35, 36, 38, 39, 40, 41, 42, 45, 46, 47, 49, 50, 51, 52, 53, 54, 56, 58, 59, 60, 61, 63),
    (0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 16, 17, 18, 19, 20, 23, 25, 26, 28, 29, 30, 31, 32, 33, 35, 36, 38, 39, 41, 42, 43, 44, 45, 46, 48, 49, 50, 53, 54, 55, 56, 58, 59, 60, 61, 63),
    (0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 16, 17, 18, 19, 20, 23, 25, 26, 28, 29, 30, 31, 32, 34, 35, 36, 37, 39, 40, 41, 42, 45, 46, 47, 49, 50, 51, 52, 53, 54, 56, 57, 59, 60, 62, 63),
    (0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 16, 17, 18, 19, 20, 23, 25, 26, 28, 29, 30, 31, 32, 34, 35, 36, 37, 39, 41, 42, 43, 44, 45, 46, 48, 49, 50, 53, 54, 55, 56, 57, 59, 60, 62, 63),
    (0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 16, 17, 18, 19, 21, 22, 24, 27, 28, 29, 30, 31, 32, 33, 35, 36, 38, 39, 40, 41, 42, 45, 46, 47, 49, 50, 51, 52, 53, 54, 56, 58, 59, 60, 61, 63),
    (0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 16, 17, 18, 19, 21, 22, 24, 27, 28, 29, 30, 31, 32, 33, 35, 36, 38, 39, 41, 42, 43, 44, 45, 46, 48, 49, 50, 53, 54, 55, 56, 58, 59, 60, 61, 63),
    (0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 16, 17, 18, 19, 21, 22, 24, 27, 28, 29, 30, 31, 32, 34, 35, 36, 37, 39, 40, 41, 42, 45, 46, 47, 49, 50, 51, 52, 53, 54, 56, 57, 59, 60, 62, 63),
    (0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 16, 17, 18, 19, 21, 22, 24, 27, 28, 29, 30, 31, 32, 34, 35, 36, 37, 39, 41, 42, 43, 44, 45, 46, 48, 49, 50, 53, 54, 55, 56, 57, 59, 60, 62, 63),
    (1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 17, 18, 19, 20, 23, 25, 26, 28, 29, 30, 31, 32, 33, 35, 36, 38, 39, 40, 41, 42, 45, 46, 47, 49, 50, 51, 52, 53, 54, 56, 58, 59, 60, 61, 63),
    (1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 17, 18, 19, 20, 23, 25, 26, 28, 29, 30, 31, 32, 33, 35, 36, 38, 39, 41, 42, 43, 44, 45, 46, 48, 49, 50, 53, 54, 55, 56, 58, 59, 60, 61, 63),
    (1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 17, 18, 19, 20, 23, 25, 26, 28, 29, 30, 31, 32, 34, 35, 36, 37, 39, 40, 41, 42, 45, 46, 47, 49, 50, 51, 52, 53, 54, 56, 57, 59, 60, 62, 63),
    (1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 17, 18, 19, 20, 23, 25, 26, 28, 29, 30, 31, 32, 34, 35, 36, 37, 39, 41, 42, 43, 44, 45, 46, 48, 49, 50, 53, 54, 55, 56, 57, 59, 60, 62, 63),
    (1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 17, 18, 19, 21, 22, 24, 27, 28, 29, 30, 31, 32, 33, 35, 36, 38, 39, 40, 41, 42, 45, 46, 47, 49, 50, 51, 52, 53, 54, 56, 58, 59, 60, 61, 63),
    (1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 17, 18, 19, 21, 22, 24, 27, 28, 29, 30, 31, 32, 33, 35, 36, 38, 39, 41, 42, 43, 44, 45, 46, 48, 49, 50, 53, 54, 55, 56, 58, 59, 60, 61, 63),
    (1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 17, 18, 19, 21, 22, 24, 27, 28, 29, 30, 31, 32, 34, 35, 36, 37, 39, 40, 41, 42, 45, 46, 47, 49, 50, 51, 52, 53, 54, 56, 57, 59, 60, 62, 63),
    (1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 17, 18, 19, 21, 22, 24, 27, 28, 29, 30, 31, 32, 34, 35, 36, 37, 39, 41, 42, 43, 44, 45, 46, 48, 49, 50, 53, 54, 55, 56, 57, 59, 60, 62, 63),
)


@dataclass(frozen=True)
class LinearMap:
    """d x d rational matrix, orthogonal up to a positive scalar."""

    matrix: tuple[tuple[Fraction, ...], ...]

    def apply(self, vec) -> list[Fraction]:
        return [
            sum((row[j] * vec[j] for j in range(len(vec))), Fraction(0))
            for row in self.matrix
        ]

    def apply_ray(self, ray: Ray) -> Ray:
        if any(c.im != 0 for c in ray.coords):
            raise ValueError("transform is defined on real vectors only")
        return scaled_ray(self.apply([Fraction(c.re) for c in ray.coords]))

    def gram_scalar(self) -> Fraction:
        """The c with matrix^T matrix = c * identity; raises otherwise."""
        m = self.matrix
        d = len(m)
        c = None
        for i in range(d):
            for j in range(i, d):
                dot = sum((m[k][i] * m[k][j] for k in range(d)), Fraction(0))
                if i == j:
                    if c is None:
                        c = dot
                    elif dot != c:
                        raise ValueError("not orthogonal up to a scalar")
                elif dot != 0:
                    raise ValueError("not orthogonal up to a scalar")
        if c is None or c <= 0:
            raise ValueError("not orthogonal up to a scalar")
        return c


@lru_cache(maxsize=None)
def build_transform_T() -> LinearMap:
    """The unique map sending each source basis vector to its image.

    T = sum_i t_i s_i^T / |s_i|^2, which satisfies T s_i = t_i since the
    sources are mutually orthogonal; verified orthogonal up to a scalar.
    """
    d = 8
    rows = [[Fraction(0)] * d for _ in range(d)]
    for src, dst in TRANSFORM_PAIRS:
        norm = sum(x * x for x in src)
        for i in range(d):
            for j in range(d):
                rows[i][j] += Fraction(dst[i] * src[j], norm)
    t = LinearMap(tuple(tuple(r) for r in rows))
    t.gram_scalar()
    for src, dst in TRANSFORM_PAIRS:
        if t.apply(list(map(Fraction, src))) != list(map(Fraction, dst)):
            raise AssertionError("transform does not satisfy its assignments")
    return t


def _e8_full_support() -> list[Ray]:
    out = []
    for bits in range(1 << 7):
        v = [1] + [(-1 if (bits >> k) & 1 else 1) for k in range(7)]
        if bits.bit_count() % 2 == 0:
            out.append(make_ray(v))
    return out


def _e8_two_support() -> list[Ray]:
    out = []
    for i, j in combinations(range(8), 2):
        for s in (1, -1):
            v = [0] * 8
            v[i] = 1
            v[j] = s
            out.append(make_ray(v))
    return out


@lru_cache(maxsize=None)
def builtin(name: str):
    """A built-in configuration by name.

    Names: M, N, T0, TROPICALS (tuple of 32), KP40, KP36, E8, A, B.
    """
    key = name.upper()
    if key == "M":
        return build_configuration([make_ray(v) for v in M_VECTORS])
    if key == "N":
        return builtin("M").restrict(N_INDICES)
    if key == "T0":
        return builtin("M").restrict(T0_INDICES)
    if key == "TROPICALS":
        if TROPICAL_INDEX_SETS is None:
            raise RuntimeError("tropical index table missing")
        m = builtin("M")
        return tuple(m.restrict(idx) for idx in TROPICAL_INDEX_SETS)
    if key == "KP40":
        return build_configuration([make_ray(v) for v in KP_VECTORS])
    if key == "KP36":
        return build_configuration(
            [
                make_ray(v)
                for i, v in enumerate(KP_VECTORS)
                if i not in KP_EXCLUDED
            ]
        )
    if key == "E8":
        return build_configuration(_e8_full_support() + _e8_two_support())
    if key == "A":
        return build_configuration(_e8_full_support())
    if key == "B":
        t = build_transform_T()
        rays = _e8_full_support()
        images = [t.apply_ray(r) for r in rays]
        seen = set(rays)
        merged = list(rays)
        for r in images:
            if r not in seen:
                seen.add(r)
                merged.append(r)
        return build_configuration(merged)
    raise ValueError(f"unknown dataset {name!r}")


DATASET_NAMES = ("M", "N", "T0", "TROPICALS", "KP40", "KP36", "E8", "A", "B")


# --- maximal-capacity pipeline -----------------------------------------

@dataclass
class CapacityPipelineReport:
    """Trace of the maximal-capacity search that assembles M from E8."""

    pair_capacities: set[int]  # capacities of disjoint clique-pair unions
    w_sets: list[frozenset[int]]  # 16-ray unions of capacity 4
    w_pair_capacities: set[int]  # capacities of disjoint W-pair unions
    q_sets: list[frozenset[int]]  # 32-ray unions of capacity 24
    q_mirror_sets: list[frozenset[Ray]]  # counterparts inside T(A)
    capacity_a: int
    union_capacity_histogram: dict[int, int]  # over all Q/mirror pairs
    m_capacity: int  # capacity of the pair union recovering the 64-ray set
    m_capacity_pairs: list[tuple[int, int]]  # all (i, j) at that capacity
    m_found: bool  # some union at m_capacity equals the 64-ray set


def _union_capacity(masks: tuple[int, ...], union: int) -> int:
    """Capacity of a union of rays: the parent's d-cliques inside it."""
    return sum(1 for c in masks if c & union == c)


def capacity_pipeline() -> CapacityPipelineReport:
    """Reproduce the maximal-capacity search from A and T(A) up to M."""
    a = builtin("A")
    t = build_transform_T()
    cliques = clique_masks(a)

    def pair_unions(sets: list[int], target: int):
        """Capacities of the disjoint pairs' unions; those at target."""
        caps: set[int] = set()
        hits: set[int] = set()
        for s0, s1 in combinations(sets, 2):
            if not s0 & s1:
                cap = _union_capacity(cliques, s0 | s1)
                caps.add(cap)
                if cap == target:
                    hits.add(s0 | s1)
        return caps, sorted(hits, key=_bits)

    pair_caps, w_masks = pair_unions(cliques, 4)
    w_pair_caps, q_masks = pair_unions(w_masks, 24)
    w_list = [frozenset(_bits(u)) for u in w_masks]
    q_list = [frozenset(_bits(u)) for u in q_masks]

    # Mirror the Q sets through T into T(A).
    q_mirrors = [
        frozenset(t.apply_ray(a.rays[i]) for i in q) for q in q_list
    ]

    cap_a = capacity(a)

    # Pair search runs inside B = A union T(A), where both halves embed.
    b = builtin("B")
    ray_index = {r: i for i, r in enumerate(b.rays)}
    q_idx = [sum(1 << ray_index[a.rays[k]] for k in q) for q in q_list]
    qm_idx = [sum(1 << ray_index[r] for r in qm) for qm in q_mirrors]

    b_cliques = clique_masks(b)
    m_rays = frozenset(builtin("M").rays)
    caps: dict[tuple[int, int], int] = {}
    m_pair = None
    for i, qi in enumerate(q_idx):
        for j, qj in enumerate(qm_idx):
            union = qi | qj
            caps[(i, j)] = _union_capacity(b_cliques, union)
            if m_pair is None and frozenset(
                b.rays[k] for k in _bits(union)
            ) == m_rays:
                m_pair = (i, j)
    histogram: dict[int, int] = {}
    for cap in caps.values():
        histogram[cap] = histogram.get(cap, 0) + 1
    # Pairs whose union is a candidate on the same footing as the
    # recovered 64-ray set; the paper's target capacity, not the global
    # maximum of the histogram.
    m_cap = caps[m_pair] if m_pair is not None else max(caps.values())
    m_cap_pairs = sorted(p for p, cap in caps.items() if cap == m_cap)

    return CapacityPipelineReport(
        pair_capacities=pair_caps,
        w_sets=w_list,
        w_pair_capacities=w_pair_caps,
        q_sets=q_list,
        q_mirror_sets=q_mirrors,
        capacity_a=cap_a,
        union_capacity_histogram=dict(sorted(histogram.items())),
        m_capacity=m_cap,
        m_capacity_pairs=m_cap_pairs,
        m_found=m_pair is not None,
    )

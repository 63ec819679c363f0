"""Arithmetic modulo a Mersenne prime p = 2^gamma - 1.

Reduction folds the high part back onto the low part, since
2^gamma = 1 (mod p).  The canonical representative range is
[0, 2^gamma - 2]; the all-ones pattern is mapped to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidGamma

# Small exponents for desk-scale and exhaustive testing.
SMALL_EXPONENTS = frozenset({
    3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279, 2203, 2281,
    3217, 4253, 4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497, 86243,
})

# Production-scale exponents; plan() takes those up to 1398269, as from
# 2976221 up no transform length sums one product exactly.
LARGE_EXPONENTS = frozenset({
    110503, 132049, 216091, 756839, 859433, 1257787, 1398269, 2976221,
    3021377, 6972593, 13466917, 20996011, 24036583, 25964951, 30402457,
    32582657, 37156667, 42643801, 43112609, 57885161, 74207281,
})

KNOWN_EXPONENTS = SMALL_EXPONENTS | LARGE_EXPONENTS

DEFAULT_GAMMA = 756839


@dataclass(frozen=True)
class MersenneParams:
    """Exponent gamma with 2^gamma - 1 prime."""

    gamma: int

    def __post_init__(self):
        if self.gamma not in KNOWN_EXPONENTS:
            raise InvalidGamma(f"{self.gamma} is not a known Mersenne-prime exponent")

    @cached_property
    def p(self) -> int:
        return (1 << self.gamma) - 1


@dataclass
class MersenneResidue:
    """Canonical residue: 0 <= value <= 2^gamma - 2."""

    value: int
    params: MersenneParams


def fold(x: int, gamma: int) -> int:
    """x mod 2^gamma - 1 as an int, all-ones mapped to 0."""
    mask = (1 << gamma) - 1
    while x > mask:
        x = (x & mask) + (x >> gamma)
    return 0 if x == mask else x


"""Modular-arithmetic tail hash producing the final sub-block output.

The affine map t = (b*x + c) mod 2^alpha followed by keeping the top
beta bits (floor division by 2^(alpha-beta)) is a universal family for
odd b.  Here alpha is fixed to gamma so the tail consumes the extra
MMH pass output directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bitio
from .errors import InvalidOutputLen
from .mersenne import MersenneResidue


@dataclass
class MhSeed:
    """Affine pair: b must be odd, both gamma-bit words."""

    b: int
    c: int

    def __post_init__(self):
        if self.b % 2 == 0:
            raise ValueError("b must be odd (gcd(b, 2) = 1)")


def mh_hash(y: MersenneResidue, seed: MhSeed, l_prime: int) -> np.ndarray:
    """Top l_prime bits of (b*y + c) mod 2^gamma, emitted little-endian."""
    gamma = y.params.gamma
    if not 1 <= l_prime < gamma:
        raise InvalidOutputLen(f"l' = {l_prime} not in [1, {gamma})")
    t = (seed.b * y.value + seed.c) & ((1 << gamma) - 1)
    return bitio.bits_from_int(t >> (gamma - l_prime), l_prime)

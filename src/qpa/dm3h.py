"""Dynamic multi-stage multilinear-modular hashing over Z_p, p = 2^gamma - 1.

The input bit stream is zero-padded to n*gamma bits, split into n
little-endian gamma-bit blocks, and each shifted pass i computes

    y_i = sum_{j=1..n} a_{j+i-1} * x_j  (mod 2^gamma - 1).

Blocks and seed coefficients are ``bigint.Words``, which keep each
word's weighted forward spectrum; ``bigint.dot`` sums a pass in the
spectrum and returns an int congruent to it modulo p, and this module
folds that int to the canonical residue.
Raw input blocks equal to the all-ones pattern do not embed injectively
into Z_p and are rejected with their indices; replacement policy
belongs to the caller.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from . import bigint, bitio
from .errors import AllOnesBlock, SeedTooShort
from .mersenne import MersenneParams, MersenneResidue, fold

logger = logging.getLogger(__name__)


@dataclass
class BlockVector:
    """Input blocks x_1..x_n, one gamma-bit word per row."""

    words: bigint.Words
    params: MersenneParams

    @property
    def n(self) -> int:
        return len(self.words)

    @classmethod
    def from_values(cls, values, params: MersenneParams) -> "BlockVector":
        return cls(bigint.Words.from_ints(values, params.gamma), params)

    def value(self, j: int) -> int:
        """Block value, 1-based index."""
        return self.words.values[j - 1]

    def values(self) -> list[int]:
        return [self.value(j) for j in range(1, self.n + 1)]


@dataclass
class Dm3hSeed:
    """Coefficient sequence a_1..a_{n+m-1} (or a_{n+m} with a tail pass)."""

    words: bigint.Words
    params: MersenneParams

    @property
    def count(self) -> int:
        return len(self.words)

    @classmethod
    def from_values(cls, values, params: MersenneParams) -> "Dm3hSeed":
        return cls(bigint.Words.from_ints(values, params.gamma), params)

    @classmethod
    def from_words(cls, words, params: MersenneParams) -> "Dm3hSeed":
        """Ingest raw gamma-bit words; the all-ones word reduces to 0."""
        return cls.from_values([0 if w == params.p else w for w in words], params)

    def value(self, k: int) -> int:
        """Coefficient value, 1-based index."""
        return self.words.values[k - 1]

    def values(self) -> list[int]:
        return [self.value(k) for k in range(1, self.count + 1)]


def split_and_pad(X, params: MersenneParams, all_ones_policy: str = "error") -> BlockVector:
    """Zero-pad the stream to n*gamma bits and split into gamma-bit blocks.

    ``X`` is a 0/1 array or packed bytes (LSB-first).  Under the default
    policy any all-ones raw block raises AllOnesBlock with its 1-based
    indices; policy "zero" substitutes zero blocks and logs a security
    warning (the caller opted out of the rejection rule).
    """
    bits = bitio.as_bit_array(X)
    if len(bits) < 1:
        raise ValueError("input must contain at least one bit")
    gamma = params.gamma
    n = -(-len(bits) // gamma)
    values = [bitio.int_from_bits(bits[j * gamma:(j + 1) * gamma]) for j in range(n)]
    # only a full-width block can equal p; padding zeros keep the rest below
    bad = [j + 1 for j, v in enumerate(values) if v == params.p]
    if bad:
        if all_ones_policy != "zero":
            raise AllOnesBlock(bad)
        logger.warning(
            "substituting zero for all-ones blocks %s; the universality "
            "guarantee does not cover substituted blocks", bad)
        for j in bad:
            values[j - 1] = 0
    return BlockVector.from_values(values, params)


def mmh_pass(x: BlockVector, seed: Dm3hSeed, i: int) -> MersenneResidue:
    """y_i = sum_j a_{j+i-1} * x_j mod (2^gamma - 1) for pass index i >= 1.

    The modular fold is deferred until the whole pass is accumulated.
    """
    if i < 1:
        raise ValueError(f"pass index must be >= 1, got {i}")
    n = x.n
    if seed.count < n + i - 1:
        raise SeedTooShort(
            f"pass {i} over {n} blocks needs {n + i - 1} coefficients, "
            f"seed has {seed.count}")
    total = bigint.dot(x.words, seed.words, i - 1)
    return MersenneResidue(fold(total, x.params.gamma), x.params)

"""Dynamic multi-stage multilinear-modular hashing over Z_p, p = 2^gamma - 1.

The input bit stream is zero-padded to n*gamma bits, split into n
little-endian gamma-bit blocks, and each shifted pass i computes

    y_i = sum_{j=1..n} a_{j+i-1} * x_j  (mod 2^gamma - 1).

Blocks x_1..x_n and seed coefficients a_1, a_2, ... are both
``bigint.Words``, read from packed bytes by ``bitio.read_words``; each
computes its words' weighted forward spectra once, on first use.  ``bigint.dot`` sums a pass
in the spectrum and returns an int congruent to it modulo p, and this
module folds that int to the canonical residue.
Raw input blocks equal to the all-ones pattern do not embed injectively
into Z_p and are rejected with their indices; replacement policy
belongs to the caller.
"""

from __future__ import annotations

import logging

from . import bigint, bitio
from .errors import AllOnesBlock, SeedTooShort
from .mersenne import MersenneParams, MersenneResidue, fold

logger = logging.getLogger(__name__)


def split_and_pad(X, params: MersenneParams, all_ones_policy: str = "error",
                  nbits: int | None = None) -> bigint.Words:
    """Zero-pad the stream to n*gamma bits and split into gamma-bit blocks.

    ``X`` is packed bytes or a 0/1 array (LSB-first), of which the first
    ``nbits`` bits (default: all) are the key.  Under the default policy
    any all-ones raw block raises AllOnesBlock with its 1-based indices;
    policy "zero" substitutes zero blocks and logs a security warning
    (the caller opted out of the rejection rule).
    """
    if nbits is None:
        nbits = bitio.bit_count(X)
    if nbits < 1:
        raise ValueError("input must contain at least one bit")
    gamma = params.gamma
    values = bitio.read_words(X, gamma, -(-nbits // gamma), nbits)
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
    return bigint.Words.from_ints(values, gamma)


def mmh_pass(x: bigint.Words, seed: bigint.Words, i: int) -> MersenneResidue:
    """y_i = sum_j a_{j+i-1} * x_j mod (2^gamma - 1) for pass index i >= 1.

    The modular fold is deferred until the whole pass is accumulated.
    """
    if i < 1:
        raise ValueError(f"pass index must be >= 1, got {i}")
    n = len(x)
    if len(seed) < n + i - 1:
        raise SeedTooShort(
            f"pass {i} over {n} blocks needs {n + i - 1} coefficients, "
            f"seed has {len(seed)}")
    total = bigint.dot(x, seed, i - 1)
    return MersenneResidue(fold(total, x.gamma), MersenneParams(x.gamma))

"""Dynamic multi-stage multilinear-modular hashing over Z_p, p = 2^gamma - 1.

The input bit stream is zero-padded to n*gamma bits, split into n
little-endian gamma-bit blocks, and each shifted pass i computes

    y_i = sum_{j=1..n} a_{j+i-1} * x_j  (mod 2^gamma - 1).

Blocks x_1..x_n and seed coefficients a_1, a_2, ... are both rows of
a ``bigint.Words``, which keeps the packed stream and reads each
gamma-bit row by position.
``mmh_pass`` computes one pass on its own: ``bigint.dot`` transforms the
rows the pass needs on every call, sums the pass in the spectrum and
returns its canonical residue modulo p.  ``pipeline`` runs all passes
of a plan together, transforming each row once.
Raw input blocks equal to the all-ones pattern do not embed injectively
into Z_p; ``split_and_pad`` alone enforces that rule.  A block it lets
through is kept as it is and hashes as 0, which 2^gamma - 1 is modulo p.
"""

from __future__ import annotations

import logging

from . import bigint, bitio
from .errors import AllOnesBlock, SeedTooShort
from .mersenne import MersenneParams, MersenneResidue

logger = logging.getLogger(__name__)


def split_and_pad(X, params: MersenneParams, all_ones_policy: str = "error",
                  nbits: int | None = None) -> bigint.Words:
    """Zero-pad the stream to n*gamma bits and split into gamma-bit blocks.

    ``X`` is packed bytes or a 0/1 array (LSB-first), of which the first
    ``nbits`` bits (default: all) are the key.  Under the default policy
    any all-ones raw block raises AllOnesBlock with its 1-based indices;
    policy "zero" keeps them, to hash as 0, and logs a security warning
    (the caller opted out of the rejection rule); any other raises ValueError.
    """
    if all_ones_policy not in ("error", "zero"):
        raise ValueError(f"all-ones policy {all_ones_policy!r} is not 'error' or 'zero'")
    if nbits is None:
        nbits = bitio.bit_count(X)
    if nbits < 1:
        raise ValueError("input must contain at least one bit")
    blocks = bigint.Words(X, params.gamma, -(-nbits // params.gamma), nbits)
    # only a full-width block can equal p; padding zeros keep the rest below
    bad = [j + 1 for j in blocks.all_ones()]
    if bad:
        if all_ones_policy == "error":
            raise AllOnesBlock(bad)
        logger.warning(
            "substituting zero for all-ones blocks %s; the universality "
            "guarantee does not cover substituted blocks", bad)
    return blocks


def mmh_pass(x: bigint.Words, seed: bigint.Words, i: int) -> MersenneResidue:
    """y_i = sum_j a_{j+i-1} * x_j mod (2^gamma - 1) for pass index i >= 1."""
    if i < 1:
        raise ValueError(f"pass index must be >= 1, got {i}")
    n = len(x)
    if len(seed) < n + i - 1:
        raise SeedTooShort(
            f"pass {i} over {n} blocks needs {n + i - 1} coefficients, "
            f"seed has {len(seed)}")
    return MersenneResidue(bigint.dot(x, seed, i - 1), MersenneParams(x.gamma))

"""Exact big-integer products on 24-bit limbs and the NTT.

This module is the only one that knows how ring products are laid out.
Integers are little-endian 24-bit limbs (limb 0 least significant),
zero-padded to a supported transform length; a product is the inverse
transform of pointwise-multiplied spectra, carried back into an int by
``int_from_wide_limbs``.  A convolution of up to 32768 limbs stays below
the Goldilocks modulus: each coefficient is < 32768 * (2^24 - 1)^2 <
2^63 < p, so the transform-domain product is the exact integer product.

``Words`` holds rows of equal-width integers and caches their forward
spectra; ``dot`` sums shifted row products of two such matrices, which
is all a hashing pass needs, and ``mul_ntt`` multiplies two single rows
through the same kernel.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import ntt
from .errors import OperandTooLarge

LIMB_BITS = 24
LIMB_MASK = (1 << LIMB_BITS) - 1
# both factors of a product must fit the largest transform together
MAX_LIMBS = ntt.SUPPORTED_LENGTHS[-1] // 2
MAX_OPERAND_BITS = MAX_LIMBS * LIMB_BITS  # 786432

# below this many product limbs, fall back to direct multiplication
_NTT_CUTOFF_LIMBS = 64

# rows per chunk for batched inverse transforms
_BATCH_ROWS = 32

_U64 = np.uint64


def _limb_count(bit_len: int) -> int:
    return (bit_len + LIMB_BITS - 1) // LIMB_BITS


def limbs_from_int(x: int, nlimbs: int) -> np.ndarray:
    """Pack a non-negative int into 24-bit limbs (3 bytes per limb)."""
    raw = x.to_bytes(3 * nlimbs if nlimbs else 1, "little")
    buf = np.frombuffer(raw[:3 * nlimbs], dtype=np.uint8).reshape(nlimbs, 3)
    return buf @ np.array([1, 1 << 8, 1 << 16], dtype=_U64)


def int_from_limbs(limbs: np.ndarray) -> int:
    """Inverse of limbs_from_int for limbs < 2^24."""
    limbs = np.asarray(limbs, dtype=_U64)
    buf = np.empty((limbs.size, 3), dtype=np.uint8)
    buf[:, 0] = limbs & _U64(0xFF)
    buf[:, 1] = (limbs >> _U64(8)) & _U64(0xFF)
    buf[:, 2] = limbs >> _U64(16)
    return int.from_bytes(buf.tobytes(), "little")


def int_from_wide_limbs(vals: np.ndarray) -> int:
    """sum(vals[k] * 2^(24k)) for arbitrary uint64 values.

    Splits each value into three byte-aligned streams so the whole sum
    reduces to three int.from_bytes calls.
    """
    vals = np.asarray(vals, dtype=_U64)
    lo = int_from_limbs(vals & _U64(LIMB_MASK))
    mid = int_from_limbs((vals >> _U64(24)) & _U64(LIMB_MASK))
    hi = int_from_limbs(vals >> _U64(48))
    return lo + (mid << 24) + (hi << 48)


def _transform_length(product_limbs: int) -> int:
    for length in ntt.SUPPORTED_LENGTHS:
        if length >= product_limbs:
            return length
    raise OperandTooLarge(f"product needs {product_limbs} limbs")


class Words:
    """Rows of non-negative integers, each in the same number of limbs.

    Forward spectra are computed on first use and kept for every later
    product; a lock lets threads share one instance.
    """

    def __init__(self, limbs: np.ndarray):
        self.limbs = limbs
        self._spectra = None
        self._lock = threading.Lock()

    @classmethod
    def from_ints(cls, values, bits: int) -> "Words":
        """One row per value; every value must fit in ``bits`` bits."""
        nl = _limb_count(bits)
        mat = np.empty((len(values), nl), dtype=_U64)
        for k, v in enumerate(values):
            mat[k] = limbs_from_int(v, nl)
        return cls(mat)

    def __len__(self) -> int:
        return self.limbs.shape[0]

    def value(self, k: int) -> int:
        """Row k, 0-based."""
        return int_from_limbs(self.limbs[k])

    def spectra(self, length: int) -> np.ndarray:
        """Forward transforms of the rows, zero-padded to ``length``."""
        with self._lock:
            if self._spectra is None or self._spectra.shape[1] != length:
                padded = np.zeros((len(self), length), dtype=_U64)
                padded[:, :self.limbs.shape[1]] = self.limbs
                self._spectra = ntt.ntt_forward(padded)
            return self._spectra


def dot(x: Words, a: Words, offset: int = 0) -> int:
    """sum_k x[k] * a[k + offset] over the rows of x, exactly."""
    n = len(x)
    if len(a) < n + offset:
        raise ValueError(f"rows {offset}..{offset + n - 1} requested, "
                         f"only {len(a)} present")
    length = _transform_length(x.limbs.shape[1] + a.limbs.shape[1])
    sx = x.spectra(length)
    sa = a.spectra(length)[offset:offset + n]
    total = 0
    for start in range(0, n, _BATCH_ROWS):
        stop = min(start + _BATCH_ROWS, n)
        coeffs = ntt.ntt_inverse(ntt.pointwise_mul(sx[start:stop], sa[start:stop]))
        for row in coeffs:
            total += int_from_wide_limbs(row)
    return total


@dataclass
class BigUint:
    """Unsigned integer as little-endian 24-bit limbs plus a declared bit length."""

    limbs: np.ndarray
    bit_len: int

    @classmethod
    def from_int(cls, x: int, bit_len: int | None = None) -> "BigUint":
        if bit_len is None:
            bit_len = x.bit_length()
        return cls(limbs_from_int(x, _limb_count(bit_len)), bit_len)

    def to_int(self) -> int:
        return int_from_limbs(self.limbs)

    def __eq__(self, other) -> bool:
        return isinstance(other, BigUint) and self.to_int() == other.to_int()


def mul_ntt(a: BigUint, b: BigUint, force_ntt: bool = False) -> BigUint:
    """Exact product via forward NTT, pointwise multiply, inverse NTT, carry."""
    la = _limb_count(a.bit_len)
    lb = _limb_count(b.bit_len)
    if la > MAX_LIMBS or lb > MAX_LIMBS:
        raise OperandTooLarge(
            f"operands of {la} and {lb} limbs exceed {MAX_LIMBS}")
    out_bits = a.bit_len + b.bit_len
    if la == 0 or lb == 0:
        return BigUint.from_int(0, 0)
    if la + lb <= _NTT_CUTOFF_LIMBS and not force_ntt:
        return BigUint.from_int(a.to_int() * b.to_int())
    value = dot(Words(a.limbs[None, :la]), Words(b.limbs[None, :lb]))
    if value.bit_length() > out_bits:
        raise ArithmeticError(
            f"product of {a.bit_len}- and {b.bit_len}-bit operands came out "
            f"{value.bit_length()} bits wide")
    return BigUint.from_int(value)

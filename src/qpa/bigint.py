"""Ring products modulo 2^gamma - 1, and exact products on 24-bit limbs.

The pass kernel is a weighted Mersenne transform (the irrational-base
discrete weighted transform of Crandall and Fagin, Math. Comp. 62,
1994), done exactly over the Goldilocks field.  For a given gamma, L is
the smallest supported transform length whose digits are at most 12
bits wide.  Digit j of a value holds bits e_j .. e_(j+1) - 1, where
e_j = ceil(j*gamma/L), and is weighted by theta^(L*e_j - j*gamma) with
theta^L = 2.  A length-L cyclic convolution of weighted digits, divided
by the weights, gives coefficients c_k with

    x * y = sum_k c_k * 2^(e_k)  (mod 2^gamma - 1),

with no zero padding.  Each c_k is a sum of at most L digit products,
some doubled, so it is below 2L * (2^b - 1)^2 for digits of at most b
bits.  A pass sums n such products; while n times that bound stays
below the field modulus, the whole sum is exact in the spectrum and
costs one inverse transform.

``Words`` holds rows of values below 2^gamma.  A row's forward spectrum
is computed once, on first use, into an anonymous shared mapping, so a
forked process can fill a range of rows for its parent without a copy.
``dot`` fills any rows it needs, sums shifted row products in the
spectrum, runs one inverse transform and returns an int congruent to
the sum modulo 2^gamma - 1.

``mul_ntt`` is the exact integer product: 24-bit limbs, zero-padded to
a supported length, carried back into an int by ``int_from_wide_limbs``.
A convolution of up to 32768 limbs stays below the field modulus: each
coefficient is < 32768 * (2^24 - 1)^2 < 2^63.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from . import goldilocks as gl
from . import ntt
from .errors import OperandTooLarge, TooManyBlocks

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)

# -- weighted Mersenne transform ---------------------------------------------

_DIGIT_BITS = 12
MAX_GAMMA = _DIGIT_BITS * ntt.SUPPORTED_LENGTHS[-1]  # 786432

# values per chunk for digit extraction and the spectral MAC
_CHUNK_ELEMS = 1 << 16


def transform_shape(gamma: int) -> tuple[int, int]:
    """(L, b): the smallest supported length and its widest digit, b <= 12."""
    for length in ntt.SUPPORTED_LENGTHS:
        width = -(-gamma // length)
        if width <= _DIGIT_BITS:
            return length, width
    raise OperandTooLarge(f"gamma {gamma} exceeds {MAX_GAMMA} bits")


def max_rows(gamma: int) -> int:
    """Most row products a pass can sum before a coefficient reaches p."""
    length, width = transform_shape(gamma)
    return (gl.P64 - 1) // (2 * length * ((1 << width) - 1) ** 2)


def _theta(length: int) -> int:
    """A root theta with theta^length = 2 in the Goldilocks field.

    R = 7^((p-1)/(64L)) has order 64L, so R^(23L) is a primitive 64th
    root of unity; it equals 2^(-63), and 2^64 has order 3, so
    R^23 * (2^64)^(L^-1 mod 3) raised to L is 2^(-63) * 2^64 = 2.
    """
    r = pow(gl.GENERATOR, (gl.P64 - 1) // (64 * length), gl.P64)
    return (pow(r, 23, gl.P64) * pow(1 << 64, pow(length, -1, 3), gl.P64)
            % gl.P64)


@dataclass
class _Layout:
    """Digit positions and weights of the transform for one gamma."""

    gamma: int
    length: int
    window: np.ndarray    # byte holding digit j's low bit
    shift: np.ndarray     # digit j's bit offset in that byte
    mask: np.ndarray      # (1 << width_j) - 1
    weight: np.ndarray    # theta^(L*e_j - j*gamma)
    unweight: np.ndarray  # its inverse
    word: np.ndarray      # e_j // 64
    bit: np.ndarray       # e_j % 64
    classes: int          # digits this far apart are >= 64 bits apart


_layout_cache: dict[int, _Layout] = {}


def _layout(gamma: int) -> _Layout:
    lay = _layout_cache.get(gamma)
    if lay is None:
        length, _ = transform_shape(gamma)
        j = np.arange(length + 1, dtype=np.int64)
        e = -((-j * gamma) // length)
        exponent = length * e[:-1] - j[:-1] * gamma   # in [0, L)
        theta = _theta(length)
        low = gamma // length
        lay = _Layout(
            gamma=gamma, length=length,
            window=e[:-1] >> 3,
            shift=(e[:-1] & 7).astype(np.uint32),
            mask=((1 << np.diff(e)) - 1).astype(np.uint32),
            weight=gl.powers(theta, length)[exponent],
            unweight=gl.powers(pow(theta, -1, gl.P64), length)[exponent],
            word=e[:-1] >> 6,
            bit=(e[:-1] & 63).astype(_U64),
            classes=min(length, -(-64 // low)) if low else length)
        _layout_cache[gamma] = lay
    return lay


def _weighted_digits(values, lay: _Layout) -> np.ndarray:
    """Rows of weighted digits, read as 4-byte windows of packed bytes."""
    nbytes = lay.gamma // 8 + 4
    raw = b"".join(v.to_bytes(nbytes, "little") for v in values)
    # every row as overlapping little-endian 4-byte reads at each byte offset
    windows = np.ndarray((len(values), nbytes - 3), dtype="<u4", buffer=raw,
                         strides=(nbytes, 1))
    digits = ((windows[:, lay.window] >> lay.shift) & lay.mask).astype(_U64)
    # digit * weight = lo + hi * 2^32 with lo, hi < 2^44, and 2^64 = 2^32 - 1
    lo = digits * (lay.weight & _M32)
    hi = digits * (lay.weight >> _U64(32))
    lo += (hi >> _U64(32)) * _M32  # now below 2^45
    hi <<= _U64(32)  # at most p - 1
    # both operands are canonical, as v_add requires
    return gl.v_add(hi, lo)


@dataclass(eq=False)
class Words:
    """Rows of values below 2^gamma and their weighted forward spectra.

    ``spectra`` row j is valid once ``ready[j]`` is set.  Both arrays
    live in one anonymous shared mapping, so rows that a forked child
    fills are filled in its parent too.
    """

    values: tuple
    gamma: int
    spectra: np.ndarray
    ready: np.ndarray

    @classmethod
    def from_ints(cls, values, gamma: int) -> "Words":
        """One row per value; every value must fit in ``gamma`` bits."""
        values = tuple(values)
        for v in values:
            if v.bit_length() > gamma:
                raise ValueError(f"value of {v.bit_length()} bits exceeds gamma = {gamma}")
        rows, length = len(values), _layout(gamma).length
        buf = mmap.mmap(-1, max(1, rows * (8 * length + 1)))
        spectra = np.frombuffer(buf, dtype=_U64, count=rows * length)
        ready = np.frombuffer(buf, dtype=np.uint8, count=rows,
                              offset=8 * rows * length)
        return cls(values, gamma, spectra.reshape(rows, length), ready)

    def fill(self, start: int = 0, stop: int | None = None) -> None:
        """Compute the spectra of rows start..stop-1 that are not ready."""
        lay = _layout(self.gamma)
        missing = start + np.flatnonzero(self.ready[start:stop] == 0)
        rows = max(1, _CHUNK_ELEMS // lay.length)
        for k in range(0, len(missing), rows):
            idx = missing[k:k + rows]
            # through the module attribute, so row counters see every row
            self.spectra[idx] = ntt.ntt_forward(
                _weighted_digits([self.values[j] for j in idx], lay))
            self.ready[idx] = 1

    def __len__(self) -> int:
        return len(self.values)


def _sum_products(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum over rows of x * a mod p, for fewer than 2^16 rows.

    Each 128-bit product is four 64-bit partial products; their 32-bit
    halves add up exactly in uint64 at bit offsets 0, 32, 64 and 96,
    and each column is reduced once.
    """
    x0, x1 = x & _M32, x >> _U64(32)
    a0, a1 = a & _M32, a >> _U64(32)
    ll, lh, hl, hh = x0 * a0, x0 * a1, x1 * a0, x1 * a1
    s0 = np.add.reduce(ll & _M32, axis=0)
    ll >>= _U64(32)
    ll += lh & _M32
    ll += hl & _M32
    s1 = np.add.reduce(ll, axis=0)
    lh >>= _U64(32)
    hl >>= _U64(32)
    lh += hl
    lh += hh & _M32
    s2 = np.add.reduce(lh, axis=0)
    s3 = np.add.reduce(hh >> _U64(32), axis=0)
    # 2^64 = 2^32 - 1 and 2^96 = -1.  Every s_i < 2^50, so s1 + s2, s0 and
    # s2 + s3 are below 2^51 and canonical operands for the field kernels
    return gl.v_sub(gl.v_add(gl.v_shl(s1 + s2, 32), s0), s2 + s3)


def _mac(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_k x[k] * a[k] mod p per column, in cache-sized blocks."""
    n, length = x.shape
    cols = min(length, max(256, _CHUNK_ELEMS // max(n, 1)))
    rows = _CHUNK_ELEMS // cols
    out = np.zeros(length, dtype=_U64)
    for c in range(0, length, cols):
        for r in range(0, n, rows):
            out[c:c + cols] = gl.v_add(out[c:c + cols], _sum_products(
                x[r:r + rows, c:c + cols], a[r:r + rows, c:c + cols]))
    return out


def _int_from_coefficients(coeffs: np.ndarray, lay: _Layout) -> int:
    """sum_k coeffs[k] * 2^(e_k) for coefficients below 2^64.

    Coefficients ``classes`` digits apart are at least 64 bits apart, so
    each class packs into 64-bit words with no two values sharing a bit.
    """
    nwords = lay.gamma // 64 + 3
    total = 0
    for t in range(lay.classes):
        c = coeffs[t::lay.classes]
        q, r = lay.word[t::lay.classes], lay.bit[t::lay.classes]
        words = np.zeros(nwords, dtype=_U64)
        words[q] = c << r
        words[q + 1] |= (c >> _U64(1)) >> (_U64(63) - r)
        total += int.from_bytes(words.tobytes(), "little")
    return total


def dot(x: Words, a: Words, offset: int = 0) -> int:
    """An int congruent to sum_k x[k] * a[k + offset] modulo 2^gamma - 1."""
    n = len(x)
    if x.gamma != a.gamma:
        raise ValueError(f"gamma {x.gamma} and {a.gamma} differ")
    if len(a) < n + offset:
        raise ValueError(f"rows {offset}..{offset + n - 1} requested, "
                         f"only {len(a)} present")
    limit = max_rows(x.gamma)
    if n > limit:
        raise TooManyBlocks(f"{n} row products exceed the {limit} a pass "
                            f"sums exactly at gamma {x.gamma}")
    x.fill()
    a.fill(offset, offset + n)
    lay = _layout(x.gamma)
    spectrum = _mac(x.spectra, a.spectra[offset:offset + n])
    # ntt_inverse already scales by 1/L
    coeffs = gl.v_mul(ntt.ntt_inverse(spectrum), lay.unweight)
    return _int_from_coefficients(coeffs, lay)


# -- exact limb products -----------------------------------------------------

LIMB_BITS = 24
LIMB_MASK = (1 << LIMB_BITS) - 1
# both factors of a product must fit the largest transform together
MAX_LIMBS = ntt.SUPPORTED_LENGTHS[-1] // 2
MAX_OPERAND_BITS = MAX_LIMBS * LIMB_BITS  # 786432

# below this many product limbs, fall back to direct multiplication
_NTT_CUTOFF_LIMBS = 64


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
    length = next(n for n in ntt.SUPPORTED_LENGTHS if n >= la + lb)
    padded = np.zeros((2, length), dtype=_U64)
    padded[0, :la] = a.limbs[:la]
    padded[1, :lb] = b.limbs[:lb]
    fa, fb = ntt.ntt_forward(padded)
    value = int_from_wide_limbs(ntt.ntt_inverse(ntt.pointwise_mul(fa, fb)))
    if value.bit_length() > out_bits:
        raise ArithmeticError(
            f"product of {a.bit_len}- and {b.bit_len}-bit operands came out "
            f"{value.bit_length()} bits wide")
    return BigUint.from_int(value)


# -- test hooks -------------------------------------------------------------

def _testing_corrupt_weight(gamma: int) -> None:
    """Flip the cached weight of a widest digit (negative control for selftest)."""
    lay = _layout(gamma)
    lay.weight[np.argmax(lay.mask)] ^= _U64(1)


def _testing_clear_cache() -> None:
    _layout_cache.clear()

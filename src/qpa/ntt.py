"""Radix-16 number-theoretic transform over the Goldilocks field.

Supported lengths are 16^k for k = 1..4 (up to 65536).  Each radix-16
stage multiplies only by powers of w16 = 4096 = 2^12, realized as bit
shifts modulo p; inter-stage twiddle factors come from cached tables of
powers of the global root.  Input and output are both in natural order.

All functions accept a 1-D vector or a 2-D batch (one vector per row)
of canonical ``numpy.uint64`` values.
"""

from __future__ import annotations

import numpy as np

from . import goldilocks as gl
from .errors import LengthMismatch, UnsupportedLength

SUPPORTED_LENGTHS = (16, 256, 4096, 65536)

_U64 = np.uint64

# bit-reversed order for the 16-point butterfly
_REV16 = np.array([0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15])

# values per chunk when batching: 512 KB of uint64, so a chunk and its
# temporaries stay in cache (a 65536-point row transforms about 2.5x
# faster than in chunks of 2^22 values on a 2-CPU x86 VM)
_CHUNK_ELEMS = 1 << 16

_twiddle_cache: dict[tuple[int, bool], np.ndarray] = {}


def _twiddle_table(length: int, inverse: bool) -> np.ndarray:
    """Inter-stage twiddles w^(rev(p)*n) for p < 16, n < length/16.

    Row p belongs to frequency rev(p): _dft16 leaves its output in
    bit-reversed order.
    """
    key = (length, inverse)
    table = _twiddle_cache.get(key)
    if table is None:
        w = gl.root_of_unity(length)
        powers = gl.powers(pow(w, -1, gl.P64) if inverse else w, length)
        n = np.arange(length // 16)
        table = powers[np.outer(_REV16, n) % length]
        _twiddle_cache[key] = table
    return table


def _dft16(y: np.ndarray, inverse: bool) -> None:
    """In-place 16-point transform along axis 0 of a (16, cols) array.

    Radix-2 decimation in frequency: natural-order input, bit-reversed
    output.  Every twiddle is a power of w16 = 2^12, applied as a shift.
    """
    h = 8
    while h:
        for j in range(h):
            k = j * (8 // h)  # twiddle w16^k, or w16^-k = -w16^(8-k)
            a = y[j::2 * h]
            b = y[j + h::2 * h]
            if k == 0:
                d = gl.v_sub(a, b)
            elif inverse:
                d = gl.v_shl(gl.v_sub(b, a), 12 * (8 - k))
            else:
                d = gl.v_shl(gl.v_sub(a, b), 12 * k)
            a[...] = gl.v_add(a, b)
            b[...] = d
        h //= 2


def _transform(d: np.ndarray, inverse: bool) -> np.ndarray:
    """Transform along axis 0 of a (length, m) array, overwriting it.

    Radix-16 decimation in frequency with the independent columns
    innermost, so every elementwise kernel runs on length*m/16
    contiguous values.
    """
    length, m = d.shape
    if length == 1:
        return d
    cols = length // 16
    y = d.reshape(16, cols * m)
    _dft16(y, inverse)
    y = y.reshape(16, cols, m)
    if cols > 1:
        y = gl.v_mul(y, _twiddle_table(length, inverse)[:, :, None])
    z = np.empty((cols, 16, m), dtype=_U64)
    for p, q in enumerate(_REV16):
        z[:, q, :] = y[p]
    return _transform(z.reshape(cols, 16 * m), inverse).reshape(length, m)


def _check_input(v: np.ndarray) -> tuple[np.ndarray, bool]:
    arr = np.asarray(v, dtype=_U64)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim != 2:
        raise UnsupportedLength("expected a vector or a batch of vectors")
    return arr, False


def _run(v: np.ndarray, inverse: bool) -> np.ndarray:
    arr, squeeze = _check_input(v)
    length = arr.shape[1]
    if length not in SUPPORTED_LENGTHS:
        raise UnsupportedLength(f"length {length} not in {SUPPORTED_LENGTHS}")
    rows_per_chunk = max(1, _CHUNK_ELEMS // length)
    scale = _U64(pow(length, -1, gl.P64)) if inverse else None
    out = np.empty_like(arr)
    for start in range(0, arr.shape[0], rows_per_chunk):
        stop = start + rows_per_chunk
        block = _transform(np.array(arr[start:stop].T, order="C"), inverse)
        if inverse:
            block = gl.v_mul(block, scale)
        out[start:stop] = block.T
    return out[0] if squeeze else out


def ntt_forward(v: np.ndarray) -> np.ndarray:
    """X_k = sum_n x_n * w^(n*k) mod p, natural-order input and output."""
    return _run(v, inverse=False)


def ntt_inverse(X: np.ndarray) -> np.ndarray:
    """Exact inverse of ntt_forward, including the 1/N scale factor."""
    return _run(X, inverse=True)


def pointwise_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a_arr = np.asarray(a, dtype=_U64)
    b_arr = np.asarray(b, dtype=_U64)
    if a_arr.shape[-1] != b_arr.shape[-1]:
        raise LengthMismatch(
            f"lengths {a_arr.shape[-1]} and {b_arr.shape[-1]} differ")
    return gl.v_mul(a_arr, b_arr)


# -- test hooks -------------------------------------------------------------

def _testing_corrupt_twiddle(length: int, inverse: bool = False) -> None:
    """Flip one cached twiddle entry (negative control for selftest)."""
    table = _twiddle_table(length, inverse)
    table[1, 1] ^= 1


def _testing_clear_cache() -> None:
    _twiddle_cache.clear()

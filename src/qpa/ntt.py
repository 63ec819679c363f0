"""Radix-16 number-theoretic transform over the Goldilocks field.

Supported lengths are 16^k for k = 1..4 (up to 65536).  Each radix-16
stage multiplies only by powers of w16 = 4096 = 2^12, realized as bit
shifts modulo p; inter-stage twiddle factors come from cached tables of
powers of the global root, stored once as the 32-bit halves that
``goldilocks.v_mul_halves`` takes.  Input and output are both in
natural order.

A batch is transformed in chunks of 2^16 values with the batch axis
innermost, the four-step layout of Bailey ("FFTs in external or
hierarchical memory", J. Supercomputing 4, 1990) applied within each
chunk.  A stage runs its 16-point butterflies one pair of rows at a
time, then multiplies each of its 16 output rows by its twiddles and
writes it straight to its transposed place in the next stage's buffer.
So every elementwise kernel call works on at most 4096 values, and its
temporaries stay in cache.  Two chunk buffers serve every chunk and
stage, and the inverse applies its 1/N scale in the same pieces as it
writes the result out.

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

# values per chunk when batching: 512 KB of uint64 with the batch axis
# innermost, so every stage reads and writes rows of _PIECE values
_CHUNK_ELEMS = 1 << 16
# most values one elementwise kernel call works on: its temporaries stay
# in cache, and small enough that the allocator reuses them instead of
# returning them to the system and faulting them back in
_PIECE = 1 << 12

_twiddle_cache: dict[tuple[int, bool], tuple[np.ndarray, np.ndarray]] = {}


def _twiddle_table(length: int, inverse: bool) -> tuple[np.ndarray, np.ndarray]:
    """Inter-stage twiddles w^(rev(p)*n) for p < 16, n < length/16.

    Row p belongs to frequency rev(p): _dft16 leaves its output in
    bit-reversed order.  The table is kept as its 32-bit halves, shaped
    (16, length/16, 1) so a row broadcasts over the batch axis.
    """
    key = (length, inverse)
    table = _twiddle_cache.get(key)
    if table is None:
        w = gl.root_of_unity(length)
        powers = gl.powers(pow(w, -1, gl.P64) if inverse else w, length)
        n = np.arange(length // 16)
        table = gl.halves(powers[np.outer(_REV16, n) % length, None])
        _twiddle_cache[key] = table
    return table


def _dft16(y: np.ndarray, inverse: bool) -> None:
    """In-place 16-point transform along axis 0 of a (16, cols) array.

    Radix-2 decimation in frequency: natural-order input, bit-reversed
    output.  Every twiddle is a power of w16 = 2^12, applied as a shift.
    Each butterfly works on one pair of rows.
    """
    h = 8
    while h:
        for r in range(16):
            if r & h:
                continue
            k = (r % h) * (8 // h)  # twiddle w16^k, or w16^-k = -w16^(8-k)
            a, b = y[r], y[r + h]
            if k == 0:
                d = gl.v_sub(a, b)
            elif inverse:
                d = gl.v_shl(gl.v_sub(b, a), 12 * (8 - k))
            else:
                d = gl.v_shl(gl.v_sub(a, b), 12 * k)
            a[...] = gl.v_add(a, b)
            b[...] = d
        h //= 2


def _transform(d: np.ndarray, spare: np.ndarray, inverse: bool) -> np.ndarray:
    """Transform along axis 0 of a (length, m) array.

    Radix-16 decimation in frequency with the independent columns
    innermost.  Each stage multiplies row p of the 16-point outputs by
    its twiddles and writes it straight to its transposed place, so
    with a full chunk every kernel call sees length*m/16 = _PIECE
    values.  The stages alternate between d and ``spare``, a contiguous
    array of the same size; both are overwritten, and the one holding
    the result is returned.
    """
    length, m = d.shape
    if length == 1:
        return d
    cols = length // 16
    y = d.reshape(16, cols * m)
    _dft16(y, inverse)
    y = y.reshape(16, cols, m)
    z = spare.reshape(cols, 16, m)
    lo, hi = _twiddle_table(length, inverse)
    for p, q in enumerate(_REV16):
        row = y[p]
        if p and cols > 1:  # row 0 and the length-16 stage have unit twiddles
            row = gl.v_mul_halves(row, lo[p], hi[p])
        z[:, q, :] = row
    return _transform(z.reshape(cols, 16 * m), d.reshape(cols, 16 * m),
                      inverse).reshape(length, m)


def _check_input(v: np.ndarray) -> tuple[np.ndarray, bool]:
    arr = np.asarray(v, dtype=_U64)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim != 2:
        raise UnsupportedLength("expected a vector or a batch of vectors")
    return arr, False


def _run(v: np.ndarray, inverse: bool) -> np.ndarray:
    arr, squeeze = _check_input(v)
    batch, length = arr.shape
    if length not in SUPPORTED_LENGTHS:
        raise UnsupportedLength(f"length {length} not in {SUPPORTED_LENGTHS}")
    rows_per_chunk = max(1, _CHUNK_ELEMS // length)
    scale = gl.halves(_U64(pow(length, -1, gl.P64))) if inverse else None
    out = np.empty_like(arr)
    # two chunk buffers, shared by every chunk and every stage
    buf = np.empty((2, min(rows_per_chunk, batch) * length), dtype=_U64)
    for start in range(0, batch, rows_per_chunk):
        rows = arr[start:start + rows_per_chunk]
        m = len(rows)
        d, spare = (b[:m * length].reshape(length, m) for b in buf)
        step = max(1, _PIECE // m)  # transform positions per piece
        for i in range(0, length, step):
            d[i:i + step] = rows[:, i:i + step].T
        block = _transform(d, spare, inverse)
        for i in range(0, length, step):
            piece = block[i:i + step]
            if inverse:
                piece = gl.v_mul_halves(piece, *scale)
            out[start:start + m, i:i + step] = piece.T
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
    """Flip the low bit of one cached twiddle (negative control for selftest).

    The bit is in the stored low half, which the transform reads.
    """
    lo, _ = _twiddle_table(length, inverse)
    lo[1, 1] ^= _U64(1)


def _testing_clear_cache() -> None:
    _twiddle_cache.clear()

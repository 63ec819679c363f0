"""Number-theoretic transform over the Goldilocks field, radix 16.

Supported lengths are the powers of two from 16 to 65536.  A transform
is one loop of stages: each takes radix r = min(16, remaining length),
so every stage but the last has radix 16 and the last radix 2, 4, 8 or
16.  A stage's r-point butterflies take w_r = w^(L/r) = 2^(192/r),
realized as bit shifts modulo p; inter-stage twiddle factors come from
cached tables of powers of the global root, stored once as the 32-bit
halves that ``goldilocks.v_mul_halves`` takes.  The last stage needs no
twiddles.  Input and output are both in natural order.  Every stage is
``shift_dft``, the one butterfly kernel: a radix-2 transform of any
length B up to 64, whose twiddles 2^(192k/B) are all shifts as 2 has
order 192, and which ``engines``' block engine also runs along the row
axis.

A batch is transformed in chunks of 2^18 values with the batch axis
innermost, the four-step layout of Bailey ("FFTs in external or
hierarchical memory", J. Supercomputing 4, 1990) applied within each
chunk: 4 rows per chunk at length 65536, 256 at 1024 (``batch_rows``).
A stage runs its r-point butterflies one pair of rows at a time, in
place but for one spare row, then multiplies each of its r output rows
by its twiddles and writes it straight to its transposed place in the
next stage's buffer.  Every stage runs on one piece of columns at a
time: a radix-16 stage of a full chunk is one piece, and a last stage
of radix r, whose rows are 16/r pieces long, takes several.  So every
elementwise kernel call works on at most 16384 values and writes into
buffers that one transform call allocates once: two chunk buffers, a
spare row and the kernels' temporaries.  The inverse applies its 1/N
scale in the same pieces as it writes the result out.  A forward result
may overwrite its input.

All functions accept a 1-D vector or a 2-D batch (one vector per row)
of canonical ``numpy.uint64`` values.
"""

from __future__ import annotations

import functools

import numpy as np

from . import goldilocks as gl
from .errors import LengthMismatch, UnsupportedLength

SUPPORTED_LENGTHS = tuple(1 << k for k in range(4, 17))

_U64 = np.uint64

# values per chunk when batching: 2 MB of uint64 with the batch axis
# innermost, so every stage reads and writes rows of ``gl.PIECE`` values.
# The kernels' temporaries are allocated once per transform call, as
# arrays of 128 KB freed after each kernel call would be handed back to
# the system and faulted in again.
_CHUNK_ELEMS = 16 * gl.PIECE


@functools.cache
def bit_reversal(size: int) -> tuple[int, ...]:
    """rev(0) .. rev(size - 1): each index with its log2(size) bits reversed."""
    bits = size.bit_length() - 1
    return tuple(int(f"{i:0{bits}b}"[::-1], 2) for i in range(size))


@functools.cache
def _twiddle_table(length: int, inverse: bool) -> tuple[np.ndarray, np.ndarray]:
    """Inter-stage twiddles w^(rev(p)*n) for p < 16, n < length/16.

    Row p belongs to frequency rev(p): shift_dft leaves its output in
    bit-reversed order.  The table is kept as its 32-bit halves, shaped
    (16, length/16, 1) so a row broadcasts over the batch axis.
    """
    w = gl.root_of_unity(length)
    powers = gl.powers(pow(w, -1, gl.P64) if inverse else w, length)
    n = np.arange(length // 16)
    return gl.halves(powers[np.outer(bit_reversal(16), n) % length, None])


@functools.cache
def _butterflies(size: int, inverse: bool) -> list[list]:
    """[r, r + h, flip, shift] for each butterfly of a size-point transform, in order.

    Radix-2 decimation in frequency with w = 2^(192/size), a primitive
    size-th root of unity as 2 has order 192.  Butterfly (r, r + h)
    takes a, b to a + b and (a - b) * w^k, k = (r mod h) * size/(2h).
    The inverse twiddle w^-k is -w^(size/2 - k), so for k > 0 it flips
    the difference to b - a and shifts by (size/2 - k) * 192/size.
    Every shift is below 96, and shift 0 is a unit twiddle.
    """
    unit, half = 192 // size, size // 2
    table = []
    h = half
    while h:
        for r in range(size):
            if not r & h:
                k = (r % h) * (half // h)
                flip = inverse and k > 0
                table.append([r, r + h, flip, unit * (half - k if flip else k)])
        h //= 2
    return table


def shift_dft(y, spare: np.ndarray, inverse: bool, tmp: tuple) -> list[np.ndarray]:
    """size-point transform along axis 0 of ``y``, for size a power of two up to 64.

    ``y`` is a (size, cols) array or a list of size arrays of one shape.
    Natural-order input, bit-reversed output, no 1/size scale on the
    inverse.  Every twiddle is a power of two, applied as a shift
    (``_butterflies``).  Each butterfly works on one pair of rows and
    writes its difference to ``spare``; a butterfly with a unit twiddle
    then swaps that row in instead of copying it back.  So the output
    rows, returned as a list, are rows of y and ``spare``, all but one
    row of y's memory.
    """
    rows = list(y)
    for r, s, flip, shift in _butterflies(len(rows), inverse):
        a, b = rows[r], rows[s]
        if flip:
            gl.v_sub(b, a, spare, tmp)
        else:
            gl.v_sub(a, b, spare, tmp)
        gl.v_add(a, b, a, tmp)
        if shift == 0:
            rows[s], spare = spare, b
        else:
            gl.v_shl(spare, shift, b, tmp)
    return rows


def half_inputs(x: list, size: int, half: int, out: list, tmp: tuple) -> None:
    """The inputs of half ``half`` of a forward size-point ``shift_dft``, in out[r].

    The transform's first stage turns the rows (x_r, x_(r+size/2)) into
    x_r + x_(r+size/2) and (x_r - x_(r+size/2)) * w^r.  The first of
    each pair feeds a size/2-point ``shift_dft`` whose outputs are the
    first half of the size-point outputs, and the second the other
    half, so a caller can run the halves one after the other on
    size/2 rows.  ``x`` holds the leading input rows, more than size/2
    of them, which are only read; the rest are zero.
    """
    for r, s, _, shift in _butterflies(size, False)[:size // 2]:
        row = out[r]
        if s >= len(x):  # x_s is zero
            gl.v_shl(x[r], shift * half, row, tmp)
        elif half:
            gl.v_sub(x[r], x[s], row, tmp)
            gl.v_shl(row, shift, row, tmp)
        else:
            gl.v_add(x[r], x[s], row, tmp)


def _transform(d: np.ndarray, spare: np.ndarray, row_spare: np.ndarray,
               inverse: bool, tmp: tuple) -> np.ndarray:
    """Transform along axis 0 of a (length, m) array.

    Decimation in frequency with the independent columns innermost, one
    stage at a time on the remaining length n, of radix r = min(16, n):
    so the last stage has radix 2, 4, 8 or 16.  A stage runs
    ``shift_dft`` on r rows, multiplies row p by its twiddles unless it
    is the last, and writes the row straight to its transposed place.
    It works on pieces of columns of at most ``gl.PIECE`` values: one
    for a radix-16 stage of a full chunk, several for a last stage of
    lower radix.  The stages alternate between d and ``spare``, a
    contiguous array of the same size; both are overwritten, and the one
    holding the result is returned in d's shape.  ``row_spare`` and the
    kernel temporaries ``tmp`` (from ``goldilocks.scratch``) hold a
    piece each.
    """
    shape, piece = d.shape, len(tmp[0])
    length, m = shape
    while length > 1:
        radix = min(16, length)
        cols = length // radix
        src, dst = d.reshape(radix, cols, m), spare.reshape(cols, radix, m)
        if cols > 1:  # the last stage has unit twiddles
            lo, hi = _twiddle_table(length, inverse)
        width = min(m, piece // cols)
        for c in range(0, m, width):
            cut = slice(c, c + width)
            size = src[0, :, cut].size
            flat = tuple(t[:size] for t in tmp)
            rows = shift_dft(src[:, :, cut].reshape(radix, size), row_spare[:size],
                             inverse, flat)
            # every row is read into dst below, so the next piece may reuse row_spare
            shaped = tuple(t.reshape(cols, -1) for t in flat)
            for p, q in enumerate(bit_reversal(radix)):
                row, target = rows[p].reshape(cols, -1), dst[:, q, cut]
                if p and cols > 1:  # row 0 has unit twiddles
                    gl.v_mul_halves(row, lo[p], hi[p], target, shaped)
                else:
                    target[...] = row
        d, spare = dst.reshape(cols, radix * m), d
        length, m = cols, radix * m
    return d.reshape(shape)


def _check_input(v: np.ndarray) -> tuple[np.ndarray, bool]:
    arr = np.asarray(v, dtype=_U64)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim != 2:
        raise UnsupportedLength("expected a vector or a batch of vectors")
    return arr, False


def batch_rows(length: int) -> int:
    """Rows of ``length`` values that fill one transform chunk.

    A caller that hands the transform this many rows at a time makes
    every kernel call work on full pieces.
    """
    return max(1, _CHUNK_ELEMS // length)


def _run(v: np.ndarray, inverse: bool, out: np.ndarray | None) -> np.ndarray:
    arr, squeeze = _check_input(v)
    batch, length = arr.shape
    if length not in SUPPORTED_LENGTHS:
        raise UnsupportedLength(f"length {length} not in {SUPPORTED_LENGTHS}")
    if out is None:
        res = np.empty_like(arr)
    elif out.shape != np.shape(v) or out.dtype != _U64:
        raise LengthMismatch(f"out is {out.dtype} {out.shape}, the input "
                             f"{arr.dtype} {np.shape(v)}")
    else:
        res = out.reshape(arr.shape)
    rows_per_chunk = batch_rows(length)
    scale = gl.halves(_U64(pow(length, -1, gl.P64))) if inverse else None
    # two chunk buffers and one row spare, one allocation shared by every
    # chunk and stage, and one set of kernel temporaries
    chunk = min(rows_per_chunk, batch) * length
    piece = min(gl.PIECE, chunk)
    buf = np.empty(2 * chunk + piece, dtype=_U64)
    tmp = gl.scratch((piece,))
    for start in range(0, batch, rows_per_chunk):
        rows = arr[start:start + rows_per_chunk]
        m = len(rows)
        d, spare = (buf[k * m * length:(k + 1) * m * length].reshape(length, m)
                    for k in (0, 1))
        step = min(length, gl.PIECE // m)  # transform positions per piece
        for i in range(0, length, step):
            d[i:i + step] = rows[:, i:i + step].T
        block = _transform(d, spare, buf[2 * chunk:], inverse, tmp)
        # every row of this chunk is read, so ``res`` may be the input
        for i in range(0, length, step):
            part, target = block[i:i + step], res[start:start + m, i:i + step].T
            if inverse:
                gl.v_mul_halves(part, *scale, target, tuple(
                    t[:part.size].reshape(part.shape) for t in tmp))
            else:
                target[...] = part
    if out is None:
        out = res[0] if squeeze else res
    return out


def ntt_forward(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """X_k = sum_n x_n * w^(n*k) mod p, natural-order input and output.

    The result goes to ``out`` if given (same shape, uint64), which may
    be ``v`` itself.
    """
    return _run(v, inverse=False, out=out)


def ntt_inverse(X: np.ndarray) -> np.ndarray:
    """Exact inverse of ntt_forward, including the 1/N scale factor."""
    return _run(X, inverse=True, out=None)


# -- test hooks -------------------------------------------------------------

def _testing_corrupt_twiddle(length: int, inverse: bool = False) -> None:
    """Flip the low bit of one cached twiddle (negative control for selftest).

    The bit is in the stored low half, which the transform reads.
    """
    lo, _ = _twiddle_table(length, inverse)
    lo[1, 1] ^= _U64(1)


def _testing_corrupt_shift(size: int) -> None:
    """Shift one first-stage butterfly of the forward size-point transform
    a bit too far (negative control for selftest)."""
    _butterflies(size, False)[1][3] += 1


def _testing_clear_cache() -> None:
    _twiddle_table.cache_clear()
    _butterflies.cache_clear()

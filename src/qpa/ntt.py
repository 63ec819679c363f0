"""Number-theoretic transform over the Goldilocks field, radix 16 and 5.

Supported lengths are the powers of two from 16 to 65536 and five times
those from 80 to 40960.  A transform is one loop of stages: while 5
divides the remaining length the stage has radix 5, which only the
first stage of a length 5 * 2^k does; every other stage takes radix
r = min(16, remaining length), so every such stage but the last has
radix 16 and the last radix 2, 4, 8 or 16.  A power-of-two stage's
r-point butterflies take w_r = w^(L/r) = 2^(192/r), realized as bit
shifts modulo p; inter-stage twiddle factors come from cached tables of
powers of the global root, stored once as the 32-bit halves that
``goldilocks.v_mul_halves`` takes.  The last stage needs no twiddles.
Input and output are both in natural order.  Every power-of-two stage
is ``shift_dft``, the one butterfly kernel: a radix-2 transform of any
length B up to 64, whose twiddles 2^(192k/B) are all shifts as 2 has
order 192, and which ``engines``' block engine also runs along the row
axis.

A length L = 5M is split by the prime-factor algorithm of Good (J. R.
Stat. Soc. B 20, 1958): as 5 and M are coprime, the input map
n = (M*n1 + 5*n2) mod L and the Chinese remainder output map turn the
transform into a 5-point transform along n1 and an M-point one along n2
with no twiddles between them (``_prime_factor_maps``), given the root
w of order L with w^5 the M-point root and w^M the 5-point one
(``goldilocks.root_of_unity``).  A chunk is gathered through the input
map a piece at a time, so the 5-point stage (``_dft5``) reads five
contiguous rows and writes each output row to its transposed place; the
M-point stages then run as they do at length M, on five times the
columns, and the result is gathered back through the output map.  2
has no fifth root of unity in its powers, as 5 does not divide 192, so
``_dft5`` takes three field products per five values; Rader's algorithm
does the rest with shifts.  Its rows still beat those of the power of
two above it, 2^j, in ms a row of full chunks on a 2-CPU x86 VM (Python
3.11, numpy 2.4), medians of 5 alternating rounds:

    L      forward  inverse  2^j    forward  inverse  ratios
    80     0.0037   0.0048   128    0.0068   0.0089   0.54 / 0.54
    160    0.0094   0.0116   256    0.0138   0.0187   0.69 / 0.62
    320    0.0187   0.0228   512    0.0325   0.0403   0.58 / 0.57
    640    0.0386   0.0496   1024   0.0660   0.0859   0.58 / 0.58
    1280   0.0801   0.0995   2048   0.1350   0.1657   0.59 / 0.60
    2560   0.2005   0.2413   4096   0.2974   0.3622   0.67 / 0.67
    5120   0.4452   0.5259   8192   0.7318   0.8681   0.61 / 0.61
    10240  0.8658   1.0109   16384  1.4431   1.6973   0.60 / 0.60
    20480  2.0087   2.3004   32768  3.4054   3.8233   0.59 / 0.60
    40960  4.7568   5.3107   65536  7.2387   8.0361   0.66 / 0.66

So every 5 * 2^k is in ``SUPPORTED_LENGTHS``, where a plan takes it
wherever its row limit holds (``bigint.transform_shape``).

A batch is transformed in chunks of 2^18 values with the batch axis
innermost, the four-step layout of Bailey ("FFTs in external or
hierarchical memory", J. Supercomputing 4, 1990) applied within each
chunk: 4 rows per chunk at length 65536, 6 at 40960, 256 at 1024
(``batch_rows``).  A stage runs its r-point butterflies one pair of
rows at a time, in place but for one spare row (two for the 5-point
stage), then multiplies each of its r output rows by its twiddles and
writes it straight to its transposed place in the next stage's buffer.
Every stage runs on one piece at a time: a radix-16 stage of a full
chunk is one piece, a last stage of radix r, whose rows are 16/r pieces
long, takes several pieces of columns, and a 5-point stage several
pieces of rows.  So every elementwise kernel call works on at most
16384 values and writes into buffers that one transform call allocates
once: two chunk buffers, two spare rows and the kernels' temporaries.
The inverse applies its 1/N scale in the same pieces as it writes the
result out.  A forward result may overwrite its input.

All functions accept a 1-D vector or a 2-D batch (one vector per row)
of canonical ``numpy.uint64`` values.
"""

from __future__ import annotations

import functools

import numpy as np

from . import goldilocks as gl
from .errors import LengthMismatch, UnsupportedLength

# ascending, with 65536 last: every 5 * 2^k up to 40960 is faster a row
# than the power of two above it (see the timings above)
SUPPORTED_LENGTHS = tuple(sorted([1 << k for k in range(4, 17)]
                                 + [5 << k for k in range(4, 14)]))

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


@functools.cache
def _rader_products(inverse: bool) -> tuple[np.ndarray, np.ndarray]:
    """The factors of ``_dft5``'s pointwise products, as 32-bit halves.

    With w the 5-point root (``goldilocks.root_of_unity(5)``, inverted
    for the inverse) and e_j = w^(3^j mod 5), 3 = 2^-1 mod 5, factor t
    is E_t / 4 for E_t = sum_j e_j * 2^(48jt), the 4-point transform of
    e that ``shift_dft`` computes; it is kept at the position
    ``shift_dft`` leaves bin t in, rev(t).  E_0 is the sum of the four
    primitive fifth roots, -1, so factor 0, -1/4 = 2^94, is a shift and
    is not read.
    """
    w = gl.root_of_unity(5)
    if inverse:
        w = pow(w, -1, gl.P64)
    e = [pow(w, pow(3, j, 5), gl.P64) for j in range(4)]
    quarter = pow(4, -1, gl.P64)
    factors = [sum(e[j] * pow(2, 48 * j * t, gl.P64) for j in range(4)) * quarter % gl.P64
               for t in bit_reversal(4)]
    return gl.halves(np.array(factors, dtype=_U64))


def _dft5(y, spares: np.ndarray, inverse: bool, tmp: tuple) -> list[np.ndarray]:
    """5-point transform along axis 0 of ``y``, a (5, cols) array or five rows.

    Natural-order input and output, no 1/5 scale on the inverse, by
    Rader's algorithm (Proc. IEEE 56, 1968).  As 2 generates the units
    modulo 5, X_k - y_0 for k = 2^-q is the cyclic convolution of
    a_p = y_(2^p) with e_j = w^(2^-j), q, p, j < 4.  It runs as a
    4-point ``shift_dft``, whose root 2^48 is a shift, three products by
    cached factors (``_rader_products``) and the inverse ``shift_dft``.
    The forward transform's bin 0, y_1 + .. + y_4, gives X_0 = y_0 + A_0,
    and its product with e's bin 0 is -A_0/4 = 2^94 A_0, to which y_0 is
    added so that the inverse adds it to every output.  The rows of y
    are overwritten, as are ``spares``, two rows of y's width; the
    output rows, returned as a list, are rows of both.
    """
    y0, y1, y2, y3, y4 = y
    lo, hi = _rader_products(inverse)
    a = shift_dft([y1, y2, y4, y3], spares[0], False, tmp)  # bin rev(t) in a[t]
    x0 = gl.v_add(y0, a[0], spares[1], tmp)
    gl.v_shl(a[0], 94, a[0], tmp)
    gl.v_add(a[0], y0, a[0], tmp)
    for t in (1, 2, 3):
        gl.v_mul_halves(a[t], lo[t], hi[t], a[t], tmp)
    z = shift_dft([a[t] for t in bit_reversal(4)], y0, True, tmp)
    # z[t] holds the convolution's q = rev(t), which is X_(2^-q): X_1, X_4, X_3, X_2
    return [x0, z[0], z[3], z[2], z[1]]


def _transform(d: np.ndarray, spare: np.ndarray, spares: np.ndarray,
               inverse: bool, tmp: tuple) -> np.ndarray:
    """Transform along axis 0 of a (length, m) array.

    Decimation in frequency with the independent columns innermost, one
    stage at a time on the remaining length n: of radix 5 while 5
    divides n (only the first stage), else of radix r = min(16, n), so
    the last stage has radix 2, 4, 8 or 16.  A stage runs ``_dft5`` or
    ``shift_dft`` on r rows, multiplies row p by its twiddles unless it
    is the last or the 5-point stage, and writes the row straight to its
    transposed place.  It works on pieces of at most ``gl.PIECE`` values:
    one for a radix-16 stage of a full chunk, several for a last stage
    of lower radix, split along the columns, and several for a 5-point
    stage, split along the rows.  The stages alternate between d and
    ``spare``, a contiguous array of the same size; both are
    overwritten, and the one holding the result is returned in d's
    shape.  ``spares``, two rows, and the kernel temporaries ``tmp``
    (from ``goldilocks.scratch``) hold a piece each.
    """
    shape, piece = d.shape, len(tmp[0])
    length, m = shape
    while length > 1:
        five = length % 5 == 0
        radix = 5 if five else min(16, length)
        cols = length // radix
        src, dst = d.reshape(radix, cols, m), spare.reshape(cols, radix, m)
        # the last stage has unit twiddles, and so has the 5-point stage:
        # the prime-factor input map leaves none between it and the rest
        twiddled = cols > 1 and not five
        if twiddled:
            lo, hi = _twiddle_table(length, inverse)
        # pieces of whole rows of m columns where a row fits a piece
        # (every stage but a last one of radix below 16), else pieces of
        # one row's columns
        span, width = max(1, piece // m), min(m, piece)
        for r in range(0, cols, span):
            for c in range(0, m, width):
                part = src[:, r:r + span, c:c + width]
                span_rows, size = part.shape[1], part[0].size
                flat = tuple(t[:size] for t in tmp)
                if five:
                    rows = _dft5(part.reshape(5, size), spares[:, :size], inverse, flat)
                    order = range(5)
                else:
                    rows = shift_dft(part.reshape(radix, size), spares[0, :size],
                                     inverse, flat)
                    order = bit_reversal(radix)
                # every row is read into dst below, so the next piece may reuse spares
                shaped = tuple(t.reshape(span_rows, -1) for t in flat)
                for p, q in enumerate(order):
                    row = rows[p].reshape(span_rows, -1)
                    target = dst[r:r + span, q, c:c + width]
                    if p and twiddled:  # row 0 has unit twiddles
                        gl.v_mul_halves(row, lo[p, r:r + span], hi[p, r:r + span],
                                        target, shaped)
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


@functools.cache
def _prime_factor_maps(length: int) -> tuple[np.ndarray, np.ndarray]:
    """(inputs, outputs): the index maps of a length 5M = 5 * 2^k.

    Row n1*M + n2 of the transform's input is position (M*n1 + 5*n2) mod
    L, the Ruritanian map of Good (J. R. Stat. Soc. B 20, 1958); the
    5-point stage on n1 then needs no twiddles before the M-point stages
    on n2.  Their result leaves frequency k in row 5*(k mod M) + k mod 5,
    the Chinese remainder map, which ``outputs[k]`` holds.
    """
    m, k = length // 5, np.arange(length)
    n1, n2 = np.divmod(k, m)
    return (m * n1 + 5 * n2) % length, 5 * (k % m) + k % 5


def _run(v: np.ndarray, inverse: bool, out: np.ndarray | None) -> np.ndarray:
    arr, squeeze = _check_input(v)
    batch, length = arr.shape
    if length not in SUPPORTED_LENGTHS:
        raise UnsupportedLength(f"length {length} is not a power of two from 16 to "
                                f"65536 nor five times one from 80 to 40960")
    if out is None:
        res = np.empty_like(arr)
    elif out.shape != np.shape(v) or out.dtype != _U64:
        raise LengthMismatch(f"out is {out.dtype} {out.shape}, the input "
                             f"{arr.dtype} {np.shape(v)}")
    else:
        res = out.reshape(arr.shape)
    rows_per_chunk = batch_rows(length)
    scale = gl.halves(_U64(pow(length, -1, gl.P64))) if inverse else None
    maps = _prime_factor_maps(length) if length % 5 == 0 else None
    # two chunk buffers and two row spares, one allocation shared by every
    # chunk and stage, and one set of kernel temporaries
    chunk = min(rows_per_chunk, batch) * length
    piece = min(gl.PIECE, chunk)
    buf = np.empty(2 * chunk + 2 * piece, dtype=_U64)
    spares = buf[2 * chunk:].reshape(2, piece)
    tmp = gl.scratch((piece,))
    for start in range(0, batch, rows_per_chunk):
        rows = arr[start:start + rows_per_chunk]
        m = len(rows)
        d, spare = (buf[k * m * length:(k + 1) * m * length].reshape(length, m)
                    for k in (0, 1))
        step = min(length, gl.PIECE // m)  # transform positions per piece
        for i in range(0, length, step):
            if maps is None:
                d[i:i + step] = rows[:, i:i + step].T
            else:
                # gathered into a spare row; mode "wrap" lets take write
                # straight to it, and every index is in range
                index = maps[0][i:i + step]
                gathered = spares[0, :m * len(index)].reshape(m, -1)
                d[i:i + step] = np.take(rows, index, axis=1, out=gathered, mode="wrap").T
        block = _transform(d, spare, spares, inverse, tmp)
        # every row of this chunk is read, so ``res`` may be the input
        for i in range(0, length, step):
            if maps is None:
                part = block[i:i + step]
            else:
                index = maps[1][i:i + step]
                part = np.take(block, index, axis=0, out=spares[0, :len(index) * m]
                               .reshape(-1, m), mode="wrap")
            target = res[start:start + m, i:i + step].T
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


def _testing_corrupt_rader() -> None:
    """Flip the low bit of one cached factor of the forward 5-point
    kernel (negative control for selftest)."""
    lo, _ = _rader_products(False)
    lo[1] ^= _U64(1)


def _testing_clear_cache() -> None:
    _twiddle_table.cache_clear()
    _butterflies.cache_clear()
    _rader_products.cache_clear()
    _prime_factor_maps.cache_clear()

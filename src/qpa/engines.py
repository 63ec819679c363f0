"""The two engines that sum a pass's spectral row products, and the choice.

``bigint.pass_spectra`` hands each step's windows, or a share's columns
of them, to the engine ``pipeline.schedule`` picks for the plan by
``block_size``, through the same ``add`` and ``finish`` calls.
``Mac`` is a multiply-accumulate over rows: every pass sums its own row
products.  ``BlockSums`` computes all passes of a frequency bin at once
by a short transform along the row axis.  Each owns its rows per
section, its buffers (``buffer_bytes``), the zero padding of a short
step and any scale.  Both return the same field elements.
"""

from __future__ import annotations

import numpy as np

from . import ntt
from . import goldilocks as gl

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)

# values per block of the MAC
_MAC_BLOCK = 1 << 16
# most values in a row of a section stack of the block engine
_STACK_WIDTH = 1 << 14
# block lengths of the block engine, and where it takes over from the
# MAC (``block_size``)
_BLOCK_SIZES = (16, 32, 64)
_BLOCK_PASSES = 8
_BLOCK_ROWS = 32
_BLOCK_PRODUCTS = 400


def block_size(rows: int, passes: int) -> int:
    """The block length B ``passes`` passes over ``rows`` key rows are summed with.

    0 means the MAC: each pass sums its own row products, rows * passes
    of them.  The block engine (``BlockSums``) spends two length-B
    transforms along the row axis and B products on each section of
    T = B - G + 1 key rows, G <= B/2 passes at a time, and inverts one
    (B, L) accumulator per group at the end.  So it pays once there are
    enough passes to share its transforms and enough rows to share its
    inverse: from ``_BLOCK_PASSES`` passes and max(``_BLOCK_ROWS``,
    ``_BLOCK_PRODUCTS`` // passes) rows.  Whole ``pass_spectra`` calls
    on a 2-CPU x86 VM at L = 4096, MAC against block: 20 rows and 14
    passes 49 / 55 ms, 30 and 14 65 / 64 ms, 67 and 14 107 / 93 ms,
    24 rows and 20 passes 48 / 57 ms.  At L = 1024, with 14 passes,
    medians of 7: 30 rows 19.3 / 25.4 ms, 67 rows 32.9 / 33.4 ms, 133
    rows 59.6 / 52.7 ms.  B is the shortest of ``_BLOCK_SIZES`` that
    takes every pass in one group, else the longest.
    """
    if passes < _BLOCK_PASSES or rows < max(_BLOCK_ROWS, _BLOCK_PRODUCTS // passes):
        return 0
    return next((size for size in _BLOCK_SIZES if 2 * passes <= size), _BLOCK_SIZES[-1])


def _sum_products(x: np.ndarray, a: np.ndarray, tmp: tuple,
                  sums: np.ndarray, kernel_tmp: tuple) -> np.ndarray:
    """sum over rows of x * a mod p, for fewer than 2^16 rows.

    Each 128-bit product is four 64-bit partial products; their 32-bit
    halves add up exactly in uint64 at bit offsets 0, 32, 64 and 96,
    and each column is reduced once.  ``tmp`` is five arrays shaped
    like x, ``sums`` four rows and ``kernel_tmp`` the field kernels'
    temporaries, all as wide as x; every one is overwritten, and the
    result is a row of ``sums``.
    """
    ll, hh, hl, t, lh = tmp
    np.bitwise_and(x, _M32, out=ll)
    np.right_shift(x, _U64(32), out=hh)
    np.bitwise_and(a, _M32, out=hl)
    np.right_shift(a, _U64(32), out=t)
    np.multiply(ll, t, out=lh)
    ll *= hl
    hl *= hh
    hh *= t
    s0, s1, s2, s3 = sums
    np.add.reduce(np.bitwise_and(ll, _M32, out=t), axis=0, out=s0)
    ll >>= _U64(32)
    ll += np.bitwise_and(lh, _M32, out=t)
    ll += np.bitwise_and(hl, _M32, out=t)
    np.add.reduce(ll, axis=0, out=s1)
    lh >>= _U64(32)
    hl >>= _U64(32)
    lh += hl
    lh += np.bitwise_and(hh, _M32, out=t)
    np.add.reduce(lh, axis=0, out=s2)
    hh >>= _U64(32)
    np.add.reduce(hh, axis=0, out=s3)
    # 2^64 = 2^32 - 1 and 2^96 = -1.  Every s_i < 2^50, so s1 + s2, s0 and
    # s2 + s3 are below 2^51 and canonical operands for the field kernels
    s1 += s2
    s2 += s3
    gl.v_shl(s1, 32, s1, kernel_tmp)
    gl.v_add(s1, s0, s1, kernel_tmp)
    return gl.v_sub(s1, s2, s1, kernel_tmp)


def mac_scratch(rows: int, length: int) -> tuple:
    """Temporaries, which set the block, for ``mac`` on up to ``rows`` rows of ``length``."""
    cols = min(length, max(256, _MAC_BLOCK // max(rows, 1)))
    size = min(rows, _MAC_BLOCK // cols) * cols
    return np.empty((5, size), dtype=_U64), np.empty((4, cols), dtype=_U64), gl.scratch((cols,))


def mac(x: np.ndarray, a: np.ndarray, out: np.ndarray, scratch: tuple) -> None:
    """Add sum_k x[k] * a[k] mod p per column to ``out``, a ``scratch`` block at a time."""
    block_tmp, sums, kernel_tmp = scratch
    cols = sums.shape[1]
    rows = _MAC_BLOCK // cols
    for c in range(0, x.shape[1], cols):
        acc = out[c:c + cols]
        width = len(acc)
        narrow = tuple(t[:width] for t in kernel_tmp)
        for r in range(0, len(x), rows):
            xb, ab = x[r:r + rows, c:c + cols], a[r:r + rows, c:c + cols]
            tmp = tuple(t[:xb.size].reshape(xb.shape) for t in block_tmp)
            gl.v_add(acc, _sum_products(xb, ab, tmp, sums[:, :width], narrow),
                     acc, narrow)


class Mac:
    """Each pass adds its own row products to its spectrum row: the MAC engine."""

    section = 1

    def buffer_bytes(self, keys: int, length: int) -> int:
        return 0

    def add(self, keys: np.ndarray, seeds: np.ndarray, rows: int, out: np.ndarray) -> None:
        """Add the products of keys[:rows] and seeds[q:q + rows] to out[q] for each pass q."""
        # made per step, so that the next step's fills run without them
        scratch = mac_scratch(rows, keys.shape[1])
        for q in range(len(out)):
            mac(keys[:rows], seeds[q:q + rows], out[q], scratch)

    def finish(self, out: np.ndarray) -> None:
        """Nothing is left to add: ``add`` wrote every product to ``out``."""


class BlockSums:
    """Pass sums by a length-B transform along the row axis: the block engine.

    In one frequency bin the pass sums S_q = sum_j X_j * A_(j+q) are a
    correlation along the row axis, which a short cyclic convolution
    computes for many q at once (Agarwal and Cooley, IEEE Trans. ASSP
    25(5), 1977).  Passes go in groups of G <= B/2 from offset q0, and
    key rows in sections of T = B - G + 1.  A section's key rows,
    reversed and padded with zeros to B rows, and its seed rows from
    row q0 on are transformed along the row axis by ``ntt.shift_dft``,
    whose twiddles are all shifts as 2 has order 192 in the field.
    Rows T - 1 .. T + G - 2 of their cyclic convolution are the
    section's share of S_q0 .. S_(q0+G-1), and no other row wraps into
    them.  The products of every section go into one (B, L)
    accumulator per group, one ``mac`` per block frequency over the
    sections, and ``finish`` inverts each accumulator once and scales
    the rows it keeps by 1/B = 2^-log2(B), a shift.  Each sum is the
    same field element the MAC computes, so the output bits do not
    depend on the engine.

    A step works on a block of columns at a time, every section's side
    by side, and on half of the block frequencies at a time
    (``ntt.half_inputs``), whose first stage reads the windows in place.
    Its stack holds B/2 + 1 rows of the key columns, then the seed
    columns, at most 2 * ``_STACK_WIDTH`` values a row, for the step
    only; the accumulators are made at the first step, after the first
    fills' transform temporaries are gone.
    """

    def __init__(self, size: int, passes: int):
        count = -(-passes // (size // 2))
        group = -(-passes // count)
        self.section = size - group + 1
        # (q0, G) for each group of G passes
        self.groups = [(q, min(group, passes - q)) for q in range(0, passes, group)]
        self.size, self.passes, self.acc = size, passes, None

    @staticmethod
    def _columns(sections: int, length: int) -> int:
        """Columns of each section a stack row holds: a whole row if it fits."""
        return max(1, min(length, _STACK_WIDTH // sections))

    def buffer_bytes(self, keys: int, length: int) -> int:
        """Bytes of the accumulators and a step's stack for a window of ``keys`` key rows."""
        sections = keys // self.section
        width = sections * self._columns(sections, length)
        return 8 * (len(self.groups) * self.size * length + (self.size + 2) * width)

    def add(self, keys: np.ndarray, seeds: np.ndarray, rows: int, out: np.ndarray) -> None:
        """Add the products of keys[:rows] and seeds[:rows + passes - 1] to out by ``finish``.

        ``keys`` holds whole sections and ``seeds`` passes - 1 rows more.
        Only the ceil(rows / T) sections that hold key rows are
        transformed.  The key rows they read past ``rows`` are set to
        zero, as each meets a seed row in the sums kept.  So are the
        seed rows they read past rows + passes - 1: these meet only zero
        key rows, but a row no fill wrote need not hold canonical
        values, which the field kernels need.
        """
        size, t, half = self.size, self.section, self.size // 2
        sections = -(-rows // t)
        keys[rows:sections * t] = 0
        seeds[rows + self.passes - 1:sections * t + self.passes - 1] = 0
        length = keys.shape[1]
        if self.acc is None:
            self.acc = np.zeros((len(self.groups), size, length), dtype=_U64)
        cols = self._columns(sections, length)
        buf = np.empty((half + 1, 2 * sections * cols), dtype=_U64)
        tmp = gl.scratch((2 * sections * cols,))
        mac_tmp = mac_scratch(sections, cols)
        for c in range(0, length, cols):
            part = slice(c, c + cols)
            shape = (sections, len(keys[0, part]))
            n = shape[0] * shape[1]
            stack = [row[:2 * n] for row in buf]
            kstack = [row[:n].reshape(shape) for row in stack]
            sstack = [row[n:].reshape(shape) for row in stack]
            flat, shaped = (tuple(a[:2 * n] for a in tmp),
                            tuple(a[:n].reshape(shape) for a in tmp))
            # row i of section s's stack is key row s*T + T - 1 - i
            krows = [keys[t - 1 - i:sections * t:t, part] for i in range(t)]
            for h in (0, 1):
                ntt.half_inputs(krows, size, h, kstack, shaped)
                for g, (q, count) in enumerate(self.groups):
                    srows = [seeds[q + i::t, part][:sections] for i in range(t + count - 1)]
                    ntt.half_inputs(srows, size, h, sstack, shaped)
                    # the first group's seed columns are transformed with the
                    # key columns, the others' alone
                    if g == 0:
                        both = ntt.shift_dft(stack[:half], stack[half], False, flat)
                        kf = [row[:n].reshape(shape) for row in both]
                        sf = [row[n:].reshape(shape) for row in both]
                    else:
                        sf = ntt.shift_dft(sstack[:half], sstack[half], False, shaped)
                    for f in range(half):
                        mac(kf[f], sf[f], self.acc[g, h * half + f, part], mac_tmp)

    def finish(self, out: np.ndarray) -> None:
        """Invert each group's accumulator and add its passes, scaled by 1/B, to out[q0 ..]."""
        size, t, length = self.size, self.section, out.shape[1]
        rev = ntt.bit_reversal(size)
        shift = 1 - size.bit_length()  # -log2(B)
        cols = self._columns(1, length)
        spare = np.empty(cols, dtype=_U64)
        tmp = gl.scratch((cols,))
        for g, (q, count) in enumerate(self.groups):
            for c in range(0, length, cols):
                part = slice(c, c + cols)
                narrow = tuple(a[:len(out[0, part])] for a in tmp)
                # the forward transforms leave frequency rev(f) in row f
                rows = ntt.shift_dft([self.acc[g, rev[f], part] for f in range(size)],
                                     spare[:len(narrow[0])], True, narrow)
                for i in range(count):
                    row = rows[rev[t - 1 + i]]
                    gl.v_shl(row, shift, row, narrow)
                    gl.v_add(out[q + i, part], row, out[q + i, part], narrow)

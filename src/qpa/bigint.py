"""Ring products modulo 2^gamma - 1, and exact products on 24-bit limbs.

The pass kernel is a weighted Mersenne transform (the irrational-base
discrete weighted transform of Crandall and Fagin, Math. Comp. 62,
1994), done exactly over the Goldilocks field, at a length L of
``ntt.SUPPORTED_LENGTHS``: a power of two or five times one.  Digit j
of a value holds bits e_j .. e_(j+1) - 1, where e_j = ceil(j*gamma/L),
at most b = ceil(gamma/L) bits, and is weighted by
theta^(L*e_j - j*gamma) with theta^L = 2.  A length-L cyclic
convolution of weighted digits, divided by the weights, gives
coefficients c_k with

    x * y = sum_k c_k * 2^(e_k)  (mod 2^gamma - 1),

with no zero padding.  Each c_k is a sum of at most L digit products,
some doubled, so it is below 2L * (2^b - 1)^2.  A pass sums n such
products; while n times that bound stays below the field modulus, the
whole sum is exact in the spectrum and costs one inverse transform.
So ``transform_shape`` picks, once per plan, the shortest L whose
bound holds for the plan's n rows: L = 1024 with 20-bit digits for
n = 133 at gamma 19937, and L = 40960 = 5 * 8192 with 19-bit digits for
up to 819 rows at gamma 756839, where L = 32768 holds one row and
L = 65536, with 12-bit digits, 8392705.  The bound also sets the widest
gamma, 23 * 65536: past it not one product is exact (``InvalidGamma``).
A length L = 5M needs theta^L = 2, so 2 a fifth power modulo p, and
3 * 2^k would need 2 a cube.  As 2 has order 192, it is a k-th power
exactly when k divides (p - 1) / 192 = 2^26 * 5 * 17 * 257 * 65537:
5 does (``_theta``), 3 does not.  Every other function takes L from the
width of the spectra it is given.

``Words`` is the one form of gamma-bit rows: one packed bit stream,
kept as 64-bit words, whose row r starts at bit r*gamma.  Every reader
gathers a batch of rows realigned to bit 0 straight from the stream,
so no transform input is an int.  ``Words.fill`` writes the forward
spectra of the rows asked for, weighted in the caller's rows and then
transformed in place.  ``pass_spectra`` computes the spectra of P
shifted row sums, the correlation of the key rows with the seed rows,
in steps of a fixed number of key rows (Stockham's sectioned
convolution, AFIPS SJCC 28, 1966), so its memory does not grow with
the number of rows.  It keeps the windows, the fills and the seed-row
moves, dealt to the shares that run it; the engine sums the products.
``to_ints`` runs one inverse transform per sum and folds it to its
canonical residue in [0, 2^gamma - 2], so no caller reduces, and
``dot`` is the one-pass case.

``mul_ntt`` is the exact integer product: 24-bit limbs, zero-padded to
a supported length, carried back into an int by ``int_from_wide_limbs``.
A convolution of up to 32768 limbs stays below the field modulus: each
coefficient is < 32768 * (2^24 - 1)^2 < 2^63.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np

from . import bitio, engines, ntt
from . import goldilocks as gl
from .errors import InvalidGamma, OperandTooLarge, TooManyBlocks
from .mersenne import fold

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)

# -- weighted Mersenne transform ---------------------------------------------

# words of realigned rows the all-ones test holds at once
_TEST_WORDS = 1 << 16


def _row_limit(length: int, gamma: int) -> int:
    """Most row products a length-``length`` pass sums exactly at ``gamma``.

    Its digits are b = ceil(gamma / L) bits wide, and each sum stays
    below p while rows * 2L(2^b - 1)^2 does.
    """
    width = -(-gamma // length)
    if width > 32:  # (2^b - 1)^2 alone exceeds p: no need to square a wide int
        return 0
    return (gl.P64 - 1) // (2 * length * ((1 << width) - 1) ** 2)


def transform_shape(gamma: int, rows: int) -> tuple[int, int]:
    """(L, b): the shortest length whose pass sums ``rows`` products exactly, and its digit width.

    A plan picks it once from its row count, so every row and pass of
    the plan runs at the same L.  This is the one check of which
    (gamma, rows) pairs a plan takes.
    """
    for length in ntt.SUPPORTED_LENGTHS:
        if max(rows, 1) <= _row_limit(length, gamma):
            return length, -(-gamma // length)
    limit = max_rows(gamma)
    if limit == 0:
        raise InvalidGamma(f"gamma {gamma} is too wide: no length up to "
                           f"{ntt.SUPPORTED_LENGTHS[-1]} keeps one product's "
                           f"2L(2^b - 1)^2 below the field modulus")
    raise TooManyBlocks(f"{rows} blocks exceed the {limit} a pass "
                        f"sums exactly at gamma {gamma}")


def max_rows(gamma: int) -> int:
    """Most row products a pass can sum, at any length, before a coefficient reaches p."""
    return max(_row_limit(length, gamma) for length in ntt.SUPPORTED_LENGTHS)


def _theta(length: int) -> int:
    """A root theta with theta^length = 2 in the Goldilocks field.

    For L a power of two, R = 7^((p-1)/(64L)) has order 64L, so R^(23L)
    is a primitive 64th root of unity; it equals 2^(-63), and 2^64 has
    order 3, so R^23 * (2^64)^(L^-1 mod 3) raised to L is 2^(-63) * 2^64
    = 2.  For L = 5M, theta = _theta(M)^77: its L-th power is 2^385,
    and 385 = 5 * 77 = 1 (mod 192), the order of 2.
    """
    if length % 5 == 0:
        return pow(_theta(length // 5), 77, gl.P64)
    r = pow(gl.GENERATOR, (gl.P64 - 1) // (64 * length), gl.P64)
    return (pow(r, 23, gl.P64) * pow(1 << 64, pow(length, -1, 3), gl.P64)
            % gl.P64)


@dataclass
class _Layout:
    """Digit positions and weights of the transform for one gamma."""

    gamma: int
    length: int
    mask: np.ndarray      # (1 << width_j) - 1
    weight: tuple         # theta^(L*e_j - j*gamma), as 32-bit halves
    unweight: np.ndarray  # its inverse
    word: np.ndarray      # e_j // 64
    bit: np.ndarray       # e_j % 64
    classes: int          # digits this far apart are >= 64 bits apart


@functools.cache
def _layout(gamma: int, length: int) -> _Layout:
    """The layout of spectra ``length`` values wide; its pass must sum at least one product."""
    if length not in ntt.SUPPORTED_LENGTHS or _row_limit(length, gamma) < 1:
        raise OperandTooLarge(f"gamma {gamma} does not fit a length-{length} transform")
    j = np.arange(length + 1, dtype=np.int64)
    e = -((-j * gamma) // length)
    exponent = length * e[:-1] - j[:-1] * gamma   # in [0, L)
    theta = _theta(length)
    low = gamma // length
    return _Layout(
        gamma=gamma, length=length,
        mask=((1 << np.diff(e)) - 1).astype(_U64),
        weight=gl.halves(gl.powers(theta, length)[exponent]),
        unweight=gl.powers(pow(theta, -1, gl.P64), length)[exponent],
        word=e[:-1] >> 6,
        bit=(e[:-1] & 63).astype(_U64),
        classes=min(length, -(-64 // low)) if low else length)


def _weighted_digits(words: np.ndarray, lay: _Layout, out: np.ndarray) -> None:
    """Write the weighted digits of each row of ``words`` to its row of ``out``.

    ``words`` holds rows realigned to bit 0, ``Words._rows``, at least
    gamma // 64 + 2 words wide, so word e_j // 64 + 1 exists for every
    j.  Digit j is read from the two 64-bit words that hold bits e_j ..
    e_j + 63, a sixteenth of the columns at a time: for a full
    transform batch, one piece of the transform, so the temporaries
    stay in cache.
    """
    cols = max(1, lay.length // 16)
    digits = np.empty((len(words), cols), dtype=_U64)
    hi = np.empty_like(digits)
    tmp = gl.scratch(digits.shape)
    t = tmp[0]
    next_word = np.empty(cols, dtype=np.int64)
    rest = np.empty(cols, dtype=_U64)
    w0, w1 = lay.weight
    for c in range(0, lay.length, cols):
        part = slice(c, c + cols)
        np.take(words, lay.word[part], axis=1, out=digits)
        np.take(words, np.add(lay.word[part], 1, out=next_word), axis=1, out=hi)
        # the digit's bits: word >> bit, then the next word above 64 - bit
        # (shifted in two steps, as a shift by 64 is undefined)
        digits >>= lay.bit[part]
        hi <<= _U64(1)
        hi <<= np.subtract(_U64(63), lay.bit[part], out=rest)
        digits |= hi
        digits &= lay.mask[part]
        # digit * weight = lo + hi * 2^32 with lo, hi < 2^61, as a shape
        # that sums a row has b <= 29 (32 * (2^30 - 1)^2 > p), and
        # 2^64 = 2^32 - 1
        lo = np.multiply(digits, w0[part], out=out[:, part])
        np.multiply(digits, w1[part], out=hi)
        np.right_shift(hi, _U64(32), out=t)
        t *= _M32  # below 2^61
        lo += t  # now below 2^62 < p
        hi <<= _U64(32)  # at most p - 1
        # both operands are canonical, as v_add requires
        gl.v_add(hi, lo, lo, tmp)


class Words:
    """``count`` rows of gamma bits: row r is bits r*gamma .. of one packed stream.

    The stream, ordered as ``bitio`` orders bits, is kept once as
    little-endian 64-bit words, zero past the cut and for gamma // 64 + 3
    words after it, so the last row reads as far as any other.  A row
    slice is a view on the same stream, which no method writes to.  A row
    of gamma ones reads as 2^gamma - 1, which the ring products take as 0.
    """

    def __init__(self, data, gamma: int, count: int, nbits: int | None = None):
        """Rows of packed bytes or a 0/1 array; bits past ``nbits`` (default all) read 0."""
        have = bitio.bit_count(data)
        nbits = have if nbits is None else nbits
        if nbits > have:
            raise ValueError(f"need {nbits} bits, have {have}")
        cut = min(nbits, count * gamma)
        if isinstance(data, (bytes, bytearray)):
            packed = np.frombuffer(data, dtype=np.uint8, count=-(-cut // 8))
        else:
            packed = np.packbits(np.asarray(data, dtype=np.uint8)[:cut], bitorder="little")
        stream = np.zeros(8 * (count * gamma // 64 + gamma // 64 + 3), dtype=np.uint8)
        stream[:len(packed)] = packed
        stream[cut // 8] &= (1 << cut % 8) - 1  # bits past the cut
        self._stream = stream.view("<u8")
        self._first, self._count, self.gamma = 0, count, gamma

    @classmethod
    def from_ints(cls, values, gamma: int) -> "Words":
        """One row per value; every value must fit in ``gamma`` bits."""
        values = list(values)
        for v in values:
            if v.bit_length() > gamma:
                raise ValueError(f"value of {v.bit_length()} bits exceeds gamma = {gamma}")
        bits = [bitio.bits_from_int(v, gamma) for v in values]
        return cls(np.concatenate(bits) if bits else b"", gamma, len(bits))

    def __getitem__(self, rows: slice) -> "Words":
        """Rows ``rows``, a slice of step 1, as a view on the same stream."""
        start, stop, step = rows.indices(self._count)
        if step != 1:
            raise ValueError(f"row slices take step 1, not {step}")
        view = copy.copy(self)
        view._first, view._count = self._first + start, max(stop - start, 0)
        return view

    def __len__(self) -> int:
        return self._count

    def _rows(self, rows) -> np.ndarray:
        """Rows ``rows`` realigned to bit 0, gamma // 64 + 2 words each.

        Row r starts at bit 64q + s, so its word i is w[q + i] >> s |
        w[q + i + 1] << (64 - s), the second shift taken in two steps as
        a shift by 64 is undefined.  Above bit gamma a row holds the next
        row's bits.  That is harmless: ``ints`` and ``all_ones`` mask them
        off, and the transform's digit masks stop below e_L = gamma.
        """
        start = (self._first + np.asarray(rows, dtype=np.int64)) * self.gamma
        s = (start & 63).astype(_U64)[:, None]
        w = self._stream[(start >> 6)[:, None] + np.arange(self.gamma // 64 + 3)]
        return (w[:, :-1] >> s) | (w[:, 1:] << _U64(1) << (_U64(63) - s))

    def all_ones(self) -> list[int]:
        """The indices of the rows of gamma ones, tested ``_TEST_WORDS`` words at a time."""
        full, rest = divmod(self.gamma, 64)
        top = _U64((1 << rest) - 1)
        step = max(1, _TEST_WORDS // (full + 2))
        bad = []
        for k in range(0, self._count, step):
            w = self._rows(range(k, min(k + step, self._count)))
            ones = (w[:, :full] == ~_U64(0)).all(axis=1) & (w[:, full] & top == top)
            bad += (k + np.flatnonzero(ones)).tolist()
        return bad

    def ints(self) -> list[int]:
        """Every row as an int below 2^gamma: the seed's b and c, the oracle, tests."""
        mask = (1 << self.gamma) - 1
        return [int.from_bytes(row.tobytes(), "little") & mask
                for row in self._rows(range(self._count))]

    def fill(self, rows, out: np.ndarray) -> None:
        """Write the weighted forward spectrum of row ``rows[i]`` to ``out[i]``.

        The rows of ``out`` are as long as the spectra; the weighted
        digits go straight to them, which are then transformed in place.
        ``pass_spectra`` asks for a transform batch (``ntt.batch_rows``) at a time.
        """
        _weighted_digits(self._rows(rows), _layout(self.gamma, out.shape[1]), out)
        # through the module attribute, so row counters see every row
        ntt.ntt_forward(out, out=out)


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


def steps(section: int, rows: int, length: int) -> tuple[int, int]:
    """(S, K): the key rows per step and in the window, for sections of ``section`` rows.

    A step holds up to a transform batch, or 16 rows.  Steps are of
    nearly equal size in whole sections, as a small transform batch
    costs more per row, and in whole batches where a step holds several
    and a section is smaller.  The window holds a step, or less.
    """
    batch = ntt.batch_rows(length)
    step = max(batch, 16)
    total = -(-rows // section)
    count = max(1, -(-total // max(1, step // section)))
    keys = max(1, -(-total // count)) * section
    if section < batch < step:
        keys = -(-keys // batch) * batch
    return keys, -(-min(keys, max(rows, 1)) // section) * section


def columns(share: int, shares: int, length: int) -> slice:
    """The columns share k of S sums: k*L//S .. (k+1)*L//S - 1."""
    return slice(share * length // shares, (share + 1) * length // shares)


def pass_spectra(x: Words, seed_fill, engine, out: np.ndarray, window=None,
                 share: int = 0, shares: int = 1, barrier=lambda: None) -> np.ndarray:
    """Add the spectra of sum_j x[j] * a[j + q] to out[q], and return ``out``.

    ``out`` holds one row of canonical values per pass, as wide as the
    transform.  ``seed_fill(rows, out)``, such as ``Words.fill``, writes
    the spectra of the seed rows a[r], each asked for once.  The key rows
    go in steps (``steps``) into a window of as many rows, and the seed
    rows a step newly needs into one of passes - 1 more, whose rows the
    next step still needs move to its front; ``window`` holds both, key
    rows first, else is made here.  ``engine`` (``engines``) adds each
    step's products to ``out`` by the time it finishes.  ``shares``
    processes may run this in lockstep on one ``out`` and ``window`` in
    shared memory, taking turns at each step's fills, a transform batch
    each; share k moves, adds and finishes only its ``columns``, and
    ``barrier()`` returns once every share has called it.
    """
    passes, length = out.shape
    step, held = steps(engine.section, len(x), length)
    if window is None:  # two arrays: in one, narrow ran 7-13% slower on a 2-CPU VM
        keys, seeds = (np.empty((rows, length), dtype=_U64) for rows in (held, held + passes - 1))
    else:
        keys, seeds = window[:held], window[held:]
    cols, batch = columns(share, shares, length), ntt.batch_rows(length)
    for s in range(0, len(x), step):
        k = min(step, len(x) - s)
        kept = passes - 1 if s else 0  # the seed rows the last step shares with this one
        for r in range(kept):  # row by row: the rows may overlap
            seeds[r, cols] = seeds[step + r, cols]
        barrier()
        fills = ((x.fill, range(s, s + k), keys[:k]),
                 (seed_fill, range(s + kept, s + k + passes - 1), seeds[kept:k + passes - 1]))
        batches = [(fill, rows[i:i + batch], to[i:i + batch])
                   for fill, rows, to in fills for i in range(0, len(rows), batch)]
        for fill, rows, to in batches[share::shares]:
            fill(rows, to)
        barrier()
        engine.add(keys[:, cols], seeds[:, cols], k, out[:, cols])
    engine.finish(out[:, cols])
    barrier()
    return out


def to_ints(spectra: np.ndarray, gamma: int) -> list[int]:
    """The row sums ``spectra`` holds, each reduced modulo 2^gamma - 1.

    The transform length is the width of ``spectra``.  Rows are
    inverted a transform batch at a time: on a 2-CPU x86 VM, a lone row
    of 4096 values took about four times as long per row as a batch of
    fourteen.
    """
    lay = _layout(gamma, spectra.shape[1])
    batch = ntt.batch_rows(lay.length)
    totals = []
    for k in range(0, len(spectra), batch):
        # ntt_inverse already scales by 1/L
        coeffs = gl.v_mul(ntt.ntt_inverse(spectra[k:k + batch]), lay.unweight)
        totals += [fold(_int_from_coefficients(row, lay), gamma) for row in coeffs]
    return totals


def dot(x: Words, a: Words, offset: int = 0) -> int:
    """sum_k x[k] * a[k + offset] modulo 2^gamma - 1."""
    n = len(x)
    if x.gamma != a.gamma:
        raise ValueError(f"gamma {x.gamma} and {a.gamma} differ")
    if offset < 0:
        raise ValueError(f"offset {offset} is negative")
    if len(a) < n + offset:
        raise ValueError(f"rows {offset}..{offset + n - 1} requested, "
                         f"only {len(a)} present")
    out = np.zeros((1, transform_shape(x.gamma, n)[0]), dtype=_U64)
    return to_ints(pass_spectra(x, a[offset:offset + n].fill, engines.Mac(), out), x.gamma)[0]


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


def mul_ntt(a: BigUint, b: BigUint) -> BigUint:
    """Exact product via forward NTT, pointwise multiply, inverse NTT, carry."""
    la = _limb_count(a.bit_len)
    lb = _limb_count(b.bit_len)
    if la > MAX_LIMBS or lb > MAX_LIMBS:
        raise OperandTooLarge(
            f"operands of {la} and {lb} limbs exceed {MAX_LIMBS}")
    out_bits = a.bit_len + b.bit_len
    if la == 0 or lb == 0:
        return BigUint.from_int(0, 0)
    if la + lb <= _NTT_CUTOFF_LIMBS:
        return BigUint.from_int(a.to_int() * b.to_int())
    length = next(n for n in ntt.SUPPORTED_LENGTHS if n >= la + lb)
    padded = np.zeros((2, length), dtype=_U64)
    padded[0, :la] = a.limbs[:la]
    padded[1, :lb] = b.limbs[:lb]
    fa, fb = ntt.ntt_forward(padded)
    value = int_from_wide_limbs(ntt.ntt_inverse(gl.v_mul(fa, fb)))
    if value.bit_length() > out_bits:
        raise ArithmeticError(
            f"product of {a.bit_len}- and {b.bit_len}-bit operands came out "
            f"{value.bit_length()} bits wide")
    return BigUint.from_int(value)


# -- test hooks -------------------------------------------------------------

def _testing_corrupt_weight(gamma: int, length: int) -> None:
    """Flip the cached weight of a widest digit at one transform length
    (negative control for selftest)."""
    lay = _layout(gamma, length)
    lay.weight[0][np.argmax(lay.mask)] ^= _U64(1)


def _testing_clear_cache() -> None:
    _layout.cache_clear()

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpa import bigint, bitio, dm3h, engines, ntt, oracle, pipeline
from qpa import goldilocks as gl
from qpa.bigint import BigUint
from qpa.errors import AllOnesBlock, InvalidGamma, OperandTooLarge, TooManyBlocks
from qpa.goldilocks import P64

bit_arrays = st.lists(st.integers(0, 1), min_size=0, max_size=200).map(
    lambda v: np.array(v, dtype=np.uint8))


# bit i of a stream is bit i of the integer (bitio); the limb layout
# below it belongs to bigint

def as_int(bits):
    """The integer a little-endian bit array encodes."""
    return int.from_bytes(bitio.bytes_from_bits(bits), "little")


def test_from_bit_stream_examples():
    assert as_int(np.zeros(0, dtype=np.uint8)) == 0

    one = as_int(np.array([1] + [0] * 24, dtype=np.uint8))
    assert one == 1
    assert BigUint.from_int(one, 25).limbs.tolist() == [1, 0]

    bit24 = np.zeros(25, dtype=np.uint8)
    bit24[24] = 1
    x = as_int(bit24)
    assert x == 1 << 24
    assert BigUint.from_int(x, 25).limbs.tolist() == [0, 1]


def test_to_bit_stream_examples():
    assert bitio.bits_from_int(0, 8).tolist() == [0] * 8
    assert bitio.bits_from_int(1 << 24, 25).tolist() == [0] * 24 + [1]
    with pytest.raises(ValueError):
        bitio.bits_from_int(256, 8)
    # the message gives the bit length, as a value this wide has too many
    # decimal digits to format
    with pytest.raises(ValueError, match="does not fit"):
        bitio.bits_from_int(1 << 20000, 19937)


@given(bit_arrays)
def test_bit_stream_round_trip(bits):
    out = bitio.bits_from_int(as_int(bits), len(bits))
    assert out.tolist() == bits.tolist()


def test_mul_trivial():
    x = BigUint.from_int(123456789)
    assert bigint.mul_ntt(BigUint.from_int(0), x).to_int() == 0
    assert bigint.mul_ntt(BigUint.from_int(1), x).to_int() == 123456789


@pytest.mark.parametrize("bits", [100, 1000, 10_000, 100_000, 750_000])
def test_mul_matches_schoolbook(bits):
    rng = np.random.default_rng(bits)
    for _ in range(3):
        a = int.from_bytes(rng.bytes(bits // 8), "little") | (1 << (bits - 2))
        b = int.from_bytes(rng.bytes(bits // 8), "little") | (1 << (bits - 2))
        A, B = BigUint.from_int(a), BigUint.from_int(b)
        fast = bigint.mul_ntt(A, B)
        assert fast.to_int() == a * b
        assert fast.to_int() == oracle.mul_schoolbook(a, b)
        assert fast.bit_len <= A.bit_len + B.bit_len


def test_forced_ntt_equals_direct_path_on_small_operands():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = int(rng.integers(0, 1 << 60))
        b = int(rng.integers(0, 1 << 60))
        A, B = BigUint.from_int(a), BigUint.from_int(b)
        assert bigint.mul_ntt(A, B).to_int() == a * b


def test_mul_commutes():
    rng = np.random.default_rng(4)
    a = int.from_bytes(rng.bytes(5000), "little")
    b = int.from_bytes(rng.bytes(3000), "little")
    A, B = BigUint.from_int(a), BigUint.from_int(b)
    assert bigint.mul_ntt(A, B) == bigint.mul_ntt(B, A)


def test_operand_too_large():
    big = BigUint.from_int(1 << bigint.MAX_OPERAND_BITS,
                           bigint.MAX_OPERAND_BITS + 1)
    with pytest.raises(OperandTooLarge):
        bigint.mul_ntt(big, BigUint.from_int(1))


def test_dot_sums_shifted_row_products():
    rng = np.random.default_rng(5)
    gamma = 3000
    p = (1 << gamma) - 1
    xs = [int.from_bytes(rng.bytes(gamma // 8), "little") for _ in range(40)]
    coeffs = [int.from_bytes(rng.bytes(gamma // 8), "little") for _ in range(43)]
    x = bigint.Words.from_ints(xs, gamma)
    a = bigint.Words.from_ints(coeffs, gamma)
    assert x.ints()[39] == xs[39]
    for offset in (0, 3):
        assert bigint.dot(x, a, offset) == sum(
            v * coeffs[k + offset] for k, v in enumerate(xs)) % p
    with pytest.raises(ValueError):
        bigint.dot(x, a, 4)


@pytest.mark.parametrize("gamma", [7, 61, 127, 521, 19937])
def test_rows_are_read_apart_from_their_neighbours(gamma):
    """All-ones rows between random ones, at offsets r*gamma off the byte grid.

    A reader that let one row's bits into its neighbour's would change
    the ints or the ring products, and the ring products read an
    all-ones row as 0.
    """
    rng = np.random.default_rng(gamma)
    p = (1 << gamma) - 1
    n = 5
    params = pipeline.plan(n * gamma, gamma + 1, gamma)  # A, then b and c
    rows = [p if r % 2 == 0 else int.from_bytes(rng.bytes(gamma // 8 + 1), "little") % p
            for r in range(params.seed_words + 2)]
    bits = np.concatenate([bitio.bits_from_int(v, gamma) for v in rows])

    def defined(count):
        """Rows by the definition: bit i of row r is stream bit r*gamma + i."""
        return [sum(int(b) << i for i, b in enumerate(bits[r * gamma:(r + 1) * gamma]))
                for r in range(count)]

    key = bitio.bytes_from_bits(bits[:params.N])
    with pytest.raises(AllOnesBlock) as info:
        dm3h.split_and_pad(key, params.mersenne, nbits=params.N)
    assert info.value.indices == [1, 3, 5]
    blocks = dm3h.split_and_pad(key, params.mersenne, all_ones_policy="zero",
                                nbits=params.N)
    assert blocks.ints() == defined(n)
    seed = pipeline.seed_from_bits(bits, params)
    assert seed.A.ints() == defined(params.seed_words)
    xs = [0 if v == p else v for v in defined(n)]
    coeffs = [0 if v == p else v for v in defined(params.seed_words)]
    # b (all ones) and c follow A in the same stream and keep their bits
    assert (seed.mh.b, seed.mh.c) == tuple(defined(len(rows))[params.seed_words:])
    for offset in (0, 1):
        assert bigint.dot(blocks, seed.A, offset) == sum(
            x * coeffs[k + offset] for k, x in enumerate(xs)) % p


def engine(size, passes):
    """The engine of B = ``size``, or the MAC for 0, as a run's schedule builds it."""
    return engines.BlockSums(size, passes) if size else engines.Mac()


def zeros(passes, gamma, rows):
    """``passes`` zero spectra at the length a plan of ``rows`` blocks takes."""
    return np.zeros((passes, bigint.transform_shape(gamma, rows)[0]), dtype=np.uint64)


# gamma, rows, passes and the B of the engine the rows take (0: the MAC)
PASS_PLANS = [
    (127, 3, 7, 0),        # more passes than rows
    (127, 20, 14, 0),      # too few rows for the block engine
    (127, 40, 14, 32),     # sections of 19 rows: 19 + 19 + 2, then 19 + 19
    (127, 60, 40, 64),     # two groups of 20 passes, sections of 45 rows
    (127, 50, 48, 64),     # passes near the rows: two groups of 24
    (4253, 130, 7, 0),     # steps of 44 rows
    (4253, 130, 70, 64),   # steps of one 41-row section, whose moved seed rows overlap
]


@pytest.mark.parametrize("gamma,n,passes,size", [
    pytest.param(*plan, id="-".join(map(str, plan[:3]))) for plan in PASS_PLANS])
def test_pass_spectra_sums_each_shifted_range(gamma, n, passes, size):
    rng = np.random.default_rng(n)
    p = (1 << gamma) - 1
    xs = [int.from_bytes(rng.bytes(gamma // 8), "little") for _ in range(n)]
    coeffs = [int.from_bytes(rng.bytes(gamma // 8), "little")
              for _ in range(n + passes - 1)]
    x, a = bigint.Words.from_ints(xs, gamma), bigint.Words.from_ints(coeffs, gamma)
    assert engines.block_size(n, passes) == size
    for start, stop in ((0, n), (1, n - 1)):
        asked = []

        def seed_fill(rows, out):
            asked.extend(rows)
            a.fill(rows, out)

        spectra = bigint.pass_spectra(x, seed_fill, engine(size, passes), zeros(passes, gamma, n),
                                      start, stop)
        # each seed row the range needs is transformed once, in order
        assert asked == list(range(start, stop + passes - 1))
        for q, total in enumerate(bigint.to_ints(spectra, gamma)):
            assert total == sum(
                xs[j] * coeffs[j + q] for j in range(start, stop)) % p
    # out accumulates: a second range adds its sums to the first
    both = bigint.pass_spectra(x, a.fill, engines.Mac(), zeros(passes, gamma, n), 0, 1)
    bigint.pass_spectra(x, a.fill, engine(size, passes), both, 1, n)
    assert bigint.to_ints(both[-1:], gamma)[0] == sum(
        xs[j] * coeffs[j + passes - 1] for j in range(n)) % p


@pytest.mark.parametrize("gamma,n,passes,chosen", [
    (127, 20, 14, 0),      # too few rows: the MAC is picked
    (19937, 40, 14, 32),   # the block engine is picked, 1/B = 2^-5
])
def test_engines_give_identical_spectra(gamma, n, passes, chosen):
    # each plan forced through both engines: the (P, L) spectra are the
    # same canonical arrays, not only the same sums after to_ints
    rng = np.random.default_rng(gamma + n)
    p = (1 << gamma) - 1
    xs, coeffs = ([int.from_bytes(rng.bytes(gamma // 8 + 1), "little") % p
                   for _ in range(k)] for k in (n, n + passes - 1))
    x, a = bigint.Words.from_ints(xs, gamma), bigint.Words.from_ints(coeffs, gamma)
    assert engines.block_size(n, passes) == chosen
    spectra = {}
    for size in (0, 32):
        spectra[size] = bigint.pass_spectra(x, a.fill, engine(size, passes),
                                            zeros(passes, gamma, n))
    assert spectra[0].shape == (passes, bigint.transform_shape(gamma, n)[0])
    assert np.array_equal(spectra[0], spectra[32])
    assert bigint.to_ints(spectra[32], gamma) == [
        sum(v * coeffs[k + q] for k, v in enumerate(xs)) % p for q in range(passes)]


def test_transform_shape_and_row_limit():
    assert bigint.transform_shape(7, 1) == (16, 1)
    assert bigint.transform_shape(521, 1) == (32, 17)
    # headline-shape's n = 133 blocks
    assert bigint.transform_shape(19937, 133) == (1024, 20)
    # the headline's gamma: L = 32768 takes 24-bit digits and sums one row,
    # L = 40960 19-bit digits and 819 rows
    assert bigint.transform_shape(756839, 1) == (32768, 24)
    assert bigint.transform_shape(756839, 133) == (40960, 19)
    assert bigint.transform_shape(756839, 820) == (65536, 12)
    assert bigint.transform_shape(786432, 2) == (40960, 20)
    # no length sums even one product of 46-bit digits exactly
    assert bigint.max_rows(2976221) == 0
    with pytest.raises(InvalidGamma):
        bigint.transform_shape(2976221, 1)
    # n products of coefficients below 2L(2^b - 1)^2 stay below p
    assert bigint.max_rows(756839) == 8392705
    assert 8392705 * 2 * 65536 * 4095 ** 2 < P64 <= 8392706 * 2 * 65536 * 4095 ** 2
    with pytest.raises(TooManyBlocks):
        bigint.transform_shape(756839, 8392706)


@pytest.mark.parametrize("gamma,length,width", [
    (521, 32, 17), (19937, 1024, 20), (44497, 2048, 22), (756839, 40960, 19),
    (756839, 65536, 12), (859433, 40960, 21), (859433, 65536, 14),
    (1257787, 65536, 20), (1398269, 65536, 22)])
def test_row_limit_picks_the_next_length(gamma, length, width):
    # with every digit at 2^b - 1, each coefficient of a row product is
    # below 2L(2^b - 1)^2: ``limit`` rows of them stay below p, one more
    # may not, and that row moves the shape to the next supported length
    worst = 2 * length * ((1 << width) - 1) ** 2
    limit = (P64 - 1) // worst
    assert limit * worst < P64 <= (limit + 1) * worst
    assert bigint.transform_shape(gamma, limit) == (length, width)
    if length < ntt.SUPPORTED_LENGTHS[-1]:
        following = ntt.SUPPORTED_LENGTHS[ntt.SUPPORTED_LENGTHS.index(length) + 1]
        assert bigint.transform_shape(gamma, limit + 1)[0] == following
    else:
        with pytest.raises(TooManyBlocks):
            bigint.transform_shape(gamma, limit + 1)


def test_widest_shape_sums_two_rows():
    # 23-bit digits at L = 65536: two worst-case rows stay below p, three
    # do not, and a gamma one bit wider has no exact product at all
    gamma, worst = 23 * 65536, 2 * 65536 * ((1 << 23) - 1) ** 2
    assert 2 * worst < P64 <= 3 * worst
    assert bigint.transform_shape(gamma, 2) == (65536, 23)
    assert bigint.max_rows(gamma) == 2
    with pytest.raises(InvalidGamma):
        bigint.transform_shape(gamma + 1, 1)
    # a = p - 1 fills every digit but the lowest bit; modulo p, a = -1
    p = (1 << gamma) - 1
    b = int.from_bytes(np.random.default_rng(23).bytes(gamma // 8), "little")
    a = bigint.Words.from_ints([p - 1, p - 1], gamma)
    assert bigint.dot(a[:1], bigint.Words.from_ints([b], gamma)) == p - b
    # (p - 1)^2 + (p - 1) * b = 1 - b
    assert bigint.dot(a, bigint.Words.from_ints([p - 1, b], gamma)) == (1 - b) % p


@pytest.mark.parametrize("length", ntt.SUPPORTED_LENGTHS)
def test_theta_is_a_root_of_two(length):
    assert pow(bigint._theta(length), length, P64) == 2


def digit_boundary_bits(gamma):
    """Bits e_j - 1 and e_j for every digit start e_j = ceil(j*gamma/L).

    L is the length of a pass over up to 6 rows, as the test below draws.
    """
    length, _ = bigint.transform_shape(gamma, 6)
    starts = {-(-j * gamma // length) for j in range(1, length)}
    return sorted({e + d for e in starts for d in (-1, 0) if 0 <= e + d < gamma})


def ring_values(gamma):
    p = (1 << gamma) - 1
    return st.one_of(
        st.integers(0, p),
        st.sampled_from([0, 1, p - 1, p]),
        st.sampled_from(digit_boundary_bits(gamma)).map(lambda i: 1 << i))


@pytest.mark.parametrize("gamma", [7, 31, 127, 521])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dot_matches_plain_ints(gamma, data):
    p = (1 << gamma) - 1
    n = data.draw(st.integers(1, 6))
    extra = data.draw(st.integers(0, 4))
    xs = data.draw(st.lists(ring_values(gamma), min_size=n, max_size=n))
    coeffs = data.draw(st.lists(ring_values(gamma), min_size=n + extra,
                                max_size=n + extra))
    x = bigint.Words.from_ints(xs, gamma)
    a = bigint.Words.from_ints(coeffs, gamma)
    for offset in range(extra + 1):
        assert bigint.dot(x, a, offset) == sum(
            v * coeffs[k + offset] for k, v in enumerate(xs)) % p


@pytest.mark.parametrize("gamma", [19937, 756839])
def test_dot_three_rows_of_p_minus_one(gamma):
    # every digit at its maximum: the largest coefficients a pass sees
    rng = np.random.default_rng(gamma)
    p = (1 << gamma) - 1
    xs = [p - 1, int.from_bytes(rng.bytes(gamma // 8), "little"), p - 1]
    coeffs = [p - 1] * 3 + [int.from_bytes(rng.bytes(gamma // 8), "little")]
    x = bigint.Words.from_ints(xs, gamma)
    a = bigint.Words.from_ints(coeffs, gamma)
    for offset in (0, 1):
        assert bigint.dot(x, a, offset) == sum(
            v * coeffs[k + offset] for k, v in enumerate(xs)) % p


@pytest.mark.parametrize("gamma", [7, 127, 19937])
def test_dot_and_to_ints_return_canonical_residues(gamma):
    # residues lie in [0, p - 1]: a sum of exactly p reads 0, not p
    rng = np.random.default_rng(gamma)
    p = (1 << gamma) - 1
    ones = bigint.Words.from_ints([1, 1], gamma)
    assert bigint.dot(ones, bigint.Words.from_ints([1, p - 1], gamma)) == 0
    xs = [int.from_bytes(rng.bytes(gamma // 8 + 1), "little") % p for _ in range(6)]
    coeffs = [p - 1] * 3 + [int.from_bytes(rng.bytes(gamma // 8 + 1), "little") % p
                            for _ in range(4)]
    x, a = bigint.Words.from_ints(xs, gamma), bigint.Words.from_ints(coeffs, gamma)
    expected = [sum(v * coeffs[k + q] for k, v in enumerate(xs)) % p for q in (0, 1)]
    assert [bigint.dot(x, a, q) for q in (0, 1)] == expected
    assert bigint.to_ints(bigint.pass_spectra(x, a.fill, engines.Mac(), zeros(2, gamma, 6)),
                          gamma) == expected
    spectra = bigint.pass_spectra(ones, bigint.Words.from_ints([1, p - 1, 1], gamma).fill,
                                  engines.Mac(), zeros(2, gamma, 2))
    assert bigint.to_ints(spectra, gamma) == [0, 0]


def test_dot_checks_its_operands(monkeypatch):
    x = bigint.Words.from_ints([1, 2], 7)
    with pytest.raises(ValueError):
        bigint.dot(x, bigint.Words.from_ints([1, 2], 31))
    with pytest.raises(ValueError):
        bigint.Words.from_ints([1 << 7], 7)
    # a negative offset and a row slice of another step are refused, not
    # read as some other rows
    seed = bigint.Words.from_ints(range(10), 7)
    for offset in (-5, -1):
        with pytest.raises(ValueError, match="negative"):
            bigint.dot(x, seed, offset)
    for rows in (slice(None, None, 2), slice(None, None, -1), slice(1, 8, 3)):
        with pytest.raises(ValueError, match="step"):
            seed[rows]
    assert seed[-3:].ints() == [7, 8, 9]
    monkeypatch.setattr(bigint, "_row_limit", lambda length, gamma: 1)
    with pytest.raises(TooManyBlocks):
        bigint.dot(x, x)


def test_short_last_step_transforms_only_its_sections(monkeypatch):
    # a step of 21 key rows in a window of 4 sections of T = 19: the block
    # engine runs 2 sections and gives the MAC's sums, though every window
    # row past the step holds 2^64 - 1, a value no field element has
    passes, length = 14, 32
    engine = engines.BlockSums(32, passes)
    t = engine.section
    rows, window = t + 2, 4 * t
    rng = np.random.default_rng(21)
    keys = rng.integers(0, P64, size=(window, length), dtype=np.uint64)
    seeds = rng.integers(0, P64, size=(window + passes - 1, length), dtype=np.uint64)
    expected = np.zeros((passes, length), dtype=np.uint64)
    engines.Mac().add(keys, seeds, rows, expected)
    keys[rows:] = seeds[rows + passes - 1:] = np.uint64((1 << 64) - 1)
    sections, mac = [], engines.mac

    def counted(x, *args):
        sections.append(len(x))
        mac(x, *args)

    monkeypatch.setattr(engines, "mac", counted)
    out = np.zeros((passes, length), dtype=np.uint64)
    engine.add(keys, seeds, rows, out)
    engine.finish(out)
    assert set(sections) == {2}
    assert np.array_equal(out, expected)


def test_tables_are_built_once_and_rebuilt_once_after_a_clear(monkeypatch):
    # each twiddle table and digit layout is built from goldilocks.powers
    # on first use and kept: a repeat call builds none, and after either
    # module's cache clear the next call builds that module's tables
    # exactly once.  The length-256 transform's last stage, a radix-16
    # stage with unit twiddles, builds no table
    def both_ways(base, size):
        return [(base, size), (pow(base, -1, P64), size)]

    gamma, length = 127, 256
    twiddles = sorted(both_ways(gl.root_of_unity(length), length))
    weights = sorted(both_ways(bigint._theta(length), length))
    v = np.arange(length, dtype=np.uint64)
    x = bigint.Words.from_ints([3, 5, 7], gamma)
    calls = []

    def counted(base, count, real=gl.powers):
        calls.append((base, count))
        return real(base, count)

    def built():
        calls.clear()
        ntt.ntt_forward(v)
        ntt.ntt_inverse(v)
        x.fill(range(len(x)), np.empty((len(x), length), dtype=np.uint64))
        return sorted(calls)

    monkeypatch.setattr(gl, "powers", counted)
    ntt._testing_clear_cache()
    bigint._testing_clear_cache()
    assert built() == sorted(twiddles + weights)
    assert built() == []
    ntt._testing_clear_cache()
    assert built() == twiddles
    bigint._testing_clear_cache()
    assert built() == weights
    assert built() == []

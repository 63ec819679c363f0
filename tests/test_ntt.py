import sys
import tracemalloc

import numpy as np
import pytest

from qpa import goldilocks as gl
from qpa import bigint, ntt, oracle
from qpa.errors import LengthMismatch, UnsupportedLength

P = gl.P64


def rand_vec(rng, length, batch=None):
    size = length if batch is None else (batch, length)
    return rng.integers(0, P, size=size, dtype=np.uint64)


def test_zero_vector_maps_to_zero():
    z = np.zeros(16, dtype=np.uint64)
    assert np.array_equal(ntt.ntt_forward(z), z)


def test_delta_maps_to_all_ones():
    delta = np.zeros(16, dtype=np.uint64)
    delta[0] = 1
    assert np.array_equal(ntt.ntt_forward(delta), np.ones(16, dtype=np.uint64))
    assert np.array_equal(ntt.ntt_inverse(np.ones(16, dtype=np.uint64)), delta)


def test_all_ones_transform():
    ones = np.ones(16, dtype=np.uint64)
    expected = np.zeros(16, dtype=np.uint64)
    expected[0] = 16
    assert np.array_equal(ntt.ntt_forward(ones), expected)


# the last stage has radix 16 at 16 and 256, and radix 2, 4 and 8 at 32,
# 64 and 128; 1024 ends in a radix-4 stage after two radix-16 stages.  80,
# 160, 320 and 640 run the 5-point stage before the same stages at 16 to
# 128.  The naive oracle takes seconds a row at 1024
FIVE_POINT_LENGTHS = [80, 160, 320, 640]


@pytest.mark.parametrize("length", [16, 32, 64, 128, 256, 1024] + FIVE_POINT_LENGTHS)
def test_forward_matches_naive(length):
    rng = np.random.default_rng(length)
    for _ in range(3 if length <= 256 else 1):
        v = rand_vec(rng, length)
        assert np.array_equal(ntt.ntt_forward(v), oracle.naive_ntt(v))


@pytest.mark.parametrize("length", [16, 32, 64, 128, 256] + FIVE_POINT_LENGTHS)
def test_inverse_matches_naive(length):
    rng = np.random.default_rng(length + 1)
    for _ in range(3 if length <= 256 else 1):
        X = rand_vec(rng, length)
        assert np.array_equal(ntt.ntt_inverse(X), oracle.naive_ntt_inverse(X))


@pytest.mark.parametrize("length", ntt.SUPPORTED_LENGTHS)
def test_round_trip(length):
    rng = np.random.default_rng(length + 2)
    v = rand_vec(rng, length, batch=4)
    assert np.array_equal(ntt.ntt_inverse(ntt.ntt_forward(v)), v)


def naive_cyclic_convolution(a, b):
    n = len(a)
    out = []
    for k in range(n):
        out.append(sum(int(a[i]) * int(b[(k - i) % n]) for i in range(n)) % P)
    return np.array(out, dtype=np.uint64)


@pytest.mark.parametrize("length", [16, 256] + FIVE_POINT_LENGTHS)
def test_convolution_theorem(length):
    rng = np.random.default_rng(length + 3)
    a = rand_vec(rng, length)
    b = rand_vec(rng, length)
    fast = ntt.ntt_inverse(gl.v_mul(ntt.ntt_forward(a), ntt.ntt_forward(b)))
    assert np.array_equal(fast, naive_cyclic_convolution(a, b))


def test_five_point_zero_bin_factor_is_a_shift():
    # e's bin 0 is the sum of the four primitive fifth roots, -1, so _dft5
    # takes its factor -1/4 as the shift by 94 instead of reading it
    for inverse in (False, True):
        lo, hi = ntt._rader_products(inverse)
        assert int(lo[0]) + (int(hi[0]) << 32) == pow(2, 94, P) == (-pow(4, -1, P)) % P


def test_pointwise_identities():
    rng = np.random.default_rng(5)
    v = rand_vec(rng, 16)
    assert np.array_equal(gl.v_mul(v, np.ones(16, dtype=np.uint64)), v)
    assert np.array_equal(gl.v_mul(v, np.zeros(16, dtype=np.uint64)),
                          np.zeros(16, dtype=np.uint64))


def test_linearity():
    rng = np.random.default_rng(6)
    a = rand_vec(rng, 256)
    b = rand_vec(rng, 256)
    alpha = np.uint64(int(rng.integers(0, P, dtype=np.uint64)))
    beta = np.uint64(int(rng.integers(0, P, dtype=np.uint64)))
    lhs = ntt.ntt_forward(gl.v_add(gl.v_mul(a, alpha), gl.v_mul(b, beta)))
    rhs = gl.v_add(gl.v_mul(ntt.ntt_forward(a), alpha),
                   gl.v_mul(ntt.ntt_forward(b), beta))
    assert np.array_equal(lhs, rhs)


def test_batch_matches_per_row():
    rng = np.random.default_rng(10)
    # one chunk; two chunks of 2^18 values, the second ragged, at two lengths
    for rows, length in ((7, 256), (1030, 256), (70, 4096), (300, 1024), (8200, 32),
                         (7, 40960)):
        batch = rand_vec(rng, length, batch=rows)
        stacked = ntt.ntt_forward(batch)
        for row_in, row_out in zip(batch, stacked):
            assert np.array_equal(ntt.ntt_forward(row_in), row_out)


def test_unsupported_length():
    with pytest.raises(UnsupportedLength):
        ntt.ntt_forward(np.zeros(48, dtype=np.uint64))
    with pytest.raises(UnsupportedLength):
        ntt.ntt_inverse(np.zeros(17, dtype=np.uint64))
    # five times a power of two only from 80 to 40960
    for length in (40, 81920):
        with pytest.raises(UnsupportedLength):
            ntt.ntt_forward(np.zeros(length, dtype=np.uint64))


# part of a chunk, and full 2^18-value chunks at production lengths, two
# of them with a last stage of radix 4 or 2; 7 rows of 40960 are a full
# chunk of 6 and a second of one, each gathered by the prime-factor maps
@pytest.mark.parametrize("shape", [(16, 4096), (1, 65536), (4, 65536), (64, 4096),
                                   (256, 1024), (8192, 32), (7, 40960)])
def test_peak_memory_stays_near_the_input(shape):
    # numpy reports its buffers to tracemalloc; the transform keeps two
    # chunk buffers, a spare row, the output and one set of kernel
    # temporaries of at most 16384 values
    v = rand_vec(np.random.default_rng(12), shape[1], batch=shape[0])
    ntt.ntt_forward(v)  # build the twiddle tables outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ntt.ntt_forward(v)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8 * v.nbytes


@pytest.mark.parametrize("length", [32, 1024, 2048, 65536, 40960])
def test_kernel_calls_stay_within_a_piece(length, monkeypatch):
    # a last stage of radix 2, 4 or 8 has rows longer than a piece, and a
    # 5-point stage columns longer than one; they must run on pieces, or
    # the kernels would spill their temporaries.  A full chunk and a
    # second of one row, counted from cold, as the twiddle tables and
    # digit weights are built from powers of a root on first use, within
    # pieces too
    v = rand_vec(np.random.default_rng(15), length, batch=ntt.batch_rows(length) + 1)
    x = bigint.Words.from_ints([3, 5], 127)
    ntt._testing_clear_cache()
    bigint._testing_clear_cache()
    sizes = []
    for name in ("v_add", "v_sub", "v_shl", "v_mul_halves"):
        def sized(x, *args, real=getattr(gl, name), **kwargs):
            sizes.append(np.size(x))
            return real(x, *args, **kwargs)
        monkeypatch.setattr(gl, name, sized)
    assert np.array_equal(ntt.ntt_inverse(ntt.ntt_forward(v)), v)
    x.fill(range(2), np.empty((2, length), dtype=np.uint64))
    assert max(sizes) == gl.PIECE


@pytest.mark.skipif(sys.platform != "linux", reason="minor faults as Linux counts them")
@pytest.mark.parametrize("in_place", [False, True])
def test_full_chunk_faults_no_memory_in(in_place):
    # the allocator serves the first call's buffers with fresh mappings
    # and the second from a heap it grows once; from then on the buffers
    # are reused, and the kernels allocate nothing
    import resource
    v = rand_vec(np.random.default_rng(13), 65536, batch=4)
    out = v if in_place else None
    for _ in range(2):
        ntt.ntt_forward(v, out=out)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    ntt.ntt_forward(v, out=out)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 64


def test_in_place_matches_out_of_place():
    rng = np.random.default_rng(14)
    for length, rows in ((4096, 70), (65536, 1)):
        v = rand_vec(rng, length, batch=rows)
        expected = ntt.ntt_forward(v)
        w = v.copy()
        assert ntt.ntt_forward(w, out=w) is w
        assert np.array_equal(w, expected)
    with pytest.raises(LengthMismatch):
        ntt.ntt_forward(v, out=np.empty(65536 * 2, dtype=np.uint64))


def coefficient(row, root, k):
    """sum_n row[n] * root^(n*k) mod p, on Python ints."""
    step, power, total = pow(root, k, P), 1, 0
    for x in row:
        total += x * power
        power = power * step % P
    return total % P


# two rows at lengths with a last radix-16 stage, and full chunks whose
# last stage runs on several pieces: radix 4 at 1024, radix 8 at 2048 and
# 32768; 300 rows at 1024 and 7 at 40960 leave a ragged second chunk
@pytest.mark.parametrize("length, rows", [(4096, 2), (65536, 2), (1024, 256),
                                          (2048, 128), (32768, 8), (1024, 300),
                                          (40960, 7)],
                         ids=["4096", "65536", "1024x256", "2048x128", "32768x8",
                              "1024x300", "40960x7"])
def test_large_lengths_match_the_definition(length, rows):
    # a few coefficients of each direction on the first row, random, and
    # the last, of edge values; the naive oracle is too slow at these lengths
    rng = np.random.default_rng(length + rows)
    edges = np.array([0, 1, (1 << 32) - 1, 1 << 32, 1 << 63, P - 2, P - 1],
                     dtype=np.uint64)
    batch = rand_vec(rng, length, batch=rows)
    batch[-1] = rng.choice(edges, size=length)
    w = gl.root_of_unity(length)
    w_inv, scale = pow(w, -1, P), pow(length, -1, P)
    forward, inverse = ntt.ntt_forward(batch), ntt.ntt_inverse(batch)
    for i in (0, -1):
        row, fwd, inv = batch[i].tolist(), forward[i].tolist(), inverse[i].tolist()
        for k in (0, 1, length // 2 + 3, length - 1):
            assert fwd[k] == coefficient(row, w, k)
            assert inv[k] == coefficient(row, w_inv, k) * scale % P

import numpy as np
import pytest

from qpa import oracle, pipeline
from qpa.errors import AllOnesBlock, LengthMismatch, TooLargeToEnumerate


def test_schoolbook_trivial():
    assert oracle.mul_schoolbook(0, 99) == 0
    assert oracle.mul_schoolbook(7, 9) == 63


def test_schoolbook_matches_python_ints():
    rng = np.random.default_rng(0)
    for nbytes in (4, 40, 400):
        a = int.from_bytes(rng.bytes(nbytes), "little")
        b = int.from_bytes(rng.bytes(nbytes), "little")
        assert oracle.mul_schoolbook(a, b) == a * b


def test_naive_ntt_delta_and_ones():
    delta = np.zeros(16, dtype=np.uint64)
    delta[0] = 1
    assert oracle.naive_ntt(delta).tolist() == [1] * 16
    ones = np.ones(16, dtype=np.uint64)
    assert oracle.naive_ntt(ones).tolist() == [16] + [0] * 15


def test_naive_ntt_round_trip():
    rng = np.random.default_rng(1)
    v = rng.integers(0, 1 << 30, size=16).astype(np.uint64)
    assert np.array_equal(oracle.naive_ntt_inverse(oracle.naive_ntt(v)), v)


def test_naive_distill_tiny():
    # gamma = 3: blocks (1, 2), A = (3, 4, 5), m = 2, no tail
    params = pipeline.plan(6, 6, 3)
    assert (params.n, params.m, params.l_prime) == (2, 2, 0)
    seed_bits = np.array([1, 1, 0, 0, 0, 1, 1, 0, 1], dtype=np.uint8)
    seed = pipeline.seed_from_bits(seed_bits, params)
    x = np.array([1, 0, 0, 0, 1, 0], dtype=np.uint8)
    out = oracle.naive_distill(x, seed, params)
    # f(1) = 3*1 + 4*2 = 4 mod 7, f(2) = 4*1 + 5*2 = 0 mod 7
    assert out.tolist() == [0, 0, 1, 0, 0, 0]


def test_naive_distill_rejects_all_ones():
    params = pipeline.plan(6, 6, 3)
    seed = pipeline.seed_from_bits(np.zeros(9, dtype=np.uint8), params)
    with pytest.raises(AllOnesBlock) as info:
        oracle.naive_distill(np.array([0, 0, 0, 1, 1, 1], dtype=np.uint8),
                             seed, params)
    assert info.value.indices == [2]


def test_naive_distill_checks_input_length():
    params = pipeline.plan(6, 6, 3)
    seed = pipeline.seed_from_bits(np.zeros(9, dtype=np.uint8), params)
    for x in (np.zeros(5, dtype=np.uint8), np.zeros(7, dtype=np.uint8)):
        with pytest.raises(LengthMismatch):
            oracle.naive_distill(x, seed, params)


@pytest.mark.parametrize("gamma", [3, 127, 19937])
def test_pass_sums_fold_to_their_residue(gamma):
    # the oracle's fold against %, on the edges (p reads as 0) and on
    # random sums wider than 2 * gamma, as a pass of many rows makes
    p = (1 << gamma) - 1
    rng = np.random.default_rng(gamma)
    sums = [0, 1, p - 1, p, p + 1, 2 * p, 7 * p, p * p, p << gamma]
    sums += [int.from_bytes(rng.bytes(-(-width // 8)), "little")
             for width in (2 * gamma + 1, 2 * gamma + 8, 5 * gamma)]
    assert any(v.bit_length() > 2 * gamma for v in sums[-3:])
    for v in sums:
        assert oracle._mod_mersenne(v, gamma) == v % p


def test_census_examples_and_limits():
    assert oracle.collision_census(3, 3, 1, (1, 2, 3), (1, 2, 4)) <= 49
    with pytest.raises(ValueError):
        oracle.collision_census(3, 2, 2, (1, 2), (1, 2))
    with pytest.raises(TooLargeToEnumerate):
        oracle.collision_census(7, 4, 2, (1,) * 4, (2,) * 4)

import numpy as np
import pytest

from qpa import bitio, dm3h, oracle, pipeline
from qpa.bigint import Words
from qpa.errors import AllOnesBlock, SeedTooShort
from qpa.mersenne import MersenneParams


def rand_values(rng, count, p):
    return [int.from_bytes(rng.bytes((p.bit_length() + 7) // 8 + 2), "little") % p
            for _ in range(count)]


def test_split_zero_padding():
    params = MersenneParams(7)
    bv = dm3h.split_and_pad(np.zeros(14, dtype=np.uint8), params)
    assert bv.ints() == [0, 0]
    # padding goes at the most-significant end of the last block
    bv = dm3h.split_and_pad(np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8),
                            params)
    assert bv.ints() == [1, 1]


def test_split_hand_example():
    # 10-bit stream of 0x2A3, LSB first
    params = MersenneParams(7)
    bits = np.array([1, 1, 0, 0, 0, 1, 0, 1, 0, 1], dtype=np.uint8)
    assert dm3h.split_and_pad(bits, params).ints() == [35, 5]


def test_all_ones_rejected_with_indices():
    params = MersenneParams(7)
    with pytest.raises(AllOnesBlock) as info:
        dm3h.split_and_pad(np.ones(10, dtype=np.uint8), params)
    assert info.value.indices == [1]

    bits = np.concatenate([np.zeros(7, dtype=np.uint8),
                           np.ones(14, dtype=np.uint8)])
    with pytest.raises(AllOnesBlock) as info:
        dm3h.split_and_pad(bits, params)
    assert info.value.indices == [2, 3]


def test_all_ones_zero_policy(caplog):
    # blocks 1 and 3 of four are all ones: the rows keep their bits, and
    # the key is that of the same input with those blocks zeroed
    params = pipeline.plan(28, 17, 7)
    rng = np.random.default_rng(7)
    x = rng.integers(0, 2, size=params.N, dtype=np.uint8)
    x[6::7] = 0   # no other block is all ones
    x[:7] = x[14:21] = 1
    zeroed = x.copy()
    zeroed[:7] = zeroed[14:21] = 0
    bv = dm3h.split_and_pad(x, params.mersenne, all_ones_policy="zero")
    assert bv.ints()[0] == bv.ints()[2] == 127
    assert "substituting zero for all-ones blocks [1, 3]" in caplog.text
    seed = pipeline.seed_from_bits(
        rng.integers(0, 2, size=pipeline.required_seed_bits(params), dtype=np.uint8),
        params)
    expected = oracle.naive_distill(zeroed, seed, params)
    assert np.array_equal(pipeline.distill(zeroed, seed, params), expected)
    assert np.array_equal(
        pipeline.distill(x, seed, params, all_ones_policy="zero"), expected)


def test_unknown_all_ones_policy_is_rejected():
    # an all-ones block under an unknown policy neither raises AllOnesBlock
    # nor is substituted: the policy is refused before the key is read
    params = pipeline.plan(14, 7, 7)
    seed = pipeline.seed_from_bits(
        np.zeros(pipeline.required_seed_bits(params), dtype=np.uint8), params)
    for policy in ("zeros", "Error", ""):
        with pytest.raises(ValueError, match="policy") as info:
            dm3h.split_and_pad(np.ones(14, dtype=np.uint8), params.mersenne,
                               all_ones_policy=policy)
        assert not isinstance(info.value, AllOnesBlock)
        with pytest.raises(ValueError, match="policy"):
            pipeline.distill(np.ones(14, dtype=np.uint8), seed, params,
                             all_ones_policy=policy)
        # refused before the key is read, so even an empty key is not looked at
        with pytest.raises(ValueError, match="policy"):
            dm3h.split_and_pad(b"", params.mersenne, all_ones_policy=policy)


def test_mmh_pass_hand_examples():
    params = MersenneParams(3)
    x = Words.from_ints([1, 2], params.gamma)
    seed = Words.from_ints([3, 4, 5], params.gamma)
    assert dm3h.mmh_pass(x, seed, 1).value == 4   # 3*1 + 4*2 = 11 = 4 mod 7
    assert dm3h.mmh_pass(x, seed, 2).value == 0   # 4*1 + 5*2 = 14 = 0 mod 7


def test_zero_input_hashes_to_zero():
    params = MersenneParams(7)
    x = Words.from_ints([0, 0, 0], params.gamma)
    seed = Words.from_ints([1, 2, 3, 4, 5], params.gamma)
    for i in range(1, 4):
        assert dm3h.mmh_pass(x, seed, i).value == 0


def test_seed_too_short():
    params = MersenneParams(3)
    x = Words.from_ints([1, 2], params.gamma)
    seed = Words.from_ints([3, 4, 5], params.gamma)
    with pytest.raises(SeedTooShort):
        dm3h.mmh_pass(x, seed, 3)
    with pytest.raises(ValueError):
        dm3h.mmh_pass(x, seed, 0)


def test_m_one_reduces_to_plain_mmh():
    params = MersenneParams(7)
    rng = np.random.default_rng(0)
    x = Words.from_ints(rand_values(rng, 4, params.p), params.gamma)
    seed = Words.from_ints(rand_values(rng, 4, params.p), params.gamma)
    expected = sum(a * b for a, b in zip(seed.ints(), x.ints())) % params.p
    assert dm3h.mmh_pass(x, seed, 1).value == expected


@pytest.mark.parametrize("gamma", [7, 127])
def test_pass_additivity_and_scaling(gamma):
    params = MersenneParams(gamma)
    p = params.p
    rng = np.random.default_rng(gamma)
    n, m = 5, 3
    for _ in range(5):
        xs = rand_values(rng, n, p)
        ys = rand_values(rng, n, p)
        coeffs = rand_values(rng, n + m - 1, p)
        c = rand_values(rng, 1, p)[0]
        seed = Words.from_ints(coeffs, params.gamma)
        x = Words.from_ints(xs, params.gamma)
        y = Words.from_ints(ys, params.gamma)
        both = Words.from_ints(
            [(a + b) % p for a, b in zip(xs, ys)], params.gamma)
        scaled = Words.from_ints([(c * v) % p for v in xs], params.gamma)
        for i in range(1, m + 1):
            fx = dm3h.mmh_pass(x, seed, i)
            fy = dm3h.mmh_pass(y, seed, i)
            assert dm3h.mmh_pass(both, seed, i).value == (fx.value + fy.value) % p
            assert dm3h.mmh_pass(scaled, seed, i).value == (c * fx.value) % p


def test_pass_order_independence():
    params = MersenneParams(7)
    rng = np.random.default_rng(1)
    x = Words.from_ints(rand_values(rng, 4, params.p), params.gamma)
    seed = Words.from_ints(rand_values(rng, 7, params.p), params.gamma)
    forward = [dm3h.mmh_pass(x, seed, i).value for i in (1, 2, 3, 4)]
    backward = [dm3h.mmh_pass(x, seed, i).value for i in (4, 3, 2, 1)]
    assert forward == backward[::-1]


def test_seed_ingestion_maps_all_ones_to_zero():
    # a_1 is all ones: the seed keeps its bits, and every key is that of
    # the seed with a_1 = 0
    params = pipeline.plan(14, 14, 7)
    assert params.seed_words == 3
    seed = pipeline.seed_from_bits(bitio.bits_from_int(127 | 126 << 7, 21), params)
    zeroed = pipeline.seed_from_bits(bitio.bits_from_int(126 << 7, 21), params)
    assert seed.A.ints() == [127, 126, 0]
    assert zeroed.A.ints() == [0, 126, 0]
    for x1, x2 in ((1, 0), (0, 1), (5, 3), (126, 126)):
        x = bitio.bits_from_int(x1 | x2 << 7, 14)
        expected = oracle.naive_distill(x, zeroed, params)
        # y_1 = 126 * x2 and y_2 = 126 * x1 (mod 127)
        assert bitio.bytes_from_bits(expected) == (
            (126 * x2 % 127) | (126 * x1 % 127) << 7).to_bytes(2, "little")
        assert np.array_equal(pipeline.distill(x, seed, params), expected)


def test_universality_bound_small():
    rng = np.random.default_rng(2)
    for _ in range(5):
        x1 = tuple(int(v) for v in rng.integers(0, 7, size=2))
        x2 = tuple(int(v) for v in rng.integers(0, 7, size=2))
        if x1 == x2:
            continue
        assert oracle.collision_census(3, 2, 2, x1, x2) <= 7

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpa import bigint, bitio, oracle
from qpa.bigint import BigUint
from qpa.errors import OperandTooLarge

bit_arrays = st.lists(st.integers(0, 1), min_size=0, max_size=200).map(
    lambda v: np.array(v, dtype=np.uint8))


# bit i of a stream is bit i of the integer (bitio); the limb layout
# below it belongs to bigint

def test_from_bit_stream_examples():
    assert bitio.int_from_bits(np.zeros(0, dtype=np.uint8)) == 0

    one = bitio.int_from_bits(np.array([1] + [0] * 24, dtype=np.uint8))
    assert one == 1
    assert BigUint.from_int(one, 25).limbs.tolist() == [1, 0]

    bit24 = np.zeros(25, dtype=np.uint8)
    bit24[24] = 1
    x = bitio.int_from_bits(bit24)
    assert x == 1 << 24
    assert BigUint.from_int(x, 25).limbs.tolist() == [0, 1]


def test_to_bit_stream_examples():
    assert bitio.bits_from_int(0, 8).tolist() == [0] * 8
    assert bitio.bits_from_int(1 << 24, 25).tolist() == [0] * 24 + [1]
    with pytest.raises(ValueError):
        bitio.bits_from_int(256, 8)


@given(bit_arrays)
def test_bit_stream_round_trip(bits):
    out = bitio.bits_from_int(bitio.int_from_bits(bits), len(bits))
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
        assert fast == oracle.mul_schoolbook(A, B)
        assert fast.bit_len <= A.bit_len + B.bit_len


def test_forced_ntt_equals_direct_path_on_small_operands():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = int(rng.integers(0, 1 << 60))
        b = int(rng.integers(0, 1 << 60))
        A, B = BigUint.from_int(a), BigUint.from_int(b)
        assert bigint.mul_ntt(A, B, force_ntt=True).to_int() == a * b
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
    bits = 3000
    xs = [int.from_bytes(rng.bytes(bits // 8), "little") for _ in range(40)]
    coeffs = [int.from_bytes(rng.bytes(bits // 8), "little") for _ in range(43)]
    x = bigint.Words.from_ints(xs, bits)
    a = bigint.Words.from_ints(coeffs, bits)
    assert x.value(39) == xs[39]
    for offset in (0, 3):
        assert bigint.dot(x, a, offset) == sum(
            v * coeffs[k + offset] for k, v in enumerate(xs))
    with pytest.raises(ValueError):
        bigint.dot(x, a, 4)

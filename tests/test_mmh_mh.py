import numpy as np
import pytest

from qpa import bitio, mmh_mh
from qpa.bigint import Words
from qpa.dm3h import mmh_pass
from qpa.errors import InvalidOutputLen
from qpa.mersenne import MersenneParams, MersenneResidue
from qpa.mmh_mh import MhSeed


def as_int(bits):
    """The integer a little-endian bit array encodes."""
    return int.from_bytes(bitio.bytes_from_bits(bits), "little")


def test_core_definition_example():
    # gamma = 7, l' = 3: (3*100 + 1) mod 128 = 45, floor(45/16) = 2
    y = MersenneResidue(100, MersenneParams(7))
    assert as_int(mmh_mh.mh_hash(y, MhSeed(b=3, c=1), 3)) == 2


def test_identity_affine_map_keeps_top_bits():
    params = MersenneParams(7)
    y = MersenneResidue(0b1011010, params)
    bits = mmh_mh.mh_hash(y, MhSeed(b=1, c=0), 3)
    assert as_int(bits) == 0b101


def test_zero_maps_to_zero():
    params = MersenneParams(7)
    for b in (1, 3, 97):
        bits = mmh_mh.mh_hash(MersenneResidue(0, params), MhSeed(b=b, c=0), 4)
        assert bits.tolist() == [0, 0, 0, 0]


def test_even_b_rejected():
    with pytest.raises(ValueError):
        MhSeed(b=2, c=0)


def test_output_length_validation():
    params = MersenneParams(7)
    y = MersenneResidue(5, params)
    seed = MhSeed(b=3, c=1)
    for bad in (0, 7, 8):
        with pytest.raises(InvalidOutputLen):
            mmh_mh.mh_hash(y, seed, bad)
    assert len(mmh_mh.mh_hash(y, seed, 6)) == 6


def test_output_always_below_limit():
    params = MersenneParams(13)
    rng = np.random.default_rng(0)
    for _ in range(50):
        y = MersenneResidue(int(rng.integers(0, params.p)), params)
        seed = MhSeed(b=int(rng.integers(0, 1 << 13)) | 1,
                      c=int(rng.integers(0, 1 << 13)))
        l_prime = int(rng.integers(1, 13))
        assert as_int(mmh_mh.mh_hash(y, seed, l_prime)) < (1 << l_prime)


def test_affine_structure_in_c():
    params = MersenneParams(7)
    y = MersenneResidue(93, params)
    b = 57

    def tail(c):
        # l' = 6 keeps all but the lowest bit of t = (b*y + c) mod 128
        return as_int(mmh_mh.mh_hash(y, MhSeed(b=b, c=c), 6))

    base = (b * y.value) % 128
    for delta in (0, 1, 13, 100, 127):
        assert tail(delta) == ((base + delta) % 128) >> 1


def test_composition_hand_example():
    # gamma = 7, x = (3, 5), A = (1, 1, 1, 2), pass 2: y = a_2*3 + a_3*5 = 8;
    # (5*8 + 9) mod 128 = 49, floor(49/8) = 6
    params = MersenneParams(7)
    x = Words.from_ints([3, 5], params.gamma)
    A = Words.from_ints([1, 1, 1, 2], params.gamma)
    bits = mmh_mh.mh_hash(mmh_pass(x, A, 2), MhSeed(b=5, c=9), 4)
    assert as_int(bits) == 6


def test_composition_matches_naive_tail():
    rng = np.random.default_rng(1)
    params = MersenneParams(31)
    p = params.p
    for _ in range(10):
        xs = [int(rng.integers(0, p)) for _ in range(3)]
        coeffs = [int(rng.integers(0, p)) for _ in range(5)]
        b = int(rng.integers(0, 1 << 31)) | 1
        c = int(rng.integers(0, 1 << 31))
        m, l_prime = 2, 11
        x = Words.from_ints(xs, params.gamma)
        A = Words.from_ints(coeffs, params.gamma)
        got = as_int(
            mmh_mh.mh_hash(mmh_pass(x, A, m + 1), MhSeed(b=b, c=c), l_prime))
        y = sum(coeffs[j + m] * xs[j] for j in range(3)) % p
        expected = ((b * y + c) % (1 << 31)) >> (31 - l_prime)
        assert got == expected

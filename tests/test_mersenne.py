import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpa.errors import InvalidGamma
from qpa.mersenne import MersenneParams, fold


def test_params_validation():
    assert MersenneParams(7).p == 127
    assert MersenneParams(756839).gamma == 756839
    for bad in (4, 11, 23, 756864):
        with pytest.raises(InvalidGamma):
            MersenneParams(bad)


def test_reduce_examples():
    assert fold(1 << 7, 7) == 1
    assert fold(127, 7) == 0
    assert fold(200, 7) == 73
    # no width limit: 2^100 = 2^(7*14 + 2) = 4 mod 127
    assert fold(1 << 100, 7) == 4


@given(st.sampled_from([7, 13, 31, 127]), st.data())
def test_reduce_matches_long_division(gamma, data):
    p = MersenneParams(gamma).p
    # wider than any pass sum, so fold must take several rounds
    x = data.draw(st.integers(0, (1 << (4 * gamma + 64)) - 1))
    r = fold(x, gamma)
    assert r == x % p
    assert 0 <= r <= p - 1


def test_mod_add_examples():
    assert fold(0 + 42, 7) == 42
    assert fold(126 + 1, 7) == 0
    assert fold(100 + 100, 7) == 73


def test_mod_mul_examples():
    p = MersenneParams(127).p
    rng = np.random.default_rng(0)
    x = int(rng.integers(0, 1 << 60))
    assert fold(1 * x, 127) == x
    assert fold(0 * x, 127) == 0
    for _ in range(10):
        a = int.from_bytes(rng.bytes(15), "little") % p
        b = int.from_bytes(rng.bytes(15), "little") % p
        assert fold(a * b, 127) == (a * b) % p


@given(st.data())
def test_add_associative_commutative(data):
    p = MersenneParams(31).p
    a, b, c = (data.draw(st.integers(0, p - 1)) for _ in range(3))
    assert fold(a + b, 31) == fold(b + a, 31)
    assert fold(fold(a + b, 31) + c, 31) == fold(a + fold(b + c, 31), 31)


@given(st.data())
def test_mul_distributes_over_add(data):
    p = MersenneParams(31).p
    a, b, c = (data.draw(st.integers(0, p - 1)) for _ in range(3))
    lhs = fold(a * fold(b + c, 31), 31)
    rhs = fold(fold(a * b, 31) + fold(a * c, 31), 31)
    assert lhs == rhs

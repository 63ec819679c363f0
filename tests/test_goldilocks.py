import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpa import goldilocks as gl
from qpa.errors import UnsupportedOrder, ZeroInverse

P = gl.P64

elems = st.integers(0, P - 1)


def test_add_examples():
    assert gl.fe_add(0, 12345) == 12345
    assert gl.fe_add(P - 1, 1) == 0
    # 2^64 = 2^32 - 1 (mod p)
    assert gl.fe_add(1 << 63, 1 << 63) == (1 << 32) - 1


def test_sub_examples():
    assert gl.fe_sub(42, 42) == 0
    assert gl.fe_sub(0, 1) == P - 1
    assert gl.fe_sub(5, 3) == 2


def test_mul_examples():
    assert gl.fe_mul(1, 98765) == 98765
    assert gl.fe_mul(1 << 32, 1 << 32) == (1 << 32) - 1


def test_mul_against_wide_integer_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100_000):
        a = int(rng.integers(0, P, dtype=np.uint64))
        b = int(rng.integers(0, P, dtype=np.uint64))
        assert gl.fe_mul(a, b) == (a * b) % P


def test_vector_mul_matches_scalar():
    rng = np.random.default_rng(8)
    a = rng.integers(0, P, size=10_000, dtype=np.uint64)
    b = rng.integers(0, P, size=10_000, dtype=np.uint64)
    got = gl.v_mul(a, b)
    for x, y, z in zip(a.tolist(), b.tolist(), got.tolist()):
        assert z == (x * y) % P


@pytest.mark.parametrize("shift", range(0, 192, 12))
def test_vector_shift_is_multiplication_by_power_of_two(shift):
    rng = np.random.default_rng(shift)
    a = rng.integers(0, P, size=500, dtype=np.uint64)
    got = gl.v_shl(a, shift)
    for x, z in zip(a.tolist(), got.tolist()):
        assert z == (x << shift) % P


def test_pow_examples():
    assert gl.fe_pow(31337, 0) == 1
    # 2^96 = -1 (mod p), cross-checked by repeated multiplication
    acc = 1
    for _ in range(8):
        acc = gl.fe_mul(acc, 4096)
    assert acc == P - 1
    assert gl.fe_pow(4096, 8) == P - 1
    assert gl.fe_pow(4096, 16) == 1


def test_inv_examples():
    assert gl.fe_inv(1) == 1
    assert gl.fe_inv(P - 1) == P - 1
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = int(rng.integers(1, P, dtype=np.uint64))
        assert gl.fe_mul(a, gl.fe_inv(a)) == 1
    with pytest.raises(ZeroInverse):
        gl.fe_inv(0)


def test_root_of_unity_fixed_points():
    assert gl.root_of_unity(1) == 1
    assert gl.root_of_unity(2) == P - 1
    assert gl.root_of_unity(16) == 4096
    omega = gl.root_of_unity(65536)
    assert gl.fe_pow(omega, 4096) == 4096


@pytest.mark.parametrize("order", [2 ** k for k in range(0, 17)] + [1 << 32])
def test_root_of_unity_primitive(order):
    w = gl.root_of_unity(order)
    assert gl.fe_pow(w, order) == 1
    if order > 1:
        assert gl.fe_pow(w, order // 2) != 1


@pytest.mark.parametrize("order", [0, 3, 6, 100, (1 << 32) * 2])
def test_root_of_unity_rejects_bad_orders(order):
    with pytest.raises(UnsupportedOrder):
        gl.root_of_unity(order)


@given(elems, elems, elems)
def test_field_axioms(a, b, c):
    assert gl.fe_add(a, b) == gl.fe_add(b, a)
    assert gl.fe_mul(a, b) == gl.fe_mul(b, a)
    assert gl.fe_add(gl.fe_add(a, b), c) == gl.fe_add(a, gl.fe_add(b, c))
    assert gl.fe_mul(gl.fe_mul(a, b), c) == gl.fe_mul(a, gl.fe_mul(b, c))
    assert gl.fe_mul(a, gl.fe_add(b, c)) == gl.fe_add(gl.fe_mul(a, b),
                                                      gl.fe_mul(a, c))


@given(elems, elems)
def test_sub_inverts_add(a, b):
    assert gl.fe_sub(gl.fe_add(a, b), b) == a


@pytest.mark.parametrize("base", [2, gl.root_of_unity(4096), P - 1])
def test_power_table_matches_pow(base):
    table = gl.powers(base, 4096)
    assert table.dtype == np.uint64
    assert table.tolist() == [pow(base, k, P) for k in range(4096)]

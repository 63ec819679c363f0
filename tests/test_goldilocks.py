import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpa import goldilocks as gl
from qpa.errors import UnsupportedOrder

P = gl.P64

elems = st.integers(0, P - 1)

# the carry, borrow and wrap edges of the field kernels
EDGES = [0, 1, (1 << 32) - 1, 1 << 32, 1 << 63, P - 2, P - 1]


def edge_pairs():
    """Every ordered pair of edge values, as two uint64 arrays."""
    edges = np.array(EDGES, dtype=np.uint64)
    return tuple(e.ravel() for e in np.meshgrid(edges, edges))


def scalar(kernel, *args):
    """Run a vector kernel on one-element arrays and return a Python int."""
    out = kernel(*(np.array([a], dtype=np.uint64) for a in args))
    assert out.dtype == np.uint64 and out.shape == (1,)
    return int(out[0])


def test_add_examples():
    assert scalar(gl.v_add, 0, 12345) == 12345
    assert scalar(gl.v_add, P - 1, 1) == 0
    # 2^64 = 2^32 - 1 (mod p)
    assert scalar(gl.v_add, 1 << 63, 1 << 63) == (1 << 32) - 1


def test_sub_examples():
    assert scalar(gl.v_sub, 42, 42) == 0
    assert scalar(gl.v_sub, 0, 1) == P - 1
    assert scalar(gl.v_sub, 5, 3) == 2


def test_mul_examples():
    assert scalar(gl.v_mul, 1, 98765) == 98765
    assert scalar(gl.v_mul, 1 << 32, 1 << 32) == (1 << 32) - 1


def test_mul_against_wide_integer_oracle():
    rng = np.random.default_rng(7)
    # every pair of edge values after the random pairs
    ea, eb = edge_pairs()
    a = np.concatenate([rng.integers(0, P, size=100_000, dtype=np.uint64), ea])
    b = np.concatenate([rng.integers(0, P, size=100_000, dtype=np.uint64), eb])
    got = gl.v_mul(a, b).tolist()
    assert got == [x * y % P for x, y in zip(a.tolist(), b.tolist())]


def test_vector_mul_matches_scalar():
    rng = np.random.default_rng(8)
    a = rng.integers(0, P, size=10_000, dtype=np.uint64)
    b = rng.integers(0, P, size=10_000, dtype=np.uint64)
    got = gl.v_mul(a, b)
    for x, y, z in zip(a.tolist(), b.tolist(), got.tolist()):
        assert z == (x * y) % P


@pytest.mark.parametrize("kernel, exact", [
    (gl.v_add, lambda x, y: (x + y) % P),
    (gl.v_sub, lambda x, y: (x - y) % P),
])
def test_add_sub_edge_pairs(kernel, exact):
    a, b = edge_pairs()
    got = kernel(a, b)
    assert got.dtype == np.uint64
    assert got.tolist() == [exact(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert_same_into_each_operand(kernel, (a, b), got)


def assert_same_into_each_operand(kernel, operands, expected):
    """The kernel writes ``expected`` into an out that is any one operand."""
    for k in range(len(operands)):
        copies = [x.copy() for x in operands]
        tmp = gl.scratch(expected.shape)
        assert kernel(*copies, out=copies[k], tmp=tmp) is copies[k]
        assert np.array_equal(copies[k], expected)


def test_mul_halves_edge_pairs():
    a, b = edge_pairs()
    operands = (a, *gl.halves(b))
    got = gl.v_mul_halves(*operands)
    assert got.tolist() == [x * y % P for x, y in zip(a.tolist(), b.tolist())]
    assert_same_into_each_operand(gl.v_mul_halves, operands, got)


# every shift, so each of the s <= 32, 33..63, 64..95 and >= 96 branches
# is checked at its ends
@pytest.mark.parametrize("shift", range(192))
def test_vector_shift_is_multiplication_by_power_of_two(shift):
    rng = np.random.default_rng(shift)
    a = np.concatenate([np.array(EDGES, dtype=np.uint64),
                        rng.integers(0, P, size=500, dtype=np.uint64)])
    before = a.copy()
    got = gl.v_shl(a, shift)
    assert got.dtype == np.uint64
    assert got.tolist() == [x * pow(2, shift, P) % P for x in a.tolist()]
    assert np.array_equal(a, before)
    assert_same_into_each_operand(lambda x, **kw: gl.v_shl(x, shift, **kw),
                                  (a,), got)


def test_pow_examples():
    assert pow(31337, 0, P) == 1
    # 2^96 = -1 (mod p), cross-checked by repeated multiplication
    acc = np.ones(1, dtype=np.uint64)
    for _ in range(8):
        acc = gl.v_mul(acc, np.uint64(4096))
    assert acc.tolist() == [P - 1]
    assert pow(4096, 8, P) == P - 1
    assert pow(4096, 16, P) == 1


def test_root_of_unity_fixed_points():
    assert gl.root_of_unity(1) == 1
    assert gl.root_of_unity(2) == P - 1
    assert gl.root_of_unity(16) == 4096
    omega = gl.root_of_unity(65536)
    assert pow(omega, 4096, P) == 4096


@pytest.mark.parametrize("order", [2 ** k for k in range(0, 17)])
def test_root_of_unity_primitive(order):
    w = gl.root_of_unity(order)
    assert pow(w, order, P) == 1
    if order > 1:
        assert pow(w, order // 2, P) != 1


@pytest.mark.parametrize("order", [5 << k for k in range(0, 17)])
def test_root_of_unity_of_five_times_a_power_of_two(order):
    # primitive, with w^5 the root of order M = order / 5 and w^M the root
    # of order 5, which the transform's prime-factor map needs
    w, m = gl.root_of_unity(order), order // 5
    assert pow(w, order, P) == 1
    assert pow(w, m, P) != 1 and (order % 2 or pow(w, order // 2, P) != 1)
    assert pow(w, 5, P) == gl.root_of_unity(m)
    assert pow(w, m, P) == gl.root_of_unity(5) == pow(gl.GENERATOR, (P - 1) // 5, P)


@pytest.mark.parametrize("order", [0, 3, 6, 100, 1 << 17, 1 << 32, (1 << 32) * 2])
def test_root_of_unity_rejects_bad_orders(order):
    with pytest.raises(UnsupportedOrder):
        gl.root_of_unity(order)


@given(elems, elems, elems)
def test_field_axioms(a, b, c):
    add = functools.partial(scalar, gl.v_add)
    mul = functools.partial(scalar, gl.v_mul)
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(elems, elems)
def test_sub_inverts_add(a, b):
    assert scalar(gl.v_sub, scalar(gl.v_add, a, b), b) == a


@pytest.mark.parametrize("base", [2, gl.root_of_unity(4096), P - 1])
def test_power_table_matches_pow(base):
    table = gl.powers(base, 4096)
    assert table.dtype == np.uint64
    assert table.tolist() == [pow(base, k, P) for k in range(4096)]


@pytest.mark.parametrize("count", [0, 1, 3, 80, 40960, 3 * gl.PIECE + 5])
def test_power_table_takes_any_count(count):
    base = gl.root_of_unity(40960)
    assert gl.powers(base, count).tolist() == [pow(base, k, P) for k in range(count)]

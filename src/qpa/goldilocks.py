"""Arithmetic in the prime field of order p = 2^64 - 2^32 + 1.

This field is the coefficient domain of the number-theoretic transform.
Its multiplicative group has order 2^32 * (2^32 - 1), so roots of unity
exist for every power-of-two order up to 2^32, and 2^96 = -1 (mod p),
which makes small powers of two cheap to multiply by.

The ``v_*`` functions are the vectorized kernels used by the transform
engine; they operate elementwise on canonical ``numpy.uint64`` arrays
(0 <= value < p), exploiting 2^64 = 2^32 - 1 (mod p) to reduce wide
products without 128-bit arithmetic.
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedOrder

P64 = (1 << 64) - (1 << 32) + 1
GENERATOR = 7

# Sixteenth root of unity fixed to a power of two so that butterfly
# multiplications become bit shifts: 4096^16 = 2^192 = 1 (mod p).
W16 = 4096

_U64 = np.uint64
_P = _U64(P64)
_M32 = _U64(0xFFFFFFFF)


def _canonical_omega_65536() -> int:
    """Primitive 65536th root w chosen so that w^4096 = 4096.

    Start from g^((p-1)/65536) and adjust by an odd exponent so the
    derived 16th root is exactly 4096, keeping shift-based butterflies
    consistent with inter-stage twiddles.
    """
    base = pow(GENERATOR, (P64 - 1) // 65536, P64)
    for e in range(1, 16, 2):
        omega = pow(base, e, P64)
        if pow(omega, 4096, P64) == W16:
            return omega
    raise AssertionError("no odd exponent maps the 16th root to 4096")


OMEGA_65536 = _canonical_omega_65536()


def root_of_unity(order: int) -> int:
    """Primitive order-th root of unity; order must divide 65536.

    Every root is a power of OMEGA_65536, so every radix-16 stage sees
    w16 = 4096.
    """
    if order <= 0 or 65536 % order != 0:
        raise UnsupportedOrder(f"order {order} does not divide 65536")
    return pow(OMEGA_65536, 65536 // order, P64)


# ---------------------------------------------------------------------------
# vectorized kernels (canonical uint64 in, canonical uint64 out)
# ---------------------------------------------------------------------------

def _canon(x):
    # x < p wraps x - p above 2^64 - 2^32, so the minimum picks correctly
    return np.minimum(x, x - _P)


def v_add(a, b):
    s = a + b  # wraps mod 2^64
    wrapped = (s < b).astype(_U64)
    # a + b - 2^64 is congruent to s + (2^32 - 1)
    return _canon(s + wrapped * _M32)


def v_sub(a, b):
    d = a - b
    borrow = (a < b).astype(_U64)
    return d - borrow * _M32


def v_neg(x):
    return _canon(_P - x)


def v_mul(a, b):
    """Elementwise product mod p of canonical uint64 arrays (broadcasts)."""
    a0 = a & _M32
    a1 = a >> _U64(32)
    b0 = b & _M32
    b1 = b >> _U64(32)
    ll = a0 * b0
    lh = a0 * b1
    hl = a1 * b0
    hh = a1 * b1
    # assemble the exact 128-bit product as (hi, lo) 64-bit halves
    mid = lh + hl
    mid_carry = (mid < lh).astype(_U64)
    lo = ll + (mid << _U64(32))
    lo_carry = (lo < ll).astype(_U64)
    hi = hh + (mid >> _U64(32)) + (mid_carry << _U64(32)) + lo_carry
    # lo + hi*2^64 = lo + h0*(2^32 - 1) - h1 (mod p); h0*(2^32-1) < p
    h0 = hi & _M32
    h1 = hi >> _U64(32)
    r = v_add(_canon(lo), h0 * _M32)
    return v_sub(r, h1)


def _shl_small(x, s: int):
    """x * 2^s mod p for 0 < s < 64, x canonical."""
    n0 = x << _U64(s)
    hi = x >> _U64(64 - s)
    n1 = hi & _M32
    n2 = hi >> _U64(32)
    # n1 * (2^32 - 1) <= (2^32 - 1)^2 < p, already canonical
    r = v_add(_canon(n0), n1 * _M32)
    return v_sub(r, n2)


def powers(base: int, count: int) -> np.ndarray:
    """base^0 .. base^(count-1) for a power-of-two count, by doubling."""
    out = np.ones(count, dtype=_U64)
    step = 1
    while step < count:
        out[step:2 * step] = v_mul(out[:step], _U64(pow(base, step, P64)))
        step *= 2
    return out


def v_shl(x, s: int):
    """x * 2^s mod p; 2 has multiplicative order 192."""
    s %= 192
    if s == 0:
        return x
    if s >= 96:
        return v_neg(v_shl(x, s - 96))
    if s >= 64:
        return _shl_small(_shl_small(x, 48), s - 48)
    return _shl_small(x, s)

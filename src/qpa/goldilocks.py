"""Arithmetic in the prime field of order p = 2^64 - 2^32 + 1.

This field is the coefficient domain of the number-theoretic transform.
Its multiplicative group has order p - 1 = 2^32 * 3 * 5 * 17 * 257 *
65537, so roots of unity exist for every power-of-two order up to 2^32
and for five times each, and 2^96 = -1 (mod p), which makes small
powers of two cheap to multiply by.

The ``v_*`` functions are the vectorized kernels used by the transform
engine.  They take canonical ``numpy.uint64`` arrays (0 <= value < p)
and return canonical arrays, reducing wide values with 2^64 = 2^32 - 1
and 2^96 = -1 (mod p) instead of 128-bit arithmetic.  Each kernel is a
fixed, short sequence of numpy ufunc calls: where a comparison shows
that a sum wrapped past 2^64 or a difference borrowed, 2^32 - 1 is
added or taken off.  The comment beside each step gives the bound that
keeps it exact.

``v_mul_halves`` is the one multiplier.  It takes its second factor
as 32-bit halves (``halves``), so a caller that multiplies by the same
table many times splits it once; ``v_mul`` splits its operand per call.
``v_add``, ``v_sub``, ``v_shl`` and ``v_mul_halves`` take an optional
``out`` array and caller-owned temporaries (``scratch``).  A caller that
passes both allocates nothing per call: the allocator hands arrays of
128 KB and more back to the system when they are freed, so fresh
temporaries of that size are faulted in again on every call.
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedOrder

P64 = (1 << 64) - (1 << 32) + 1
GENERATOR = 7

# Sixteenth root of unity fixed to a power of two so that butterfly
# multiplications become bit shifts: 4096^16 = 2^192 = 1 (mod p).
W16 = 4096

# most values one kernel call works on, in a transform or a table
# build (``powers``).  Its operands and temporaries, about 1 MB, stay in
# a 2 MB L2 cache, and numpy's per-call cost is small against the work:
# a forward row took about 30% less time than with 4096-value pieces.
PIECE = 1 << 14

_U64 = np.uint64
_P = _U64(P64)
_M32 = _U64(0xFFFFFFFF)
_S32 = _U64(32)


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
    """Primitive order-th root of unity; order must be M or 5M for M dividing 65536.

    Every root of order M is a power of OMEGA_65536, so every radix-16
    stage sees w16 = 4096.  The root of order 5 is g^((p-1)/5), the root
    the transform's 5-point kernel takes, and the root w of order 5M is
    the one with w^5 the root of order M and w^M that of order 5, which
    the prime-factor map of the transform (``ntt``) needs: w = w_M^u *
    w_5^v with 5u = 1 (mod M) and Mv = 1 (mod 5).
    """
    if order > 0 and 65536 % order == 0:
        return pow(OMEGA_65536, 65536 // order, P64)
    m = order // 5
    if order <= 0 or order % 5 or 65536 % m:
        raise UnsupportedOrder(f"order {order} is neither a divisor of 65536 "
                               f"nor five times one")
    w5 = pow(GENERATOR, (P64 - 1) // 5, P64)
    return (pow(root_of_unity(m), pow(5, -1, m), P64)
            * pow(w5, pow(m, -1, 5), P64) % P64)


# ---------------------------------------------------------------------------
# vectorized kernels (canonical uint64 in, canonical uint64 out)
# ---------------------------------------------------------------------------

def scratch(shape) -> tuple:
    """Temporaries for kernel calls on arrays of ``shape``: five uint64
    arrays and a bool mask, as many as ``v_mul_halves`` needs.

    A caller that passes them as ``tmp`` (and an ``out``) makes a kernel
    call allocate nothing; they are overwritten and must not share
    memory with the operands or ``out``.
    """
    return (*np.empty((5, *shape), dtype=_U64), np.empty(shape, dtype=bool))


def _scratch_for(tmp, *operands) -> tuple:
    if tmp is None:
        tmp = scratch(np.broadcast_shapes(*map(np.shape, operands)))
    return tmp


def _eps_if(mask, t):
    """2^32 - 1 where mask holds, else 0, in t: a wrap of 2^64 mod p."""
    return np.multiply(mask, _M32, out=t, dtype=_U64)


def _canon(x, out, t):
    # any x < 2^64 is below 2p: x >= p leaves x - p < x, and x < p wraps
    # x - p to x + 2^32 - 1 > x, so the minimum is x mod p
    return np.minimum(x, np.subtract(x, _P, out=t), out=out)


# Every kernel below writes its result to ``out`` (a new array if None)
# and uses ``tmp`` (from ``scratch``, made per call if None) for its
# temporaries.  ``out`` may be any of the operands: each kernel reads
# them before its first write to ``out``.

def v_add(a, b, out=None, tmp=None):
    """a + b mod p."""
    t, *_, mask = _scratch_for(tmp, a, b)
    np.subtract(_P, b, out=t)  # p - b, in [1, p]
    np.less(a, t, out=mask)
    r = np.subtract(a, t, out=out)  # a + b - p, at most p - 2 when a >= p - b
    # a < p - b means a + b < p, and r wrapped to a + b - p + 2^64 = a + b + (2^32 - 1)
    r -= _eps_if(mask, t)
    return r


def v_sub(a, b, out=None, tmp=None):
    """a - b mod p."""
    t, *_, mask = _scratch_for(tmp, a, b)
    np.less(a, b, out=mask)
    d = np.subtract(a, b, out=out)
    # a borrow leaves a - b + 2^64; a - b + p is 2^32 - 1 less, and positive
    d -= _eps_if(mask, t)
    return d


def halves(b):
    """(b mod 2^32, b div 2^32): the form v_mul_halves takes its multiplier in."""
    return b & _M32, b >> _S32


def v_mul_halves(a, b0, b1, out=None, tmp=None):
    """a * b mod p for canonical a and b, b given as halves b0 + b1 * 2^32."""
    ll, hh, lh, hl, t, mask = _scratch_for(tmp, a, b0, b1)
    np.bitwise_and(a, _M32, out=ll)
    np.right_shift(a, _S32, out=hh)
    # each partial product is at most (2^32 - 1)^2 = 2^64 - 2^33 + 1
    np.multiply(ll, b1, out=lh)
    ll *= b0
    np.multiply(hh, b0, out=hl)
    hh *= b1
    # a * b = lo + hi * 2^64, assembled 32 bits at a time so nothing wraps:
    # lh + (ll >> 32) and hl + (lh & (2^32 - 1)) are at most 2^64 - 2^32,
    # and every partial sum of hi is at most hi itself, as a * b < 2^128
    lh += np.right_shift(ll, _S32, out=t)
    hl += np.bitwise_and(lh, _M32, out=t)
    ll &= _M32
    ll |= np.left_shift(hl, _S32, out=t)
    hh += np.right_shift(lh, _S32, out=t)
    hh += np.right_shift(hl, _S32, out=t)
    # 2^64 = 2^32 - 1 and 2^96 = -1, so a * b = lo + h0 * (2^32 - 1) - h1.
    # a * b <= (p - 1)^2 puts hi <= 2^64 - 2^33 + 1, so h1 <= 2^32 - 2.
    h1 = np.right_shift(hh, _S32, out=lh)
    hh &= _M32
    hh *= _M32  # h0 * (2^32 - 1) <= (2^32 - 1)^2 < p
    # h1 < 2^32 - 1 exceeds h0 * (2^32 - 1) only if h0 = 0; a borrow then
    # leaves p - h1 once 2^32 - 1 more is taken off
    np.less(hh, h1, out=mask)
    hh -= h1
    hh -= _eps_if(mask, t)
    # hh is now canonical; add lo < 2^64 and fold a wrap back in as 2^32 - 1.
    # A wrapped sum is below hh < p, so adding 2^32 - 1 cannot wrap again.
    ll += hh
    np.less(ll, hh, out=mask)
    ll += _eps_if(mask, t)
    return _canon(ll, out, t)


def v_mul(a, b):
    """Elementwise product mod p of canonical uint64 arrays (broadcasts)."""
    return v_mul_halves(a, *halves(b))


def powers(base: int, count: int) -> np.ndarray:
    """base^0 .. base^(count-1), by doubling, a ``PIECE`` at a time."""
    out = np.ones(count, dtype=_U64)
    step = 1
    while step < count:
        factor = _U64(pow(base, step, P64))
        for k in range(0, min(step, count - step), PIECE):
            end = min(k + PIECE, step, count - step)
            out[step + k:step + end] = v_mul(out[k:end], factor)
        step *= 2
    return out


def _shl32(x, s: int, out, tmp):
    """x * 2^s mod p for 0 < s <= 32, x canonical."""
    t, *_, mask = tmp
    # x * 2^s = lo + hi * 2^64 with hi < 2^s <= 2^32, and 2^64 = 2^32 - 1,
    # so x * 2^s = lo + t for t = hi * (2^32 - 1) <= (2^32 - 1)^2 < p
    np.right_shift(x, _U64(64 - s), out=t)
    t *= _M32
    r = np.left_shift(x, _U64(s), out=out)
    r += t
    # a wrapped sum is below t, so adding 2^32 - 1 for the lost 2^64 cannot wrap
    np.less(r, t, out=mask)
    r += _eps_if(mask, t)
    return _canon(r, r, t)


def v_shl(x, s: int, out=None, tmp=None):
    """x * 2^s mod p for canonical x; 2 has multiplicative order 192."""
    s %= 192
    if s == 0:
        if out is None:
            return x
        out[...] = x
        return out
    tmp = _scratch_for(tmp, x)
    if s >= 96:  # 2^96 = -1
        r = v_shl(x, s - 96, out, tmp)
        # r is x itself for s = 96 with no out, and x is never overwritten
        return v_sub(_U64(0), r, out if r is x else r, tmp)
    if s >= 64:
        # x = v * 2^(96-s) + w with w < 2^(96-s): x * 2^s = v * 2^96 + w * 2^s,
        # which is t - v for t = (w * 2^(s-64)) * (2^32 - 1), as w * 2^(s-64)
        # < 2^32 and 2^64 = 2^32 - 1; t < p, and v < 2^(s-32) <= 2^63 < p
        t = np.left_shift(x, _U64(s - 64), out=tmp[1])
        t &= _M32
        t *= _M32
        v = np.right_shift(x, _U64(96 - s), out=out)
        return v_sub(t, v, v, tmp)
    if s > 32:
        r = _shl32(x, s - 32, out, tmp)
        return _shl32(r, 32, r, tmp)
    return _shl32(x, s, out, tmp)

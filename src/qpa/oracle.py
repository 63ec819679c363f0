"""Brute-force oracles that anchor the fast paths.

Everything here is written directly from the definitions: O(n^2)
convolution for multiplication, the double-loop transform formula, a
pure-Python re-derivation of the whole distillation, and an exhaustive
collision census for the universality bound.  None of it shares
arithmetic kernels with the production modules; these exist solely to
be obviously correct.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import AllOnesBlock, LengthMismatch, TooLargeToEnumerate
from .goldilocks import P64, root_of_unity
from .pipeline import PaParams, SeedMaterial


def _combine(coeffs, shift_bits):
    """sum(coeffs[k] * 2^(shift_bits*k)) by divide and conquer."""
    n = len(coeffs)
    if n == 1:
        return int(coeffs[0])
    half = n // 2
    lo = _combine(coeffs[:half], shift_bits)
    hi = _combine(coeffs[half:], shift_bits)
    return lo + (hi << (shift_bits * half))


def mul_schoolbook(a: int, b: int) -> int:
    """Exact product by direct O(n^2) convolution of 12-bit digits."""

    def digits(x: int):
        # three hex characters per digit, least significant first
        h = format(x, "x")
        return np.array([int(h[max(0, i - 3):i], 16)
                         for i in range(len(h), 0, -3)], dtype=np.int64)

    # coefficients < min(len) * (2^12)^2, exact in int64 below 2^39 digits
    conv = np.convolve(digits(a), digits(b))
    return _combine(conv.tolist(), 12)


def naive_ntt(v) -> np.ndarray:
    """Direct evaluation of X_k = sum_n x_n w^(nk) mod p."""
    x = [int(e) for e in v]
    N = len(x)
    w = root_of_unity(N)
    return np.array(
        [sum(x[n] * pow(w, n * k, P64) for n in range(N)) % P64
         for k in range(N)],
        dtype=np.uint64)


def naive_ntt_inverse(X) -> np.ndarray:
    """Direct evaluation of x_n = (1/N) sum_k X_k w^(-nk) mod p."""
    x = [int(e) for e in X]
    N = len(x)
    winv = pow(root_of_unity(N), P64 - 2, P64)
    ninv = pow(N, P64 - 2, P64)
    return np.array(
        [ninv * sum(x[k] * pow(winv, n * k, P64) for k in range(N)) % P64
         for n in range(N)],
        dtype=np.uint64)


def _bits_to_int(bits) -> int:
    """Little-endian 0/1 ints read as one binary numeral, in linear time."""
    return int("".join(map(str, reversed(bits))), 2)


def _int_to_bits(value: int, width: int) -> list[int]:
    """The ``width`` low bits of a value below 2^width, least significant first."""
    return [int(c) for c in reversed(format(value, f"0{width}b"))]


def _mod_mersenne(v: int, gamma: int) -> int:
    """v mod p = 2^gamma - 1 for v >= 0 by folding: linear, where ``%`` is quadratic.

    As 2^gamma = 1 modulo p, the bits above gamma add onto the low ones,
    and p itself is 0.
    """
    p = (1 << gamma) - 1
    while v > p:
        v = (v & p) + (v >> gamma)
    return 0 if v == p else v


def naive_distill(X, seed: SeedMaterial, params: PaParams) -> np.ndarray:
    """Pure-Python re-derivation of the whole distillation.

    Pads to n*gamma bits, splits into little-endian gamma-bit blocks,
    runs the shifted inner-product passes as plain int sums, each
    reduced by a Mersenne fold, and applies the affine tail with a mask
    and a shift.
    """
    gamma = params.gamma
    p = (1 << gamma) - 1
    bits = [int(b) for b in (X if not isinstance(X, (bytes, bytearray))
                             else np.unpackbits(np.frombuffer(X, np.uint8),
                                                bitorder="little")[:params.N])]
    if len(bits) != params.N:
        raise LengthMismatch(f"X has {len(bits)} bits, plan expects {params.N}")
    bits += [0] * (params.n * gamma - len(bits))
    blocks = [_bits_to_int(bits[j * gamma:(j + 1) * gamma])
              for j in range(params.n)]
    bad = [j + 1 for j, blk in enumerate(blocks) if blk == p]
    if bad:
        raise AllOnesBlock(bad)
    A = seed.A.ints()

    def f(i: int) -> int:
        return _mod_mersenne(sum(A[j + i - 2] * blocks[j - 1]
                                 for j in range(1, params.n + 1)), gamma)

    out = []
    for i in range(1, params.m + 1):
        out.extend(_int_to_bits(f(i), gamma))
    if params.l_prime > 0:
        y = f(params.m + 1)
        # & p is modulo 2^gamma, and >> keeps the top l' bits: no long division
        t = (seed.mh.b * y + seed.mh.c) & p
        z = t >> (gamma - params.l_prime)
        out.extend(_int_to_bits(z, params.l_prime))
    if len(out) != params.l:
        raise LengthMismatch(f"key has {len(out)} bits, plan expects {params.l}")
    return np.array(out, dtype=np.uint8)


def collision_census(gamma: int, n: int, m: int, X1, X2) -> int:
    """Number of seeds A in Z_p^(n+m-1) colliding on X1 != X2 under DM3H."""
    p = (1 << gamma) - 1
    if p ** (n + m - 1) > 10 ** 7:
        raise TooLargeToEnumerate(
            f"p^(n+m-1) = {p ** (n + m - 1)} exceeds 10^7")
    x1 = [int(v) for v in X1]
    x2 = [int(v) for v in X2]
    if x1 == x2:
        raise ValueError("census requires X1 != X2")

    def h(A, x):
        return tuple(sum(A[j + i] * x[j] for j in range(n)) % p
                     for i in range(m))

    count = 0
    for A in itertools.product(range(p), repeat=n + m - 1):
        if h(A, x1) == h(A, x2):
            count += 1
    return count

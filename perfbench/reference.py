"""Independent reference distillation with plain CPython ints.

Written from the definitions, sharing no code with ``qpa``: the key is
zero-padded to n*gamma bits and split into little-endian gamma-bit
blocks x_j, the seed stream holds the words a_k (the all-ones word
reduces to 0) followed by b (forced odd) and c, and

    y_i = sum_j a_(j+i-1) * x_j  mod 2^gamma - 1,      i = 1..m (+1)
    z   = ((b * y_(m+1) + c) mod 2^gamma) >> (gamma - l')

The output is y_1 || ... || y_m || z, little-endian and LSB-first.  It
costs n * (m + 1) CPython products, so it runs once per invocation and
every timed operation is compared against it.
"""

from __future__ import annotations


class AllOnesInput(ValueError):
    """A raw key block equals 2^gamma - 1, which the hash rejects."""


def mersenne_mod(x: int, gamma: int) -> int:
    """x mod 2^gamma - 1 by folding, since 2^gamma = 1 (mod 2^gamma - 1)."""
    p = (1 << gamma) - 1
    while x > p:
        x = (x & p) + (x >> gamma)
    return 0 if x == p else x


def distill_reference(key: bytes, seed: bytes, N: int, l: int, gamma: int) -> bytes:
    p = (1 << gamma) - 1
    n = -(-N // gamma)
    m = l // gamma
    l_prime = l - m * gamma
    passes = m + (1 if l_prime else 0)

    x = int.from_bytes(key, "little") & ((1 << N) - 1)
    blocks = [(x >> (j * gamma)) & p for j in range(n)]
    bad = [j + 1 for j, block in enumerate(blocks) if block == p]
    if bad:
        raise AllOnesInput(f"all-ones key blocks at {bad}")

    s = int.from_bytes(seed, "little")
    words = n + passes - 1
    a = [(s >> (k * gamma)) & p for k in range(words)]
    a = [0 if w == p else w for w in a]

    out = 0
    for i in range(passes):
        y = mersenne_mod(sum(a[i + j] * blocks[j] for j in range(n)), gamma)
        if i < m:
            out |= y << (i * gamma)
        else:
            b = ((s >> (words * gamma)) & p) | 1
            c = (s >> ((words + 1) * gamma)) & p
            # p = 2^gamma - 1 is also the mask that reduces mod 2^gamma
            z = ((b * y + c) & p) >> (gamma - l_prime)
            out |= z << (m * gamma)
    return out.to_bytes((l + 7) // 8, "little")

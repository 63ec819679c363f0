"""Bit-stream helpers.

One convention everywhere: bit i of a stream is bit i of the integer it
encodes (little-endian, bit 0 least significant), and inside a byte the
least-significant bit comes first.

Inside the library key and seed streams stay packed: ``bigint.Words``
keeps each one as 64-bit words and reads its gamma-bit rows by
position.  0/1 arrays (numpy uint8) exist only at the public edge:
callers may pass them in, where they are packed once, and distilled
keys come back as them.
"""

from __future__ import annotations

import numpy as np


def bits_from_bytes(data: bytes | np.ndarray, nbits: int) -> np.ndarray:
    buf = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else np.asarray(data, dtype=np.uint8)
    if nbits > 8 * buf.size:
        raise ValueError(f"need {nbits} bits, have {8 * buf.size}")
    nbytes = (nbits + 7) // 8
    bits = np.unpackbits(buf[:nbytes], bitorder="little")
    return bits[:nbits]


def bytes_from_bits(bits: np.ndarray) -> bytes:
    return np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little").tobytes()


def bits_from_int(x: int, width: int) -> np.ndarray:
    if x >> width:
        raise ValueError(f"a value of {x.bit_length()} bits does not fit in {width} bits")
    data = x.to_bytes((width + 7) // 8 or 1, "little")
    return bits_from_bytes(data, width)


def bit_count(data) -> int:
    """Bits in packed bytes or in a 0/1 array."""
    if isinstance(data, (bytes, bytearray)):
        return 8 * len(data)
    return np.asarray(data).size


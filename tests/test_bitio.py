import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpa import bitio
from qpa.bigint import Words


@st.composite
def streams(draw):
    """Packed bytes, a width gamma, a cut nbits and a word count.

    The count runs up to three words past the last one that nbits
    touches, so words straddle the cut and lie wholly past it.
    """
    data = draw(st.binary(min_size=0, max_size=40))
    gamma = draw(st.integers(1, 70))
    nbits = draw(st.integers(0, 8 * len(data)))
    count = -(-nbits // gamma) + draw(st.integers(0, 3))
    return data, gamma, nbits, count


@given(streams())
def test_read_words_matches_definition(case):
    data, gamma, nbits, count = case
    x = int.from_bytes(data, "little") & ((1 << nbits) - 1)
    expected = [(x >> (k * gamma)) & ((1 << gamma) - 1) for k in range(count)]
    assert Words(data, gamma, count, nbits).ints() == expected
    # a 0/1 array of the same stream reads the same words
    bits = bitio.bits_from_bytes(data, 8 * len(data))
    assert Words(bits, gamma, count, nbits).ints() == expected
    assert Words(bits[:nbits], gamma, count).ints() == expected


def test_read_words_examples():
    # 0x2A3 LSB first, split into 7-bit words: 35, 5, then zeros
    data = (0x2A3).to_bytes(2, "little")
    assert Words(data, 7, 4, 10).ints() == [35, 5, 0, 0]
    # bits above the cut are dropped even inside a byte
    assert Words(b"\xff\xff", 7, 2, 9).ints() == [127, 3]
    assert Words(b"\xff", 3, 3).ints() == [7, 7, 3]
    bits = bitio.bits_from_bytes(b"\xff\xff", 16)
    assert Words(bits, 7, 2, 9).ints() == [127, 3]
    assert Words(bits[:8], 3, 3).ints() == [7, 7, 3]
    assert bitio.bit_count(b"\x00" * 3) == 24
    assert bitio.bit_count(np.zeros(5, dtype=np.uint8)) == 5


def test_read_words_rejects_a_cut_past_the_end():
    with pytest.raises(ValueError):
        Words(b"\x00", 3, 3, 9)
    with pytest.raises(ValueError):
        Words(np.zeros(8, dtype=np.uint8), 3, 3, 9)

"""The full-scale l = N key at 1 and 2 workers, against its pinned digest.

N = l = 10^8 at gamma 756839 runs 133 passes on the block engine, about
10 s and 600 MB per process.  The file name does not match ``test_*.py``,
so the default test run does not collect it; CI runs it with

    python -m pytest tests/full_scale_l_equals_n.py
"""

import hashlib

import pytest

from qpa import bitio, pipeline
from test_acceptance import FULL_KEY_L_EQUALS_N_SHA256, FULL_N, full_scale_input


@pytest.mark.parametrize("workers", [1, 2])
def test_l_equals_n_key_matches_the_reference(workers):
    x, seed, params = full_scale_input(FULL_N)
    assert params.n == params.m + 1 == 133
    key = bitio.bytes_from_bits(pipeline.distill(x, seed, params, workers=workers))
    assert hashlib.sha256(key).hexdigest() == FULL_KEY_L_EQUALS_N_SHA256

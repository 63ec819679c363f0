import errno
import mmap
import os
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qpa import bigint, bitio, engines, mersenne, ntt, oracle, pipeline
from qpa.errors import (AllOnesBlock, InvalidGamma, InvalidRatio,
                        InvalidWorkers, LengthMismatch, SeedTooShort,
                        TooManyBlocks, WorkerFailed)


def random_instance(rng, params, all_ones_policy="retry"):
    """Random (X, seed) pair; redraws X when it trips the rejection rule."""
    seed_bits = rng.integers(0, 2, size=pipeline.required_seed_bits(params),
                             dtype=np.uint8)
    seed = pipeline.seed_from_bits(seed_bits, params)
    while True:
        x = rng.integers(0, 2, size=params.N, dtype=np.uint8)
        try:
            pipeline.split_and_pad(x, params.mersenne)
        except AllOnesBlock:
            if all_ones_policy == "retry":
                continue
            raise
        return x, seed


def test_plan_examples():
    p = pipeline.plan(10 ** 8, 10 ** 7, 756839)
    assert (p.n, p.m, p.l_prime) == (133, 13, 161093)
    assert 13 * 756839 == 9_838_907

    p = pipeline.plan(756839, 756839, 756839)
    assert (p.n, p.m, p.l_prime) == (1, 1, 0)

    p = pipeline.plan(100, 10, 7)
    assert (p.n, p.m, p.l_prime) == (15, 1, 3)


def test_plan_validation():
    with pytest.raises(InvalidRatio):
        pipeline.plan(100, 0, 7)
    with pytest.raises(InvalidRatio):
        pipeline.plan(100, 101, 7)
    with pytest.raises(InvalidGamma):
        pipeline.plan(100, 10, 8)
    # a known exponent too wide for one product at any transform length
    with pytest.raises(InvalidGamma):
        pipeline.plan(10 ** 7, 10 ** 5, 2976221)
    assert pipeline.plan(10 ** 6, 10 ** 5, 756839).n == 2
    assert pipeline.plan(10 ** 6, 10 ** 5, 859433).n == 2


def test_plan_block_limit():
    # n_max = (p64 - 1) // (2L(2^b - 1)^2) at L = 65536, b = 12
    n_max = bigint.max_rows(756839)
    assert n_max == 8392705
    assert pipeline.plan(n_max * 756839, 10 ** 6, 756839).n == n_max
    with pytest.raises(TooManyBlocks):
        pipeline.plan(n_max * 756839 + 1, 10 ** 6, 756839)


@pytest.mark.parametrize("gamma", sorted(mersenne.KNOWN_EXPONENTS))
def test_plan_limits_follow_the_coefficient_bound(gamma):
    # the widest gamma and the most blocks both come from max_rows
    n_max = bigint.max_rows(gamma)
    if n_max == 0:
        with pytest.raises(InvalidGamma):
            pipeline.plan(gamma, gamma, gamma)
        return
    assert pipeline.plan(n_max * gamma, gamma, gamma).n == n_max
    with pytest.raises(TooManyBlocks):
        pipeline.plan(n_max * gamma + 1, gamma, gamma)


def test_required_seed_bits_examples():
    assert pipeline.required_seed_bits(pipeline.plan(7, 7, 7)) == 7
    assert pipeline.required_seed_bits(pipeline.plan(100, 10, 7)) == 126
    assert pipeline.required_seed_bits(
        pipeline.plan(10 ** 8, 10 ** 7, 756839)) == 112_012_172


def test_seed_from_bits_forces_b_odd():
    params = pipeline.plan(14, 10, 7)
    bits = np.zeros(pipeline.required_seed_bits(params), dtype=np.uint8)
    seed = pipeline.seed_from_bits(bits, params)
    assert seed.mh.b == 1 and seed.mh.c == 0


def test_seed_from_bits_length_check():
    params = pipeline.plan(14, 10, 7)
    with pytest.raises(LengthMismatch):
        pipeline.seed_from_bits(np.zeros(10, dtype=np.uint8), params)


def test_seed_from_bits_reads_bytes_like_bits():
    rng = np.random.default_rng(9)
    for l in (10, 14):   # with and without the b, c pair
        params = pipeline.plan(140, l, 7)
        need = pipeline.required_seed_bits(params)
        bits = rng.integers(0, 2, size=need, dtype=np.uint8)
        bits[:7] = 1   # a_1 is the all-ones word
        from_bits = pipeline.seed_from_bits(bits, params)
        # the bytes carry set bits past the seed and three extra bytes
        data = bytearray(bitio.bytes_from_bits(bits))
        data[-1] |= 0xFF << (need % 8) & 0xFF
        from_bytes = pipeline.seed_from_bits(bytes(data) + b"\xff" * 3, params)
        assert from_bytes.A.ints() == from_bits.A.ints()
        assert from_bits.A.ints()[0] == 127
        assert from_bytes.mh == from_bits.mh
        # the all-ones a_1 hashes as 0: both keys are those of a_1 = 0
        bits[:7] = 0
        zeroed = pipeline.seed_from_bits(bits, params)
        x = rng.integers(0, 2, size=params.N, dtype=np.uint8)
        x[::7] = 0   # no block is all ones
        expected = oracle.naive_distill(x, zeroed, params)
        for seed in (from_bits, from_bytes):
            assert np.array_equal(pipeline.distill(x, seed, params), expected)
        short = bitio.bytes_from_bits(bits)[:need // 8 - 1]
        with pytest.raises(LengthMismatch):
            pipeline.seed_from_bits(short, params)
        with pytest.raises(LengthMismatch):
            pipeline.seed_from_bits(bits[:-1], params)


def test_distill_reads_bytes_like_bits():
    # N = 3 * 127 + 5 is not a multiple of 8; every bit of the last byte
    # above N is set, and extra bytes follow
    rng = np.random.default_rng(10)
    params = pipeline.plan(3 * 127 + 5, 200, 127)
    x, seed = random_instance(rng, params)
    data = bytearray(bitio.bytes_from_bits(x))
    data[-1] |= 0xFF << (params.N % 8) & 0xFF
    data += b"\xff" * 4
    expected = oracle.naive_distill(x, seed, params)
    assert np.array_equal(pipeline.distill(bytes(data), seed, params), expected)
    assert np.array_equal(pipeline.distill(x, seed, params), expected)
    with pytest.raises(ValueError):
        pipeline.distill(x[:-1], seed, params)


def test_all_zero_input_gives_all_zero_key():
    params = pipeline.plan(140, 30, 7)
    seed = pipeline.seed_from_bits(
        np.zeros(pipeline.required_seed_bits(params), dtype=np.uint8), params)
    out = pipeline.distill(np.zeros(140, dtype=np.uint8), seed, params)
    assert out.tolist() == [0] * 30


@pytest.mark.parametrize("gamma,N,l", [
    (7, 140, 10),     # mixed
    (7, 140, 14),     # l' = 0, two full blocks
    (7, 100, 3),      # m = 0, tail only
    (31, 500, 500),   # ratio 1.0
    (127, 4000, 300),
])
def test_distill_matches_naive(gamma, N, l):
    rng = np.random.default_rng(gamma * 1000 + l)
    params = pipeline.plan(N, l, gamma)
    for _ in range(10):
        x, seed = random_instance(rng, params)
        fast = pipeline.distill(x, seed, params)
        assert len(fast) == l
        assert np.array_equal(fast, oracle.naive_distill(x, seed, params))


# gamma, blocks, output bits, workers, transform length and the engine's B
# (0: the MAC)
ALL_ONES_PLANS = [
    (127, 70, 13 * 127 + 50, 1, 16, 32),
    (127, 70, 13 * 127 + 50, 2, 16, 32),
    (19937, 133, 13 * 19937 + 77, 2, 1024, 32),
    (756839, 3, 2 * 756839 + 5, 1, 40960, 0),
]


@pytest.mark.parametrize("gamma,n,l,workers,length,block", ALL_ONES_PLANS)
def test_all_ones_rows_hash_as_zero(gamma, n, l, workers, length, block, monkeypatch):
    """Key blocks and A-words of gamma ones give the key of the input with them zeroed.

    No row is rewritten: each reads as 2^gamma - 1, which the ring
    products, exact modulo 2^gamma - 1, take as 0.
    """
    fake_cpus(monkeypatch, workers)
    params = pipeline.plan(n * gamma, l, gamma)
    assert params.L == length
    assert pipeline.schedule(params, workers).size == block
    rng = np.random.default_rng(gamma + workers)
    x = rng.integers(0, 2, size=params.N, dtype=np.uint8)
    seed_bits = rng.integers(0, 2, size=pipeline.required_seed_bits(params), dtype=np.uint8)
    zeroed_x, zeroed_bits = x.copy(), seed_bits.copy()
    words = params.seed_words
    for bits, zeroed, rows in ((x, zeroed_x, (0, n - 1)),
                               (seed_bits, zeroed_bits, (0, words // 2, words - 1))):
        for r in rows:
            bits[r * gamma:(r + 1) * gamma] = 1
            zeroed[r * gamma:(r + 1) * gamma] = 0
    seed = pipeline.seed_from_bits(seed_bits, params)
    zeroed_seed = pipeline.seed_from_bits(zeroed_bits, params)
    assert seed.A[words - 1:].ints() == [(1 << gamma) - 1]
    expected = pipeline.distill(zeroed_x, zeroed_seed, params, workers=workers)
    with pytest.raises(AllOnesBlock) as info:
        pipeline.distill(x, seed, params, workers=workers)
    assert info.value.indices == [1, n]
    got = pipeline.distill(x, seed, params, workers=workers, all_ones_policy="zero")
    assert np.array_equal(got, expected)
    # the oracle takes seconds at gamma 756839, where
    # test_distill_matches_naive_at_the_production_gamma runs it once
    if gamma < 10 ** 5:
        assert np.array_equal(expected, oracle.naive_distill(zeroed_x, zeroed_seed, params))


def test_distill_matches_naive_at_the_production_gamma(monkeypatch):
    # a mixed plan of 3 blocks at L = 40960, one oracle key for both
    # worker counts
    fake_cpus(monkeypatch, 2)
    gamma = 756839
    params = pipeline.plan(3 * gamma, 2 * gamma + 5, gamma)
    x, seed = random_instance(np.random.default_rng(3), params)
    expected = oracle.naive_distill(x, seed, params)
    for workers in (1, 2):
        assert np.array_equal(pipeline.distill(x, seed, params, workers=workers), expected)


def packed(values, gamma):
    """Packed little-endian bytes of gamma-bit values, the first lowest."""
    total = sum(v << (k * gamma) for k, v in enumerate(values))
    return total.to_bytes(-(-len(values) * gamma // 8), "little")


@pytest.mark.parametrize("gamma,n,width", [(859433, 4, 21), (1257787, 5, 20),
                                           (1398269, 8, 22)])
def test_distill_is_exact_at_the_widest_exponents(gamma, n, width, monkeypatch):
    # exponents past gamma 756839, each with a mixed plan (one full pass
    # and a 5-bit tail), against plain-int sums: 859433 at L = 40960, the
    # others at 65536; 8 blocks are the most that 22-bit digits sum exactly
    fake_cpus(monkeypatch, 2)
    params = pipeline.plan(n * gamma, gamma + 5, gamma)
    assert bigint.transform_shape(gamma, n) == (40960 if gamma == 859433 else 65536, width)
    assert n <= bigint.max_rows(gamma)
    p = (1 << gamma) - 1
    rng = np.random.default_rng(gamma)
    xs, coeffs = ([int.from_bytes(rng.bytes(gamma // 8 + 1), "little") % p for _ in range(k)]
                  for k in (n, params.seed_words + 2))
    seed = pipeline.seed_from_bits(packed(coeffs, gamma), params)
    y1, y2 = (oracle._mod_mersenne(sum(v * coeffs[k + i] for k, v in enumerate(xs)), gamma)
              for i in range(2))
    b, c = coeffs[-2] | 1, coeffs[-1]
    z = ((b * y2 + c) & p) >> (gamma - 5)  # & p: modulo 2^gamma
    for workers in (1, 2):
        key = pipeline.distill(packed(xs, gamma), seed, params, workers=workers)
        assert bitio.bytes_from_bits(key) == (y1 | z << gamma).to_bytes(-(-params.l // 8), "little")


def test_output_length_always_l():
    rng = np.random.default_rng(42)
    for l in (1, 126, 127, 128, 652):
        params = pipeline.plan(127 * 20, l, 127)
        x, seed = random_instance(rng, params)
        assert len(pipeline.distill(x, seed, params)) == l


def fake_cpus(monkeypatch, count):
    """Let the fan-out use up to ``count`` shares on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def deadline():
    """Fail, instead of hanging, a test that runs past 60 s."""
    def expire(signum, frame):
        raise TimeoutError("test ran past its 60 s deadline")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_count_does_not_change_output(monkeypatch, tmp_path, deadline):
    # more shares than the 2 CPUs a small machine has: fill batches, column
    # slices of L = 16 that 3 shares do not divide, and passes over up to 4
    # processes
    fake_cpus(monkeypatch, 4)
    # every process appends one byte per transformed row to this file, so
    # the split is seen to transform each row once and nothing twice
    log = os.open(tmp_path / "rows", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    for attr, tag in (("ntt_forward", b"f"), ("ntt_inverse", b"i")):
        def logged(v, real=getattr(ntt, attr), tag=tag, **kwargs):
            os.write(log, tag * (v.shape[0] if v.ndim > 1 else 1))
            return real(v, **kwargs)
        monkeypatch.setattr(ntt, attr, logged)
    rng = np.random.default_rng(5)
    try:
        # mixed, l' = 0, m = 0 on the MAC, then 14 passes over 70 rows on
        # the block engine: sections of 19 rows and a partial one
        for N, l in ((127 * 30, 127 * 3 + 50), (127 * 30, 127 * 3), (127 * 30, 50),
                     (127 * 70, 127 * 13 + 50)):
            params = pipeline.plan(N, l, 127)
            x, _ = random_instance(rng, params)
            seed_bits = rng.integers(0, 2, size=pipeline.required_seed_bits(params),
                                     dtype=np.uint8)
            outs = []
            for w in (1, 2, 3, 4):
                os.ftruncate(log, 0)
                # fresh seed words, so every run transforms its own rows
                seed = pipeline.seed_from_bits(seed_bits, params)
                outs.append(pipeline.distill(x, seed, params, workers=w))
                rows = (tmp_path / "rows").read_bytes()
                assert (rows.count(b"f"), rows.count(b"i")) == (
                    params.n + params.seed_words, params.pass_count), (params, w)
            assert all(np.array_equal(outs[0], o) for o in outs[1:]), params
    finally:
        os.close(log)
    assert_no_child_left()


@pytest.mark.parametrize("N,l,gamma", [
    # 6 blocks and P = 5: one key batch and one seed batch over up to 4
    # shares, so some fill nothing
    (127 * 6, 127 * 4 + 10, 127),
    # P = n, the most passes a plan has (bigint tests take P > n)
    (127 * 3, 127 * 3, 127),
    # one step of 150 rows at L = 256
    (4253 * 150 - 5, 4253 * 2 + 7, 4253),
    # two steps at L = 1024, so each share's seed moves cross barriers: the
    # MAC in steps of 150 rows, and the block engine in steps of 152 rows,
    # eight sections of 19, and 148, whose last section is partial
    (19937 * 300 - 7, 19937 * 2 + 3, 19937),
    (19937 * 300, 19937 * 13 + 11, 19937),
    # mid's shape: two MAC steps at L = 40960, which 3 shares do not
    # divide, 18 rows in three fill batches and then 9
    (756839 * 27, 756839 * 2 + 5, 756839),
])
def test_split_edge_cases_transform_each_row_once(N, l, gamma, monkeypatch, tmp_path,
                                                  deadline):
    fake_cpus(monkeypatch, 4)
    log = os.open(tmp_path / "rows", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    for attr, tag in (("ntt_forward", b"f"), ("ntt_inverse", b"i")):
        def logged(v, real=getattr(ntt, attr), tag=tag, **kwargs):
            os.write(log, tag * (v.shape[0] if v.ndim > 1 else 1))
            return real(v, **kwargs)
        monkeypatch.setattr(ntt, attr, logged)
    params = pipeline.plan(N, l, gamma)
    x, seed = random_instance(np.random.default_rng(N), params)
    # the oracle takes seconds at gamma 756839: there the 1-worker key
    # stands in for it, which test_distill_matches_naive_at_the_production_gamma
    # checks on a smaller plan
    expected = None if gamma > 10 ** 5 else bitio.bytes_from_bits(
        oracle.naive_distill(x, seed, params))
    try:
        for w in (1, 2, 3, 4):
            os.ftruncate(log, 0)
            out = bitio.bytes_from_bits(pipeline.distill(x, seed, params, workers=w))
            expected = expected or out
            assert out == expected, (params, w)
            rows = (tmp_path / "rows").read_bytes()
            assert (rows.count(b"f"), rows.count(b"i")) == (
                params.n + params.seed_words, params.pass_count), (params, w)
    finally:
        os.close(log)
    assert_no_child_left()


def test_one_share_forks_and_maps_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("one share must not fork or map")

    fake_cpus(monkeypatch, 4)
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(mmap, "mmap", refuse)
    params = pipeline.plan(127 * 20, 127 * 3 + 50, 127)
    x, seed = random_instance(np.random.default_rng(18), params)
    assert np.array_equal(pipeline.distill(x, seed, params, workers=1),
                          oracle.naive_distill(x, seed, params))


def test_working_set_does_not_grow_with_the_blocks():
    # the traced peak covers numpy buffers; from a full step of key rows,
    # 4n blocks add no spectra to it
    gamma = 19937
    length = bigint.transform_shape(gamma, 1)[0]
    step = ntt.batch_rows(length)   # a step of key rows
    rng = np.random.default_rng(19)
    for m, n, size in ((2, step, 0),                  # the MAC: a step of key rows
                       (13, step // 19 * 19, 32)):    # the block engine: 19-row sections
        runs = [pipeline.schedule(pipeline.plan(gamma * rows, gamma * m + 100, gamma), 1)
                for rows in (n, 4 * n)]
        assert {run.params.L for run in runs} == {length}
        assert runs[0].size == runs[1].size == size
        assert (runs[0].window, runs[0].engine, runs[0].buffer) == (
            runs[1].window, runs[1].engine, runs[1].buffer)
        peaks = []
        for run in runs:
            params = run.params
            blocks = pipeline.split_and_pad(rng.bytes(-(-params.N // 8)), params.mersenne,
                                            nbits=params.N)
            seed = pipeline.seed_from_bits(
                rng.bytes(-(-pipeline.required_seed_bits(params) // 8)), params)
            tracemalloc.start()
            try:
                pipeline.distill_blocks(blocks, seed, params, workers=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 8 * length * 8, (m, peaks)


@pytest.mark.parametrize("n", [256, 257, 300])
def test_one_transform_length_per_plan(n, monkeypatch, deadline):
    # at gamma 44497, L = 2048 sums up to 256 rows and L = 2560 more.  At
    # n = 300 a 2-worker run's fill batches hold at most 102 blocks, which
    # alone would fit L = 2048, but every pass sums all of them, so the
    # plan's L holds
    gamma = 44497
    assert bigint.transform_shape(gamma, 256)[0] == bigint.transform_shape(gamma, 150)[0] == 2048
    assert bigint.transform_shape(gamma, 257)[0] == 2560
    fake_cpus(monkeypatch, 2)
    # the lengths the parent's share transforms at, its fills' and the sums'
    widths = set()
    for attr in ("ntt_forward", "ntt_inverse"):
        def logged(v, real=getattr(ntt, attr), **kwargs):
            widths.add(v.shape[-1])
            return real(v, **kwargs)
        monkeypatch.setattr(ntt, attr, logged)
    params = pipeline.plan(gamma * n - 3, gamma * 2 + 11, gamma)
    x, seed = random_instance(np.random.default_rng(n), params)
    expected = bitio.bytes_from_bits(oracle.naive_distill(x, seed, params))
    for w in (1, 2):
        assert bitio.bytes_from_bits(pipeline.distill(x, seed, params, workers=w)) == expected
    assert widths == {2048 if n <= 256 else 2560}
    assert_no_child_left()


def test_share_count_is_capped_by_the_rows(monkeypatch):
    # 64 workers and 64 CPUs on a plan of 2 blocks and 2 seed words: fewer
    # children than rows, and the counter stops a runaway fan-out before
    # it starts them
    params = pipeline.plan(127 * 2, 100, 127)
    assert (params.n, params.m, params.seed_words) == (2, 0, 2)
    rows = params.n + params.seed_words
    x, seed = random_instance(np.random.default_rng(14), params)
    expected = pipeline.distill(x, seed, params, workers=1)
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        assert len(forks) < rows, "forked as many children as rows"
        return real_fork()

    fake_cpus(monkeypatch, 64)
    monkeypatch.setattr(os, "fork", counting_fork)
    assert np.array_equal(pipeline.distill(x, seed, params, workers=64), expected)
    assert 0 < len(forks) < rows
    assert_no_child_left()
    # one usable CPU: nothing is forked
    forks.clear()
    fake_cpus(monkeypatch, 1)
    assert np.array_equal(pipeline.distill(x, seed, params, workers=64), expected)
    assert forks == []


# where a share fails: before the first barrier, or in the engine's add
# after it, while the other shares wait at the next
FAILURE_POINTS = ((bigint, "pass_spectra"), (engines.Mac, "add"))


def past_the_barrier(*args):
    raise AssertionError("share 0 went past a barrier that a child never reached")


@pytest.mark.parametrize("fail", ["exit", "raise", "kill"])
def test_worker_failure_is_raised_and_reaped(fail, monkeypatch, capfd, deadline):
    # two children fail: the first one collected raises WorkerFailed, and
    # the other is reaped on the way out
    fake_cpus(monkeypatch, 3)
    parent = os.getpid()
    params = pipeline.plan(127 * 12, 127 * 3 + 50, 127)
    x, seed = random_instance(np.random.default_rng(15), params)
    status = {"exit": "9", "raise": "1", "kill": "-9"}[fail]
    for owner, attr in FAILURE_POINTS:
        def failing(*args, real=getattr(owner, attr)):
            if os.getpid() != parent:
                if fail == "exit":
                    os._exit(9)
                if fail == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise ZeroDivisionError("pass failed in a child")
            return real(*args)

        with monkeypatch.context() as patch:
            patch.setattr(owner, attr, failing)
            if owner is bigint:
                # the parent stops at the first barrier, which no child reaches
                patch.setattr(engines.Mac, "add", past_the_barrier)
            with pytest.raises(WorkerFailed, match=f"exited with status {status}$"):
                pipeline.distill(x, seed, params, workers=3)
        assert_no_child_left()
        if fail == "raise":
            assert "ZeroDivisionError: pass failed in a child" in capfd.readouterr().err


def test_failure_in_share_0_is_raised_and_reaped(monkeypatch, deadline):
    # the caller's own share raises while its children still run or wait
    # at a barrier: that error propagates, not WorkerFailed, and the
    # children are killed and reaped
    fake_cpus(monkeypatch, 3)
    parent = os.getpid()
    params = pipeline.plan(127 * 12, 127 * 3 + 50, 127)
    x, seed = random_instance(np.random.default_rng(15), params)
    for owner, attr in FAILURE_POINTS:
        def failing(*args, real=getattr(owner, attr)):
            if os.getpid() == parent:
                raise ZeroDivisionError("pass failed in the parent")
            if owner is bigint:
                time.sleep(90)   # past the deadline: only the kill ends it in time
            return real(*args)

        with monkeypatch.context() as patch:
            patch.setattr(owner, attr, failing)
            with pytest.raises(ZeroDivisionError, match="pass failed in the parent"):
                pipeline.distill(x, seed, params, workers=3)
        assert_no_child_left()


def test_a_child_ends_with_its_parent(tmp_path, deadline):
    # a run at 2 shares whose share 0 sleeps in its first engine add: once
    # the parent is killed, the child, waiting at the next barrier or
    # reaching it, sees EOF and exits there, before its inverse transforms,
    # with no traceback
    script = tmp_path / "run.py"
    script.write_text(textwrap.dedent("""
        import os, time
        import numpy as np
        from qpa import bigint, engines, pipeline
        os.sched_getaffinity = lambda pid: {0, 1}
        parent, real_fork, real_add = os.getpid(), os.fork, engines.Mac.add
        real_to_ints = bigint.to_ints

        def fork():
            pid = real_fork()
            if pid:
                print(pid, flush=True)
            return pid

        def add(*args):
            if os.getpid() == parent:
                print("held", flush=True)
                time.sleep(60)
            return real_add(*args)

        def to_ints(*args):
            print("inverted", flush=True)
            return real_to_ints(*args)

        os.fork, engines.Mac.add, bigint.to_ints = fork, add, to_ints
        params = pipeline.plan(127 * 12, 127 * 3 + 50, 127)
        rng = np.random.default_rng(0)
        seed = pipeline.seed_from_bits(rng.bytes(-(-pipeline.required_seed_bits(params) // 8)),
                                       params)
        pipeline.distill(rng.bytes(-(-params.N // 8)), seed, params, workers=2)
    """))
    path = [str(Path(pipeline.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    child = None
    with subprocess.Popen([sys.executable, script], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)}) as run:
        try:
            child = int(run.stdout.readline())
            assert run.stdout.readline() == "held\n"
            assert running(child)
            run.kill()
            run.wait()
            end = time.monotonic() + 5
            while running(child) and time.monotonic() < end:
                time.sleep(0.05)
            assert not running(child)
            assert run.stdout.read() == ""
            assert "Traceback" not in run.stderr.read()
        finally:
            run.kill()
            if child and running(child):
                os.kill(child, signal.SIGKILL)


def running(pid):
    """Whether ``pid`` is a live process: neither gone nor a zombie left to its new parent."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_fork_failure_is_a_worker_failure(monkeypatch):
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    fake_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    params = pipeline.plan(127 * 12, 127 * 3 + 50, 127)
    x, seed = random_instance(np.random.default_rng(17), params)
    open_fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(WorkerFailed, match="could not start a worker process"):
        pipeline.distill(x, seed, params, workers=2)
    assert len(os.listdir("/proc/self/fd")) == open_fds


def test_short_seed_is_rejected_before_any_fan_out(monkeypatch):
    fake_cpus(monkeypatch, 2)
    params = pipeline.plan(127 * 10, 127 * 2 + 5, 127)
    x, seed = random_instance(np.random.default_rng(16), params)
    blocks = pipeline.split_and_pad(x, params.mersenne)
    short = pipeline.SeedMaterial(A=seed.A[:-1], mh=seed.mh)
    for workers in (1, 2):
        with pytest.raises(SeedTooShort):
            pipeline.distill_blocks(blocks, short, params, workers=workers)


def test_workers_env_default(monkeypatch):
    fake_cpus(monkeypatch, 8)
    params = pipeline.plan(127 * 20, 100, 127)
    monkeypatch.setenv("QPA_WORKERS", "3")
    assert pipeline.schedule(params).shares == pipeline.schedule(params, None).shares == 3
    assert pipeline.schedule(params, 2).shares == 2
    for bad in ("abc", "0", "-2", ""):
        monkeypatch.setenv("QPA_WORKERS", bad)
        with pytest.raises(InvalidWorkers):
            pipeline.schedule(params)
    for bad in (0, -1):
        with pytest.raises(InvalidWorkers):
            pipeline.schedule(params, bad)
    monkeypatch.delenv("QPA_WORKERS")
    assert pipeline.schedule(params).shares == 1


def test_schedule_caps_the_shares_and_splits_the_columns(monkeypatch):
    # up to the usable CPUs, the blocks and the L = 16 columns, each share
    # on L * k // S .. L * (k + 1) // S - 1, with one engine for the plan
    # at any share count: the MAC for 5 passes over 10 blocks, the block
    # engine, B = 32, for 14 over 70
    for blocks, passes, size in ((10, 5, 0), (70, 14, 32)):
        params = pipeline.plan(127 * blocks, 127 * (passes - 1) + 5, 127)
        assert (params.n, params.pass_count, params.L) == (blocks, passes, 16)
        for cpus, workers, shares in ((4, 3, 3), (2, 3, 2), (64, 64, min(blocks, 16)),
                                      (1, 8, 1)):
            fake_cpus(monkeypatch, cpus)
            run = pipeline.schedule(params, workers)
            assert (run.shares, run.size) == (shares, size)
            cols = [bigint.columns(k, shares, 16) for k in range(shares)]
            assert [c.start for c in cols] == [16 * k // shares for k in range(shares)]
            assert cols[-1].stop == 16 and all(a.stop == b.start for a, b in zip(cols, cols[1:]))
            one = pipeline._engine(size, passes)
            keys = bigint.steps(one.section, blocks, 16)[1]
            assert run.window == 8 * (2 * keys + passes - 1) * 16
            assert run.engine == tuple(one.buffer_bytes(keys, c.stop - c.start) for c in cols)


@pytest.mark.parametrize("cpus, shares", [(3, 3), (None, 1)])
def test_schedule_without_sched_getaffinity_counts_all_cpus(monkeypatch, cpus, shares):
    # macOS has no os.sched_getaffinity: the shares are capped by
    # os.cpu_count(), or run in one process where that is unknown
    params = pipeline.plan(127 * 10, 127 * 4 + 5, 127)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert pipeline.schedule(params, 8).shares == shares
    assert pipeline.schedule(params, 2).shares == min(2, shares)


def test_pass_and_multiplication_counts(monkeypatch):
    # the perf model: each block and seed word is transformed once, each
    # pass sums its products in the spectrum and inverts once, and nothing
    # else multiplies
    counts = dict.fromkeys(("ntt_forward", "ntt_inverse", "mul_ntt"), 0)

    def counting(module, attr, weight):
        real = getattr(module, attr)

        def wrapper(*args, **kwargs):
            counts[attr] += weight(args[0])
            return real(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapper)

    def rows(arr):
        return arr.shape[0] if arr.ndim > 1 else 1

    counting(ntt, "ntt_forward", rows)
    counting(ntt, "ntt_inverse", rows)
    counting(bigint, "mul_ntt", lambda _: 1)
    rng = np.random.default_rng(6)
    # l' = 0, m = 0 and mixed on the MAC, then mixed on the block engine,
    # whose row-axis transforms are not transforms of length L
    shapes = {(False, 2, 10): 127 * 2, (True, 0, 10): 100, (True, 2, 10): 127 * 2 + 5,
              (True, 13, 40): 127 * 13 + 5}
    for (has_tail, m, n), l in shapes.items():
        params = pipeline.plan(127 * n, l, 127)
        assert (params.l_prime > 0, params.m) == (has_tail, m)
        assert bool(engines.block_size(n, params.pass_count)) == (m == 13)
        x, _ = random_instance(rng, params)
        seed_bits = rng.integers(0, 2, size=pipeline.required_seed_bits(params),
                                 dtype=np.uint8)
        # one operation: seed ingest, then the distillation
        counts.update(ntt_forward=0, ntt_inverse=0, mul_ntt=0)
        pipeline.distill(x, pipeline.seed_from_bits(seed_bits, params), params)
        assert counts == {"ntt_forward": params.n + params.seed_words,
                          "ntt_inverse": params.pass_count,
                          "mul_ntt": 0}, (params, counts)


def test_distill_blocks_rejects_wrong_block_count():
    params = pipeline.plan(127 * 10, 100, 127)
    rng = np.random.default_rng(7)
    _, seed = random_instance(rng, params)
    blocks = bigint.Words.from_ints([1, 2, 3], params.gamma)
    with pytest.raises(LengthMismatch):
        pipeline.distill_blocks(blocks, seed, params)


def y_blocks(key, params):
    """y_1 .. y_m, the key's first m gamma-bit slices as ints."""
    g = params.gamma
    return [int.from_bytes(bitio.bytes_from_bits(key[i * g:(i + 1) * g]), "little")
            for i in range(params.m)]


def test_full_block_additivity_small_scale():
    # y-block additivity, the same probe the acceptance suite runs at
    # production gamma
    gamma = 127
    rng = np.random.default_rng(8)
    params = pipeline.plan(gamma * 8, gamma * 2, gamma)
    p = params.mersenne.p
    _, seed = random_instance(rng, params)
    x1 = rng.integers(0, 2, size=params.N, dtype=np.uint8)
    x2 = rng.integers(0, 2, size=params.N, dtype=np.uint8)
    b1 = pipeline.split_and_pad(x1, params.mersenne)
    b2 = pipeline.split_and_pad(x2, params.mersenne)
    summed = bigint.Words.from_ints(
        [(a + b) % p for a, b in zip(b1.ints(), b2.ints())],
        params.gamma)
    r1, r2, rs = (y_blocks(pipeline.distill_blocks(b, seed, params).key_bits, params)
                  for b in (b1, b2, summed))
    for ya, yb, ys in zip(r1, r2, rs):
        assert ys == (ya + yb) % p

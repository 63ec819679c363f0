import errno
import os
import signal

import numpy as np
import pytest

from qpa import bigint, bitio, dm3h, ntt, oracle, pipeline
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
    # a known exponent whose blocks overflow the largest transform
    with pytest.raises(InvalidGamma):
        pipeline.plan(10 ** 6, 10 ** 5, 859433)
    assert pipeline.plan(10 ** 6, 10 ** 5, 756839).n == 2


def test_plan_block_limit():
    # n_max = (p64 - 1) // (2L(2^b - 1)^2) at L = 65536, b = 12
    n_max = bigint.max_rows(756839)
    assert n_max == 8392705
    assert pipeline.plan(n_max * 756839, 10 ** 6, 756839).n == n_max
    with pytest.raises(TooManyBlocks):
        pipeline.plan(n_max * 756839 + 1, 10 ** 6, 756839)


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
        assert from_bytes.A.values == from_bits.A.values
        assert from_bits.A.values[0] == 0
        assert from_bytes.mh == from_bits.mh
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
    # more shares than the 2 CPUs a small machine has: uneven row ranges
    # and round-robin passes over up to 3 processes
    fake_cpus(monkeypatch, 4)
    # every process appends one byte per transformed row to this file, so
    # the split is seen to transform each row once and nothing twice
    log = os.open(tmp_path / "rows", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    for attr, tag in (("ntt_forward", b"f"), ("ntt_inverse", b"i")):
        def logged(v, real=getattr(ntt, attr), tag=tag):
            os.write(log, tag * (v.shape[0] if v.ndim > 1 else 1))
            return real(v)
        monkeypatch.setattr(ntt, attr, logged)
    rng = np.random.default_rng(5)
    try:
        for l in (127 * 3 + 50, 127 * 3, 50):   # mixed, l' = 0, m = 0
            params = pipeline.plan(127 * 30, l, 127)
            x, _ = random_instance(rng, params)
            seed_bits = rng.integers(0, 2, size=pipeline.required_seed_bits(params),
                                     dtype=np.uint8)
            outs = []
            for w in (1, 2, 3):
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


@pytest.mark.parametrize("fail", ["exit", "raise"])
def test_worker_failure_is_raised_and_reaped(fail, monkeypatch, capfd, deadline):
    # two children fail: the first one collected raises WorkerFailed, and
    # the other is reaped on the way out
    fake_cpus(monkeypatch, 3)
    parent = os.getpid()
    real_pass = dm3h.mmh_pass

    def mmh_pass(*args):
        if os.getpid() != parent:
            if fail == "exit":
                os._exit(9)
            raise ZeroDivisionError("pass failed in a child")
        return real_pass(*args)

    monkeypatch.setattr(dm3h, "mmh_pass", mmh_pass)
    params = pipeline.plan(127 * 12, 127 * 3 + 50, 127)
    x, seed = random_instance(np.random.default_rng(15), params)
    with pytest.raises(WorkerFailed, match="exited with status 9" if fail == "exit"
                       else "exited with status 1"):
        pipeline.distill(x, seed, params, workers=3)
    assert_no_child_left()
    if fail == "raise":
        assert "ZeroDivisionError: pass failed in a child" in capfd.readouterr().err


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
    short = pipeline.SeedMaterial(
        A=bigint.Words.from_ints(seed.A.values[:-1], params.gamma), mh=seed.mh)
    for workers in (1, 2):
        with pytest.raises(SeedTooShort):
            pipeline.distill_blocks(blocks, short, params, workers=workers)


def test_workers_env_default(monkeypatch):
    monkeypatch.setenv("QPA_WORKERS", "3")
    assert pipeline._resolve_workers(None) == 3
    assert pipeline._resolve_workers(2) == 2
    for bad in ("abc", "0", "-2", ""):
        monkeypatch.setenv("QPA_WORKERS", bad)
        with pytest.raises(InvalidWorkers):
            pipeline._resolve_workers(None)
    for bad in (0, -1):
        with pytest.raises(InvalidWorkers):
            pipeline._resolve_workers(bad)


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
    shapes = {(False, 2): 127 * 2, (True, 0): 100, (True, 2): 127 * 2 + 5}
    for (has_tail, m), l in shapes.items():
        params = pipeline.plan(127 * 10, l, 127)
        assert (params.l_prime > 0, params.m) == (has_tail, m)
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
        [(a + b) % p for a, b in zip(b1.values, b2.values)],
        params.gamma)
    r1 = pipeline.distill_blocks(b1, seed, params)
    r2 = pipeline.distill_blocks(b2, seed, params)
    rs = pipeline.distill_blocks(summed, seed, params)
    for ya, yb, ys in zip(r1.y_blocks, r2.y_blocks, rs.y_blocks):
        assert ys.value == (ya.value + yb.value) % p

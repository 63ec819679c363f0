import errno
import mmap
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qpa
from qpa import bigint, bitio, cli, pipeline


def run(argv):
    return cli.main([str(a) for a in argv])


def test_plan_output(capsys, monkeypatch):
    monkeypatch.delenv("QPA_WORKERS", raising=False)
    assert run(["plan", "--in-bits", 10 ** 8, "--out-bits", 10 ** 7]) == 0
    out = capsys.readouterr().out
    assert "n         = 133" in out
    assert "m         = 13" in out
    assert "l_prime   = 161093" in out
    assert "seed bits = 112012172" in out
    # at 1 worker, 14 passes over the one range of 133 rows take the block
    # engine: a window of 19 key rows (a section) and 19 + 13 seed rows, a
    # (32, L) accumulator of 40960 values, and a stack of 17 rows of the
    # key and seed columns, twice 16384 values.  The buffer holds the 14
    # pass rows and their residues of ceil(756839 / 8) bytes
    assert "L         = 40960" in out
    assert "b         = 19" in out
    assert "shares    = 1" in out
    assert ("range 1   = blocks 1-133 on the block engine, B = 32, holding "
            f"{83 * 40960 * 8 + 17 * 2 * 16384 * 8} bytes") in out
    assert f"buffer    = {14 * 40960 * 8 + 14 * 94605} bytes" in out
    assert "in one process" not in out
    # the same 133 blocks at gamma 19937 fit L = 1024 with 20-bit digits
    assert run(["plan", "--in-bits", 2_651_621, "--out-bits", 265_162,
                "--gamma-exp", 19937]) == 0
    out = capsys.readouterr().out
    assert "n         = 133" in out
    assert "L         = 1024" in out
    assert "b         = 20" in out
    # the 1e8-bit headline at gamma 1257787: 80 blocks of 20-bit digits
    assert run(["plan", "--in-bits", 10 ** 8, "--out-bits", 10 ** 7,
                "--gamma-exp", 1257787]) == 0
    out = capsys.readouterr().out
    assert "n         = 80" in out
    assert "L         = 65536" in out
    assert "b         = 20" in out
    # one pass over 40 rows takes the MAC: 18 key rows, three transform
    # batches of 6, and 18 seed rows, and the buffer holds the pass row
    # and its residue
    assert run(["plan", "--in-bits", 40 * 756839, "--out-bits", 100]) == 0
    out = capsys.readouterr().out
    assert f"range 1   = blocks 1-40 on the MAC, holding {36 * 40960 * 8} bytes" in out
    assert f"buffer    = {40960 * 8 + 94605} bytes" in out


def printed_ranges(out):
    """(first block, last block, B) of each range ``qpa plan`` prints; B = 0 is the MAC."""
    return [(int(first), int(last), int(size or 0)) for first, last, size in re.findall(
        r"^range \d+ += blocks (\d+)-(\d+) on the (?:block engine, B = (\d+)|MAC),", out, re.M)]


def test_plan_prints_the_schedule_a_run_takes(tmp_path, monkeypatch, capsys):
    # 14 passes at gamma 127: 70 blocks take the block engine in the one
    # range at 1 worker and in both 35-block ranges at 2, and the MAC in
    # the 23- and 24-block ranges at 3; 50 blocks take the block engine at
    # 1 worker, but each 25-block range at 2 takes the MAC.  As criterion
    # 4 logs its engines, every process appends the range and B of each
    # pass_spectra call it makes to one file
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
    log = os.open(tmp_path / "ranges", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    real_stream, real_mmap, mapped = bigint.pass_spectra, mmap.mmap, []

    def pass_spectra(x, seed_fill, engine, out, start, stop):
        os.write(log, f"{start + 1} {stop} {getattr(engine, 'size', 0)}\n".encode())
        return real_stream(x, seed_fill, engine, out, start, stop)

    def mapping(fileno, length, *args, **kwargs):
        mapped.append(length)
        return real_mmap(fileno, length, *args, **kwargs)

    monkeypatch.setattr(bigint, "pass_spectra", pass_spectra)
    monkeypatch.setattr(mmap, "mmap", mapping)
    runs = {(70, 1): [(1, 70, 32)], (70, 2): [(1, 35, 32), (36, 70, 32)],
            (70, 3): [(1, 23, 0), (24, 46, 0), (47, 70, 0)],
            (50, 1): [(1, 50, 32)], (50, 2): [(1, 25, 0), (26, 50, 0)]}
    rng = np.random.default_rng(22)
    try:
        for (n, workers), ranges in runs.items():
            plan = ["--in-bits", 127 * n, "--out-bits", 127 * 13 + 50, "--gamma-exp", 127]
            assert run(["plan", *plan, "--workers", workers]) == 0
            out = capsys.readouterr().out
            assert f"shares    = {workers}" in out
            assert printed_ranges(out) == ranges, out
            assert "in one process" not in out
            buffer = int(re.search(r"^buffer    = (\d+) bytes$", out, re.M).group(1))
            (tmp_path / "key.bin").write_bytes(rng.bytes(-(-127 * n // 8)))
            assert run(["gen-seed", *plan, "--output", tmp_path / "seed.bin"]) == 0
            os.ftruncate(log, 0)
            mapped.clear()
            assert run(["distill", *plan, "--input", tmp_path / "key.bin",
                        "--seed", tmp_path / "seed.bin", "--output", tmp_path / "out.bin",
                        "--workers", workers]) == 0
            logged = sorted(tuple(map(int, line.split()))
                            for line in (tmp_path / "ranges").read_text().splitlines())
            assert logged == ranges
            # one share maps nothing; more map the buffer the plan printed
            assert mapped == ([buffer] if workers > 1 else [])
    finally:
        os.close(log)


def test_plan_ratio_one_warns(capsys):
    assert run(["plan", "--in-bits", 100, "--out-bits", 100,
                "--gamma-exp", 7]) == 0
    assert "no compression" in capsys.readouterr().err


def test_plan_invalid_params(capsys):
    assert run(["plan", "--in-bits", 100, "--out-bits", 0,
                "--gamma-exp", 7]) == cli.EXIT_PARAM
    assert run(["plan", "--in-bits", 100, "--out-bits", 101,
                "--gamma-exp", 7]) == cli.EXIT_PARAM
    assert run(["plan", "--in-bits", 100, "--out-bits", 10,
                "--gamma-exp", 8]) == cli.EXIT_PARAM
    # a Mersenne exponent too wide for one exact product fails at plan time
    assert run(["plan", "--in-bits", 10 ** 7, "--out-bits", 10 ** 5,
                "--gamma-exp", 2976221]) == cli.EXIT_PARAM
    assert "2L(2^b - 1)^2 below the field modulus" in capsys.readouterr().err
    assert run(["plan", "--in-bits", 10 ** 6, "--out-bits", 10 ** 5,
                "--gamma-exp", 756839]) == cli.EXIT_OK
    # one block more than a pass can sum exactly
    n_max = 8392705
    assert run(["plan", "--in-bits", n_max * 756839, "--out-bits", 10 ** 6,
                "--gamma-exp", 756839]) == cli.EXIT_OK
    assert run(["plan", "--in-bits", n_max * 756839 + 1, "--out-bits", 10 ** 6,
                "--gamma-exp", 756839]) == cli.EXIT_PARAM
    assert "8392706 blocks" in capsys.readouterr().err


def test_gen_seed_size(tmp_path, capsys):
    out = tmp_path / "seed.bin"
    assert run(["gen-seed", "--in-bits", 100, "--out-bits", 10,
                "--gamma-exp", 7, "--output", out]) == 0
    # plan(100, 10, 7): 16 words of 7 bits plus b and c -> 126 bits -> 16 bytes
    assert out.stat().st_size == 16
    assert "warning" in capsys.readouterr().err


def test_distill_zero_everything(tmp_path, capsys):
    key = tmp_path / "key.bin"
    seed = tmp_path / "seed.bin"
    out = tmp_path / "out.bin"
    key.write_bytes(bytes(7))      # 56 zero bits
    seed.write_bytes(bytes(10))    # 77 seed bits, all zero
    assert run(["distill", "--input", key, "--seed", seed, "--output", out,
                "--out-bits", 10, "--gamma-exp", 7]) == 0
    assert out.read_bytes() == bytes(2)
    assert "10 bits" in capsys.readouterr().out


def test_distill_matches_library(tmp_path):
    rng = np.random.default_rng(11)
    params = pipeline.plan(56, 10, 7)
    while True:
        x = rng.integers(0, 2, size=56, dtype=np.uint8)
        if not np.all(x.reshape(8, 7).min(axis=1)):
            break
    seed_bits = rng.integers(0, 2, size=pipeline.required_seed_bits(params),
                             dtype=np.uint8)
    key = tmp_path / "key.bin"
    seed = tmp_path / "seed.bin"
    out = tmp_path / "out.bin"
    key.write_bytes(bitio.bytes_from_bits(x))
    seed.write_bytes(bitio.bytes_from_bits(seed_bits))
    assert run(["distill", "--input", key, "--seed", seed, "--output", out,
                "--out-bits", 10, "--gamma-exp", 7]) == 0
    expected = pipeline.distill(
        x, pipeline.seed_from_bits(seed_bits, params), params)
    assert out.read_bytes() == bitio.bytes_from_bits(expected)


def test_distill_reads_the_first_in_bits(tmp_path):
    # N = 61 is not a multiple of 8; the key file's bits above N are set
    rng = np.random.default_rng(13)
    params = pipeline.plan(61, 10, 7)
    x = rng.integers(0, 2, size=61, dtype=np.uint8)
    x[::7] = 0   # no block can be all ones
    seed_bits = rng.integers(0, 2, size=pipeline.required_seed_bits(params),
                             dtype=np.uint8)
    key = tmp_path / "key.bin"
    seed = tmp_path / "seed.bin"
    out = tmp_path / "out.bin"
    key.write_bytes(bitio.bytes_from_bits(np.concatenate(
        [x, np.ones(3, dtype=np.uint8)])) + b"\xff")
    seed.write_bytes(bitio.bytes_from_bits(seed_bits))
    assert run(["distill", "--input", key, "--seed", seed, "--output", out,
                "--in-bits", 61, "--out-bits", 10, "--gamma-exp", 7]) == 0
    expected = pipeline.distill(
        x, pipeline.seed_from_bits(seed_bits, params), params)
    assert out.read_bytes() == bitio.bytes_from_bits(expected)


def test_distill_all_ones_exit_code(tmp_path, capsys):
    key = tmp_path / "key.bin"
    seed = tmp_path / "seed.bin"
    out = tmp_path / "out.bin"
    key.write_bytes(b"\xff" * 7)
    seed.write_bytes(bytes(10))
    args = ["distill", "--input", key, "--seed", seed, "--output", out,
            "--out-bits", 10, "--gamma-exp", 7]
    assert run(args) == cli.EXIT_ALL_ONES
    assert "all-ones" in capsys.readouterr().err
    assert run(args + ["--all-ones-policy", "zero"]) == 0
    assert out.read_bytes() == bytes(2)


def test_distill_short_input_is_param_error(tmp_path):
    key = tmp_path / "key.bin"
    seed = tmp_path / "seed.bin"
    key.write_bytes(bytes(3))
    seed.write_bytes(bytes(10))
    assert run(["distill", "--input", key, "--seed", seed,
                "--output", tmp_path / "out.bin", "--in-bits", 56,
                "--out-bits", 10, "--gamma-exp", 7]) == cli.EXIT_PARAM


def test_distill_missing_file_is_io_error(tmp_path):
    assert run(["distill", "--input", tmp_path / "absent.bin",
                "--seed", tmp_path / "absent2.bin",
                "--output", tmp_path / "out.bin", "--in-bits", 56,
                "--out-bits", 10, "--gamma-exp", 7]) == cli.EXIT_IO


def fill_the_disk(monkeypatch):
    """Make every file ``cli`` opens for writing take one byte, then fail."""
    real_open = open

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:1])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def full_disk_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return FullDisk(fh) if "w" in mode else fh

    monkeypatch.setattr(cli, "open", full_disk_open, raising=False)


def test_failed_write_leaves_the_old_key_and_no_partial_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out.bin"
    out.write_bytes(b"old key")
    fill_the_disk(monkeypatch)
    assert run(zero_distill_args(tmp_path)) == cli.EXIT_IO
    assert "No space left on device" in capsys.readouterr().err
    assert out.read_bytes() == b"old key"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["key.bin", "out.bin", "seed.bin"]
    monkeypatch.undo()
    assert run(zero_distill_args(tmp_path)) == 0
    assert out.read_bytes() == bytes(2)


def test_failed_gen_seed_leaves_the_old_seed_and_no_partial_file(tmp_path, monkeypatch,
                                                                 capsys):
    out = tmp_path / "seed.bin"
    out.write_bytes(b"old seed")
    args = ["gen-seed", "--in-bits", 100, "--out-bits", 10, "--gamma-exp", 7,
            "--output", out]
    fill_the_disk(monkeypatch)
    assert run(args) == cli.EXIT_IO
    assert "No space left on device" in capsys.readouterr().err
    assert out.read_bytes() == b"old seed"
    assert [p.name for p in tmp_path.iterdir()] == ["seed.bin"]
    monkeypatch.undo()
    assert run(args) == 0
    assert out.stat().st_size == 16


def test_distill_worker_determinism(tmp_path):
    rng = np.random.default_rng(12)
    params = pipeline.plan(127 * 12, 500, 127)
    x = rng.integers(0, 2, size=params.N, dtype=np.uint8)
    x[::127] = 0
    seed_bits = rng.integers(0, 2, size=pipeline.required_seed_bits(params),
                             dtype=np.uint8)
    key = tmp_path / "key.bin"
    seed = tmp_path / "seed.bin"
    key.write_bytes(bitio.bytes_from_bits(x))
    seed.write_bytes(bitio.bytes_from_bits(seed_bits))
    outs = []
    for w in (1, 2, 4):
        out = tmp_path / f"out{w}.bin"
        assert run(["distill", "--input", key, "--seed", seed,
                    "--output", out, "--in-bits", params.N,
                    "--out-bits", 500, "--gamma-exp", 127,
                    "--workers", w]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def zero_distill_args(tmp_path, out_bits=14):
    """56 zero key bits and 77 zero seed bits at gamma = 7."""
    key = tmp_path / "key.bin"
    seed = tmp_path / "seed.bin"
    key.write_bytes(bytes(7))
    seed.write_bytes(bytes(10))
    return ["distill", "--input", key, "--seed", seed,
            "--output", tmp_path / "out.bin", "--out-bits", out_bits,
            "--gamma-exp", 7]


def test_workers_env_default(tmp_path, monkeypatch):
    seen = []
    real = pipeline._fan_out

    def recording(job, shares):
        def noting(k, shares):
            if k == 0:   # share 0 runs in this process
                seen.append(shares)
            return job(k, shares)
        return real(noting, shares)

    monkeypatch.setattr(pipeline, "_fan_out", recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setenv("QPA_WORKERS", "3")
    assert run(zero_distill_args(tmp_path)) == 0
    # 8 blocks in 3 ranges; the 2 seed words two ranges need over 2
    # shares, the ranges over 3, then 2 passes over 2
    assert seen == [2, 3, 2]


def test_worker_failure_exit_code(tmp_path, monkeypatch, capsys):
    parent = os.getpid()
    real_stream = bigint.pass_spectra

    def pass_spectra(*args):
        if os.getpid() != parent:
            os._exit(9)
        return real_stream(*args)

    monkeypatch.setattr(bigint, "pass_spectra", pass_spectra)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert run(zero_distill_args(tmp_path) + ["--workers", 2]) == cli.EXIT_WORKER
    assert "exited with status 9" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_bad_worker_counts_are_param_errors(tmp_path, monkeypatch, capsys):
    args = zero_distill_args(tmp_path)
    monkeypatch.setenv("QPA_WORKERS", "abc")
    assert run(args) == cli.EXIT_PARAM
    assert "QPA_WORKERS='abc'" in capsys.readouterr().err
    # plan prints the schedule, so it reads it too; gen-seed does not
    plan = ["--in-bits", 100, "--out-bits", 10, "--gamma-exp", 7]
    assert run(["plan", *plan]) == cli.EXIT_PARAM
    assert "QPA_WORKERS='abc'" in capsys.readouterr().err
    assert run(["gen-seed", *plan, "--output", tmp_path / "fresh.bin"]) == 0
    monkeypatch.delenv("QPA_WORKERS")
    for workers in (0, -3):
        for argv in (args, ["plan", *plan]):
            assert run(argv + ["--workers", workers]) == cli.EXIT_PARAM
            assert "at least 1" in capsys.readouterr().err


def test_out_of_memory_is_an_exit_code(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(pipeline, "distill", exhausted)
    assert run(zero_distill_args(tmp_path)) == cli.EXIT_MEMORY == 7
    err = capsys.readouterr().err
    assert err == "error: out of memory\n"
    assert "Traceback" not in err


def test_selftest_passes(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "negative control" in out


@pytest.mark.parametrize("suite", [suite for _, suite in cli._selftest_suites()],
                         ids=lambda suite: suite.__name__)
def test_selftest_suite(suite):
    # each suite `qpa selftest` runs, on the same inputs
    suite()


def test_selftest_fault_control_needs_the_fault_seen_and_cleared():
    fault, clears = [], []

    def corrupt():
        fault.append(True)

    def clear():
        clears.append(True)
        fault.clear()

    cli._fault_control(lambda: not fault, corrupt, clear)
    assert len(clears) == 1
    # a check blind to the corruption fails, and the corruption is cleared
    with pytest.raises(AssertionError, match="went undetected"):
        cli._fault_control(lambda: True, corrupt, clear)
    assert not fault and len(clears) == 2
    # so does a clear that does not restore the check
    with pytest.raises(AssertionError, match="did not restore"):
        cli._fault_control(lambda: not fault, corrupt, lambda: None)
    # and a check that fails before any corruption
    with pytest.raises(AssertionError, match="before any corruption"):
        cli._fault_control(lambda: False, corrupt, clear)


def test_selftest_prints_suite_times(capsys, monkeypatch):
    def broken():
        raise AssertionError("boom")

    suites = [("passing suite", lambda: None), ("failing suite", broken)]
    monkeypatch.setattr(cli, "_selftest_suites", lambda: suites)
    assert run(["selftest"]) == cli.EXIT_SELFTEST
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"ok    passing suite \(\d+\.\d\d s\)", lines[0])
    assert re.fullmatch(r"FAIL  failing suite \(\d+\.\d\d s\): boom", lines[1])


def test_selftest_detects_fault_under_optimize():
    # -O strips assert statements; the selftest checks must still fire
    src = str(Path(qpa.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys\n"
            "from qpa import cli, goldilocks\n"
            "goldilocks.v_mul = lambda a, b: 0\n"
            "sys.exit(cli.main(['selftest']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == cli.EXIT_SELFTEST, proc.stdout + proc.stderr
    assert "FAIL  field multiply vs wide-integer oracle" in proc.stdout

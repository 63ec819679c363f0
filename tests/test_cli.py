import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qpa
from qpa import bitio, cli, dm3h, pipeline


def run(argv):
    return cli.main([str(a) for a in argv])


def test_plan_output(capsys):
    assert run(["plan", "--in-bits", 10 ** 8, "--out-bits", 10 ** 7]) == 0
    out = capsys.readouterr().out
    assert "n         = 133" in out
    assert "m         = 13" in out
    assert "l_prime   = 161093" in out
    assert "seed bits = 112012172" in out


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
    # a Mersenne exponent too wide for the multiplier fails at plan time
    assert run(["plan", "--in-bits", 10 ** 6, "--out-bits", 10 ** 5,
                "--gamma-exp", 859433]) == cli.EXIT_PARAM
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

    def recording(job, tasks, workers):
        def noting(k, shares):
            if k == 0:   # share 0 runs in this process
                seen.append(shares)
            return job(k, shares)
        return real(noting, tasks, workers)

    monkeypatch.setattr(pipeline, "_fan_out", recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setenv("QPA_WORKERS", "3")
    assert run(zero_distill_args(tmp_path)) == 0
    # 8 blocks and 9 seed words over 3 shares, then 2 passes over 2
    assert seen == [3, 2]


def test_worker_failure_exit_code(tmp_path, monkeypatch, capsys):
    parent = os.getpid()
    real_pass = dm3h.mmh_pass

    def mmh_pass(*args):
        if os.getpid() != parent:
            os._exit(9)
        return real_pass(*args)

    monkeypatch.setattr(dm3h, "mmh_pass", mmh_pass)
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
    # commands that run no passes do not read it
    assert run(["plan", "--in-bits", 100, "--out-bits", 10,
                "--gamma-exp", 7]) == 0
    monkeypatch.delenv("QPA_WORKERS")
    for workers in (0, -3):
        assert run(args + ["--workers", workers]) == cli.EXIT_PARAM
        assert "at least 1" in capsys.readouterr().err


def test_selftest_passes(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "negative control" in out


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

"""Command-line surface: plan, gen-seed, distill, selftest.

Timing lives in the benchmark, ``python3 perfbench/run.py``.

``qpa selftest`` runs ``_selftest_suites``, each also a test in
``tests/test_cli.py``; its negative controls run through ``_fault_control``.

File formats (all little-endian, LSB-first within bytes):
  key file   bit i of the stream = bit (i mod 8) of byte floor(i/8)
  seed file  A as consecutive gamma-bit words, then b, then c; b is
             forced odd by setting its least-significant bit

Exit codes: 0 success, 2 parameter error, 3 all-ones rejection,
4 I/O error, 5 selftest failure, 6 a worker process failed (it could not
start, raised, exited non-zero or was killed; its traceback, if any, is
on stderr), 7 out of memory.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

import numpy as np

from . import bitio, bigint, engines, goldilocks, mersenne, ntt, oracle, pipeline
from .errors import AllOnesBlock, LengthMismatch, QpaError, WorkerFailed

EXIT_OK = 0
EXIT_PARAM = 2
EXIT_ALL_ONES = 3
EXIT_IO = 4
EXIT_SELFTEST = 5
EXIT_WORKER = 6
EXIT_MEMORY = 7


def cmd_plan(args) -> int:
    params = pipeline.plan(args.in_bits, args.out_bits, args.gamma_exp)
    run = pipeline.schedule(params, args.workers)
    for name, value in vars(params).items():  # gamma, N, l, n, m, l_prime, L, b
        print(f"{name:<9} = {value}")
    print(f"seed bits = {pipeline.required_seed_bits(params)}")
    print(f"shares    = {run.shares}")
    for k, size in enumerate(run.sizes):
        engine = f"the block engine, B = {size}" if size else "the MAC"
        print(f"range {k + 1:<3} = blocks {run.bounds[k] + 1}-{run.bounds[k + 1]} "
              f"on {engine}, holding {run.held[k]} bytes")
    print(f"buffer    = {run.buffer} bytes")
    print(f"ratio     = {params.ratio}")
    if params.l == params.N:
        print("warning: ratio 1.0 performs no compression", file=sys.stderr)
    return EXIT_OK


def _read_key_file(path: str, n_bits: int) -> bytes:
    with open(path, "rb") as fh:
        data = fh.read()
    if 8 * len(data) < n_bits:
        raise LengthMismatch(
            f"{path}: {len(data)} bytes hold {8 * len(data)} bits, need {n_bits}")
    return data


def _write_whole(path: str, data: bytes) -> None:
    """Write ``path`` whole or not at all, through a temporary file beside it."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_distill(args) -> int:
    n_bits = args.in_bits
    if n_bits is None:
        n_bits = 8 * os.path.getsize(args.input)
    params = pipeline.plan(n_bits, args.out_bits, args.gamma_exp)
    key_data = _read_key_file(args.input, params.N)
    seed_data = _read_key_file(args.seed, pipeline.required_seed_bits(params))
    seed = pipeline.seed_from_bits(seed_data, params)
    key_bits = pipeline.distill(
        key_data, seed, params,
        workers=args.workers, all_ones_policy=args.all_ones_policy)
    _write_whole(args.output, bitio.bytes_from_bits(key_bits))
    print(f"wrote {(params.l + 7) // 8} bytes ({params.l} bits) to {args.output}")
    return EXIT_OK


def cmd_gen_seed(args) -> int:
    params = pipeline.plan(args.in_bits, args.out_bits, args.gamma_exp)
    nbytes = (pipeline.required_seed_bits(params) + 7) // 8
    print("warning: OS randomness; production QKD seeds must come from the "
          "QKD randomness source", file=sys.stderr)
    _write_whole(args.output, os.urandom(nbytes))
    print(f"wrote {nbytes} seed bytes to {args.output}")
    return EXIT_OK


def _check(ok: bool, what: str) -> None:
    """A selftest check that also holds under ``python -O``."""
    if not ok:
        raise AssertionError(what)


def _fault_control(holds, corrupt, clear) -> None:
    """A negative control: ``holds()`` is true, false once ``corrupt()`` has
    run, and true again after ``clear()``, which runs whatever the detection
    check finds."""
    _check(holds(), "the check fails before any corruption")
    try:
        corrupt()
        _check(not holds(), "corruption went undetected")
    finally:
        clear()
    _check(holds(), "clearing the corruption did not restore the check")


def _selftest_suites():
    """(name, suite) pairs; each suite seeds its own generator, so every run
    of it draws the same inputs."""

    def key_and_seed(rng, params):
        """A key with no all-ones block, drawn again until there is one, and a seed."""
        while True:
            x = rng.integers(0, 2, size=params.N, dtype=np.uint8)
            seed_bits = rng.integers(
                0, 2, size=pipeline.required_seed_bits(params), dtype=np.uint8)
            if not bigint.Words(x, params.gamma, params.n, params.N).all_ones():
                return x, pipeline.seed_from_bits(seed_bits, params)

    def field_oracle():
        rng = np.random.default_rng(2024)
        p = goldilocks.P64
        a, b = (rng.integers(0, p, size=1000, dtype=np.uint64) for _ in range(2))
        expected = [x * y % p for x, y in zip(a.tolist(), b.tolist())]
        _check(np.array_equal(goldilocks.v_mul(a, b),
                              np.array(expected, dtype=np.uint64)),
               "v_mul differs from Python ints")

    def ntt_roundtrip():
        rng = np.random.default_rng(2024)
        # 5 x 65536, 7 x 40960 and 300 x 1024 batches span two transform
        # chunks, the second ragged; 1024's last stage has radix 4, on
        # several pieces, and 40960 = 5 * 8192 runs the 5-point stage
        for shape in ((16,), (256,), (5, 65536), (7, 40960), (300, 1024)):
            v = rng.integers(0, 1 << 24, size=shape).astype(np.uint64)
            _check(np.array_equal(ntt.ntt_inverse(ntt.ntt_forward(v)), v),
                   f"round trip of shape {shape}")
        v = rng.integers(0, 1 << 24, size=16).astype(np.uint64)
        _check(np.array_equal(ntt.ntt_forward(v), oracle.naive_ntt(v)),
               "forward transform vs naive")

    def ring_product():
        rng = np.random.default_rng(2024)
        # the weighted-transform product every distill pass runs
        for gamma in (521, 4253, 19937):
            p = (1 << gamma) - 1
            x, y = (int.from_bytes(rng.bytes(gamma // 8 + 1), "little") % p
                    for _ in range(2))
            for a, b in ((x, y), (p - 1, p - 1)):
                got = bigint.dot(bigint.Words.from_ints([a], gamma),
                                 bigint.Words.from_ints([b], gamma))
                _check(got == oracle.mul_schoolbook(a, b) % p,
                       f"product mod 2^{gamma} - 1")

    def distill_equivalence():
        rng = np.random.default_rng(2024)
        params = pipeline.plan(140, 20, 7)
        for _ in range(10):
            x, seed = key_and_seed(rng, params)
            _check(np.array_equal(pipeline.distill(x, seed, params),
                                  oracle.naive_distill(x, seed, params)),
                   "distilled key differs")

    def workers_equivalence():
        rng = np.random.default_rng(2024)
        # 2 workers fork a child for each fan-out where 2 CPUs are usable;
        # 14 passes over 70 blocks take the block engine, whose 35-block
        # ranges at 2 shares end in partial sections
        params = pipeline.plan(127 * 70, 127 * 13 + 50, 127)
        x, seed = key_and_seed(rng, params)
        one, two = (pipeline.distill(x, seed, params, workers=w) for w in (1, 2))
        _check(np.array_equal(one, two), "keys at 1 and 2 workers differ")
        print(f"    2 workers ran {pipeline.schedule(params, 2).shares} share(s)",
              flush=True)

    def census():
        rng = np.random.default_rng(2024)
        best = 0
        for _ in range(20):
            x1 = tuple(int(v) for v in rng.integers(0, 7, size=2))
            x2 = tuple(int(v) for v in rng.integers(0, 7, size=2))
            if x1 == x2:
                continue
            count = oracle.collision_census(3, 2, 2, x1, x2)
            best = max(best, count)
            _check(count <= 7, f"{count} collisions for {x1}, {x2}")
        print(f"    max collision count {best} <= bound 7", flush=True)

    def twiddle_fault():
        rng = np.random.default_rng(2024)
        # a corrupted twiddle table must change the transform
        v = rng.integers(0, 1 << 24, size=256).astype(np.uint64)
        spectrum = ntt.ntt_forward(v)
        _fault_control(lambda: np.array_equal(ntt.ntt_forward(v), spectrum),
                       lambda: ntt._testing_corrupt_twiddle(256), ntt._testing_clear_cache)

    def rader_fault():
        rng = np.random.default_rng(2024)
        # a corrupted factor of the 5-point kernel's products must change a
        # transform of length 5 * 2^k
        v = rng.integers(0, 1 << 24, size=160).astype(np.uint64)
        spectrum = oracle.naive_ntt(v)
        _fault_control(lambda: np.array_equal(ntt.ntt_forward(v), spectrum),
                       ntt._testing_corrupt_rader, ntt._testing_clear_cache)

    def shift_fault():
        rng = np.random.default_rng(2024)
        # a block-engine pass (B = 32, as distill picks here) with one
        # butterfly shift off by a bit must differ from plain ints
        gamma, n, passes = 127, 40, 14
        _check(engines.block_size(n, passes) == 32, "40 rows and 14 passes take B = 32")
        p = (1 << gamma) - 1
        xs, coeffs = ([int.from_bytes(rng.bytes(16), "little") % p for _ in range(k)]
                      for k in (n, n + passes - 1))
        x, a = (bigint.Words.from_ints(v, gamma) for v in (xs, coeffs))
        expected = [sum(v * coeffs[k + q] for k, v in enumerate(xs)) % p
                    for q in range(passes)]

        def sums_hold():
            out = np.zeros((passes, bigint.transform_shape(gamma, n)[0]), dtype=np.uint64)
            engine = engines.BlockSums(32, passes)
            return bigint.to_ints(bigint.pass_spectra(x, a.fill, engine, out),
                                  gamma) == expected

        _fault_control(sums_hold, lambda: ntt._testing_corrupt_shift(32),
                       ntt._testing_clear_cache)

    def weight_fault():
        rng = np.random.default_rng(2024)
        # a corrupted digit weight, at the length the one-row product runs,
        # must break a weighted ring product
        gamma = 521
        p = (1 << gamma) - 1
        x, y = p - 1, int.from_bytes(rng.bytes(66), "little") % p
        _fault_control(
            lambda: bigint.dot(bigint.Words.from_ints([x], gamma),
                               bigint.Words.from_ints([y], gamma)) == x * y % p,
            lambda: bigint._testing_corrupt_weight(
                gamma, bigint.transform_shape(gamma, 1)[0]),
            bigint._testing_clear_cache)

    return [
        ("field multiply vs wide-integer oracle", field_oracle),
        ("ntt round trip and naive cross-check", ntt_roundtrip),
        ("ring product vs schoolbook (gamma=521/4253/19937)", ring_product),
        ("distill vs naive oracle (gamma=7)", distill_equivalence),
        ("distill at 2 workers equals 1 worker (gamma=127, block engine)",
         workers_equivalence),
        ("universality census (gamma=3, n=2, m=2)", census),
        ("twiddle fault injection (negative control)", twiddle_fault),
        ("5-point kernel fault injection (negative control)", rader_fault),
        ("block butterfly shift fault injection (negative control)", shift_fault),
        ("digit weight fault injection (negative control)", weight_fault),
    ]


def cmd_selftest(args) -> int:
    failures = 0
    for name, suite in _selftest_suites():
        start = time.perf_counter()
        try:
            suite()
        except Exception as exc:  # report per suite, keep going
            failures += 1
            print(f"FAIL  {name} ({time.perf_counter() - start:.2f} s): {exc}")
        else:
            print(f"ok    {name} ({time.perf_counter() - start:.2f} s)")
    return EXIT_SELFTEST if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpa",
        description="Privacy amplification via DM3H / MMH-MH hashing over "
                    "Mersenne-prime rings")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_plan_flags(p, with_n=True, workers=False):
        if with_n:
            p.add_argument("--in-bits", type=int, required=True,
                           help="input block length N in bits")
        p.add_argument("--out-bits", type=int, required=True,
                       help="output key length l in bits")
        p.add_argument("--gamma-exp", type=int, default=mersenne.DEFAULT_GAMMA,
                       help="Mersenne exponent gamma (default 756839)")
        if workers:
            p.add_argument("--workers", type=int, default=None,
                           help="worker processes (default: QPA_WORKERS, else 1)")

    p = sub.add_parser("plan", help="derive n, m, l', seed sizing and the run's schedule")
    add_plan_flags(p, workers=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("distill", help="distill a key file")
    p.add_argument("--input", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--in-bits", type=int, default=None,
                   help="N in bits (default: 8 * input file size)")
    add_plan_flags(p, with_n=False, workers=True)
    p.add_argument("--all-ones-policy", choices=("error", "zero"),
                   default="error")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("gen-seed", help="write OS-random seed material")
    add_plan_flags(p)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_gen_seed)

    p = sub.add_parser("selftest", help="run the built-in verification suites")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AllOnesBlock as exc:
        print(f"error: all-ones blocks at {exc.indices}; rerun with "
              f"--all-ones-policy zero to substitute (unsafe)", file=sys.stderr)
        return EXIT_ALL_ONES
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER
    except QpaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())

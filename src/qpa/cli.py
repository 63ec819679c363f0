"""Command-line surface: plan, gen-seed, distill, selftest.

Timing lives in the benchmark, ``python3 perfbench/run.py``.

File formats (all little-endian, LSB-first within bytes):
  key file   bit i of the stream = bit (i mod 8) of byte floor(i/8)
  seed file  A as consecutive gamma-bit words, then b, then c; b is
             forced odd by setting its least-significant bit

Exit codes: 0 success, 2 parameter error, 3 all-ones rejection,
4 I/O error, 5 selftest failure, 6 a worker process failed (it raised,
was killed or exited without a result; its traceback, if any, is on
stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import bitio, bigint, goldilocks, mersenne, ntt, oracle, pipeline
from .errors import AllOnesBlock, LengthMismatch, QpaError, WorkerFailed

EXIT_OK = 0
EXIT_PARAM = 2
EXIT_ALL_ONES = 3
EXIT_IO = 4
EXIT_SELFTEST = 5
EXIT_WORKER = 6


def cmd_plan(args) -> int:
    params = pipeline.plan(args.in_bits, args.out_bits, args.gamma_exp)
    print(f"gamma     = {params.gamma}")
    print(f"N         = {params.N}")
    print(f"l         = {params.l}")
    print(f"n         = {params.n}")
    print(f"m         = {params.m}")
    print(f"l_prime   = {params.l_prime}")
    print(f"seed bits = {pipeline.required_seed_bits(params)}")
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
    with open(args.output, "wb") as fh:
        fh.write(bitio.bytes_from_bits(key_bits))
    print(f"wrote {(params.l + 7) // 8} bytes ({params.l} bits) to {args.output}")
    return EXIT_OK


def cmd_gen_seed(args) -> int:
    params = pipeline.plan(args.in_bits, args.out_bits, args.gamma_exp)
    nbytes = (pipeline.required_seed_bits(params) + 7) // 8
    print("warning: OS randomness; production QKD seeds must come from the "
          "QKD randomness source", file=sys.stderr)
    with open(args.output, "wb") as fh:
        remaining = nbytes
        while remaining:
            chunk = os.urandom(min(remaining, 1 << 20))
            fh.write(chunk)
            remaining -= len(chunk)
    print(f"wrote {nbytes} seed bytes to {args.output}")
    return EXIT_OK


def _check(ok: bool, what: str) -> None:
    """A selftest check that also holds under ``python -O``."""
    if not ok:
        raise AssertionError(what)


def _selftest_suites():
    rng = np.random.default_rng(2024)

    def field_oracle():
        p = goldilocks.P64
        a, b = (rng.integers(0, p, size=1000, dtype=np.uint64) for _ in range(2))
        expected = [x * y % p for x, y in zip(a.tolist(), b.tolist())]
        _check(np.array_equal(goldilocks.v_mul(a, b),
                              np.array(expected, dtype=np.uint64)),
               "v_mul differs from Python ints")

    def ntt_roundtrip():
        for length in (16, 256):
            v = rng.integers(0, 1 << 24, size=length).astype(np.uint64)
            _check(np.array_equal(ntt.ntt_inverse(ntt.ntt_forward(v)), v),
                   f"round trip at length {length}")
        v = rng.integers(0, 1 << 24, size=16).astype(np.uint64)
        _check(np.array_equal(ntt.ntt_forward(v), oracle.naive_ntt(v)),
               "forward transform vs naive")

    def ring_product():
        # the weighted-transform product every distill pass runs
        for gamma in (521, 4253, 19937):
            p = (1 << gamma) - 1
            x, y = (int.from_bytes(rng.bytes(gamma // 8 + 1), "little") % p
                    for _ in range(2))
            for a, b in ((x, y), (p - 1, p - 1)):
                got = mersenne.fold(bigint.dot(bigint.Words.from_ints([a], gamma),
                                               bigint.Words.from_ints([b], gamma)), gamma)
                _check(got == oracle.mul_schoolbook(a, b) % p,
                       f"product mod 2^{gamma} - 1")

    def distill_equivalence():
        params = pipeline.plan(140, 20, 7)
        for _ in range(10):
            while True:
                x = rng.integers(0, 2, size=params.N, dtype=np.uint8)
                seed_bits = rng.integers(
                    0, 2, size=pipeline.required_seed_bits(params), dtype=np.uint8)
                seed = pipeline.seed_from_bits(seed_bits, params)
                try:
                    fast = pipeline.distill(x, seed, params)
                    slow = oracle.naive_distill(x, seed, params)
                except AllOnesBlock:
                    continue
                break
            _check(np.array_equal(fast, slow), "distilled key differs")

    def workers_equivalence():
        # two workers fork a child for each fan-out on a machine with 2+ CPUs
        params = pipeline.plan(127 * 12, 127 * 2 + 50, 127)
        x = rng.integers(0, 2, size=params.N, dtype=np.uint8)
        x[::127] = 0   # no block is all ones
        seed_bits = rng.integers(
            0, 2, size=pipeline.required_seed_bits(params), dtype=np.uint8)
        one, two = (pipeline.distill(x, pipeline.seed_from_bits(seed_bits, params),
                                     params, workers=w) for w in (1, 2))
        _check(np.array_equal(one, two), "keys at 1 and 2 workers differ")

    def census():
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

    def negative_control():
        # a corrupted twiddle table must break the round trip
        v = rng.integers(0, 1 << 24, size=256).astype(np.uint64)
        spectrum = ntt.ntt_forward(v)
        ntt._testing_corrupt_twiddle(256)
        try:
            corrupted = ntt.ntt_forward(v)
            _check(not np.array_equal(corrupted, spectrum),
                   "corruption went undetected")
        finally:
            ntt._testing_clear_cache()
        _check(np.array_equal(ntt.ntt_forward(v), spectrum),
               "clearing the cache did not restore the transform")

    def weight_negative_control():
        # a corrupted digit weight must break a weighted ring product
        gamma = 521
        p = (1 << gamma) - 1
        x, y = p - 1, int.from_bytes(rng.bytes(66), "little") % p

        def product():
            return mersenne.fold(bigint.dot(bigint.Words.from_ints([x], gamma),
                                            bigint.Words.from_ints([y], gamma)), gamma)

        _check(product() == x * y % p, "weighted product")
        bigint._testing_corrupt_weight(gamma)
        try:
            _check(product() != x * y % p, "corruption went undetected")
        finally:
            bigint._testing_clear_cache()
        _check(product() == x * y % p,
               "clearing the cache did not restore the product")

    return [
        ("field multiply vs wide-integer oracle", field_oracle),
        ("ntt round trip and naive cross-check", ntt_roundtrip),
        ("ring product vs schoolbook (gamma=521/4253/19937)", ring_product),
        ("distill vs naive oracle (gamma=7)", distill_equivalence),
        ("distill at 2 workers equals 1 worker (gamma=127)", workers_equivalence),
        ("universality census (gamma=3, n=2, m=2)", census),
        ("twiddle fault injection (negative control)", negative_control),
        ("digit weight fault injection (negative control)", weight_negative_control),
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

    def add_plan_flags(p, with_n=True):
        if with_n:
            p.add_argument("--in-bits", type=int, required=True,
                           help="input block length N in bits")
        p.add_argument("--out-bits", type=int, required=True,
                       help="output key length l in bits")
        p.add_argument("--gamma-exp", type=int, default=mersenne.DEFAULT_GAMMA,
                       help="Mersenne exponent gamma (default 756839)")

    p = sub.add_parser("plan", help="derive n, m, l' and seed sizing")
    add_plan_flags(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("distill", help="distill a key file")
    p.add_argument("--input", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--in-bits", type=int, default=None,
                   help="N in bits (default: 8 * input file size)")
    add_plan_flags(p, with_n=False)
    p.add_argument("--all-ones-policy", choices=("error", "zero"),
                   default="error")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: QPA_WORKERS, else 1)")
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


if __name__ == "__main__":
    sys.exit(main())

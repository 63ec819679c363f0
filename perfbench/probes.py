"""Traced replay of one operation and the per-module kernel probes.

Runs inside a fresh ``child.py trace`` process, single-threaded except
for one untraced operation at nproc workers and one
``pipeline.distill_blocks`` call at the workload's worker count.  The
replay calls the public function of each stage in the order
``qpa.distill`` does and records a span per call; while it runs, the
module attributes ``ntt.ntt_forward``, ``ntt.ntt_inverse`` and
``bigint.mul_ntt`` are wrapped to count rows and calls, and restored
afterwards.  Kernel probes time the public function of each module on
arrays shaped like the workload's own.

A probe whose function is missing or has a new signature reports its
metrics as ``None`` with a note and never stops the run; end-to-end
metrics come from untraced runs and do not depend on any of this.  An
output that differs from the reference is a failure, not a note.
"""

from __future__ import annotations

import contextlib
import hashlib
import statistics
import time

import numpy as np

from reference import mersenne_mod
from workloads import FIELD_ROW, PER_LAYER, nproc

P64 = (1 << 64) - (1 << 32) + 1
SHL_BITS = 36   # a shift the radix-16 butterflies use (12 * 3)


class Tracer:
    """Spans with name, start, end, parent and operation id, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: int):
        record = {"name": name, "op": op,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str, op: int) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["op"] == op]


class Checks:
    """Outputs compared against the reference, and probe self-checks."""

    def __init__(self, expect: str):
        self.expect = expect
        self.attempted = 0
        self.mismatched = 0
        self.failures: list[str] = []

    def output(self, what: str, data: bytes) -> None:
        self.attempted += 1
        if hashlib.sha256(data).hexdigest() != self.expect:
            self.mismatched += 1
            self.failures.append(f"{what}: output differs from the reference")

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(f"{what}: wrong result")


class Probes:
    """Per-layer metric values, with a note for each one left as None."""

    def __init__(self):
        self.metrics: dict[str, float | None] = {m.name: None for m in PER_LAYER}
        self.notes: dict[str, str] = {}

    @contextlib.contextmanager
    def guard(self, *names: str):
        try:
            yield
        except Exception as exc:  # a changed API must not stop the benchmark
            for name in names:
                self.notes[name] = f"{type(exc).__name__}: {exc}"


def _rows(arr) -> int:
    """Rows in a vector (1) or a batch of vectors (its first dimension)."""
    shape = np.shape(arr)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


@contextlib.contextmanager
def counting(probes: Probes):
    """Count rows through ntt_forward/ntt_inverse and calls of mul_ntt."""
    from qpa import bigint, ntt
    targets = (("ntt.forward_rows", ntt, "ntt_forward", _rows),
               ("ntt.inverse_rows", ntt, "ntt_inverse", _rows),
               ("bigint.mul_calls", bigint, "mul_ntt", lambda _: 1))
    counts: dict[str, int] = {}
    restore = []

    def wrap(name, func, weight):
        def counted(*args, **kwargs):
            counts[name] += weight(args[0]) if args else 1
            return func(*args, **kwargs)
        return counted

    for name, module, attr, weight in targets:
        with probes.guard(name):
            func = getattr(module, attr)
            counts[name] = 0
            setattr(module, attr, wrap(name, func, weight))
            restore.append((module, attr, func))
    try:
        yield
        probes.metrics.update(counts)
    finally:
        for module, attr, func in restore:
            setattr(module, attr, func)


def replay(tracer: Tracer, workload, params, key: bytes, seed: bytes):
    """One operation as its sequence of public calls, one span per call."""
    from qpa import bitio, dm3h, mmh_mh, pipeline
    op = 1
    with tracer.span("operation", op):
        with tracer.span("bitio.bits_from_bytes", op):
            seed_bits = bitio.bits_from_bytes(seed, pipeline.required_seed_bits(params))
        with tracer.span("pipeline.seed_from_bits", op):
            material = pipeline.seed_from_bits(seed_bits, params)
        with tracer.span("bitio.bits_from_bytes", op):
            key_bits = bitio.bits_from_bytes(key, workload.N)
        with tracer.span("dm3h.split_and_pad", op):
            blocks = dm3h.split_and_pad(key_bits, params.mersenne)
        ys = []
        for i in range(1, workload.passes + 1):
            with tracer.span("dm3h.mmh_pass", op):
                ys.append(dm3h.mmh_pass(blocks, material.A, i))
        pieces = []
        if workload.l_prime:
            with tracer.span("mmh_mh.mh_hash", op):
                pieces.append(mmh_mh.mh_hash(ys[-1], material.mh, workload.l_prime))
        with tracer.span("bitio.pack", op):
            pieces[:0] = [bitio.bits_from_int(y.value, workload.gamma)
                          for y in ys[:workload.m]]
            out = bitio.bytes_from_bits(np.concatenate(pieces))
    return out, blocks, material, ys


def _median_time(func, reps: int) -> tuple[float, object]:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        result = func()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _random_int(rng, bits: int) -> int:
    return int.from_bytes(rng.bytes((bits + 7) // 8), "little") & ((1 << bits) - 1)


def probe_ntt(probes, checks, workload, rng):
    from qpa import ntt
    batch = rng.integers(0, P64, size=(workload.n, workload.length), dtype=np.uint64)
    forward, spectra = _median_time(lambda: ntt.ntt_forward(batch), 3)
    inverse, back = _median_time(lambda: ntt.ntt_inverse(spectra), 3)
    checks.require(np.array_equal(back, batch), "ntt round trip")
    probes.metrics["ntt.forward_row_ms"] = forward / workload.n * 1e3
    probes.metrics["ntt.inverse_row_ms"] = inverse / workload.n * 1e3


def probe_field(probes, checks, workload, rng):
    from qpa import goldilocks as gl
    a, b = rng.integers(0, P64, size=(2, workload.field_rows, FIELD_ROW), dtype=np.uint64)
    kernels = {
        "v_mul": (lambda: gl.v_mul(a, b), lambda x, y: x * y % P64),
        "v_add": (lambda: gl.v_add(a, b), lambda x, y: (x + y) % P64),
        "v_shl": (lambda: gl.v_shl(a, SHL_BITS), lambda x, y: (x << SHL_BITS) % P64),
    }
    for name, (kernel, exact) in kernels.items():
        metric = f"goldilocks.{name}_melem_s"
        with probes.guard(metric):
            seconds, out = _median_time(kernel, 5)
            sample = zip(a[0, :64].tolist(), b[0, :64].tolist(), out[0, :64].tolist())
            checks.require(all(exact(x, y) == z for x, y, z in sample), f"goldilocks.{name}")
            probes.metrics[metric] = a.size / seconds / 1e6


def probe_bigint(probes, checks, workload, rng):
    from qpa import bigint
    with probes.guard("bigint.carry_row_ms"):
        row = rng.integers(0, 1 << 63, size=workload.length, dtype=np.uint64)
        seconds, _ = _median_time(lambda: bigint.int_from_wide_limbs(row), 5)
        probes.metrics["bigint.carry_row_ms"] = seconds * 1e3
    with probes.guard("bigint.mul_s"):
        x, y = _random_int(rng, workload.gamma), _random_int(rng, workload.gamma)
        bx = bigint.BigUint.from_int(x, workload.gamma)
        by = bigint.BigUint.from_int(y, workload.gamma)
        seconds, product = _median_time(lambda: bigint.mul_ntt(bx, by), 3)
        checks.require(product.to_int() == x * y, "bigint.mul_ntt")
        probes.metrics["bigint.mul_s"] = seconds


def probe_fold(probes, checks, workload, rng):
    from qpa import mersenne
    # a pass accumulates n products of two gamma-bit words before folding
    total = _random_int(rng, 2 * workload.gamma + workload.n.bit_length())
    seconds, folded = _median_time(lambda: mersenne.fold(total, workload.gamma), 7)
    checks.require(folded == mersenne_mod(total, workload.gamma), "mersenne.fold")
    probes.metrics["mersenne.fold_ms"] = seconds * 1e3


def traced_run(workload, params, key: bytes, seed: bytes, request, operation) -> dict:
    from qpa import bitio, dm3h, pipeline
    probes = Probes()
    checks = Checks(request["expect"])
    tracer = Tracer()
    metrics = probes.metrics

    def untraced(workers: int) -> float:
        start = time.perf_counter()
        try:
            out = operation(params, key, seed, workers)
        except Exception as exc:  # a raising operation counts as failed
            checks.attempted += 1
            checks.mismatched += 1
            checks.failures.append(f"untraced operation at {workers} workers raised {exc!r}")
            raise
        elapsed = time.perf_counter() - start
        checks.output(f"untraced operation at {workers} workers", out)
        return elapsed

    # the overhead ratio compares the single-threaded replay with an
    # untraced single-threaded operation, like with like on every workload;
    # as in the measuring run, a first checked operation warms the heap
    baseline = None
    with probes.guard("pipeline.serial_mbps"):
        untraced(1)
        baseline = untraced(1)
        metrics["pipeline.serial_mbps"] = workload.N / baseline / 1e6
    with probes.guard("pipeline.nproc_mbps"):
        metrics["pipeline.nproc_mbps"] = workload.N / untraced(nproc()) / 1e6

    passes = None
    with probes.guard("bitio.unpack_s", "pipeline.seed_ingest_s", "dm3h.split_s",
                      "dm3h.first_pass_s", "dm3h.pass_s", "mmh_mh.tail_s",
                      "bitio.pack_s", "trace.coverage", "trace.overhead"):
        with counting(probes):
            out, blocks, material, ys = replay(tracer, workload, params, key, seed)
        checks.output("traced replay", out)
        op_span = tracer.spans[0]
        op_wall = op_span["end"] - op_span["start"]
        stages = [s for s in tracer.spans if s["parent"] == 0]
        passes = tracer.durations("dm3h.mmh_pass", 1)
        metrics.update({
            "bitio.unpack_s": sum(tracer.durations("bitio.bits_from_bytes", 1)),
            "pipeline.seed_ingest_s": sum(tracer.durations("pipeline.seed_from_bits", 1)),
            "dm3h.split_s": sum(tracer.durations("dm3h.split_and_pad", 1)),
            "dm3h.first_pass_s": passes[0],
            "mmh_mh.tail_s": sum(tracer.durations("mmh_mh.mh_hash", 1)),
            "bitio.pack_s": sum(tracer.durations("bitio.pack", 1)),
            "trace.coverage": sum(s["end"] - s["start"] for s in stages) / op_wall,
            "trace.overhead": op_wall / baseline,
        })
        if len(passes) > 1:
            metrics["dm3h.pass_s"] = statistics.median(passes[1:])
        else:
            # a tail-only plan has no later pass: repeat pass 1 on the
            # spectra the replay left cached
            with tracer.span("dm3h.mmh_pass", 2):
                again = dm3h.mmh_pass(blocks, material.A, 1)
            checks.require(again.value == ys[0].value, "dm3h.mmh_pass repeat")
            metrics["dm3h.pass_s"] = tracer.durations("dm3h.mmh_pass", 2)[0]

    with probes.guard("pipeline.pass_speedup"):
        # all passes at the workload's worker count, on fresh objects so
        # the forward-spectra fill is paid once on each side of the ratio
        fresh_blocks = dm3h.split_and_pad(bitio.bits_from_bytes(key, workload.N),
                                          params.mersenne)
        fresh_seed = pipeline.seed_from_bits(
            bitio.bits_from_bytes(seed, pipeline.required_seed_bits(params)), params)
        with tracer.span("pipeline.distill_blocks", 3) as span:
            result = pipeline.distill_blocks(fresh_blocks, fresh_seed, params,
                                             workers=request["workers"])
        checks.output("pipeline.distill_blocks", bitio.bytes_from_bits(result.key_bits))
        metrics["pipeline.pass_speedup"] = sum(passes) / (span["end"] - span["start"])

    rng = np.random.default_rng(request["seed"])
    for probe, names in (
            (probe_ntt, ("ntt.forward_row_ms", "ntt.inverse_row_ms")),
            (probe_field, tuple(f"goldilocks.{k}_melem_s" for k in ("v_mul", "v_add", "v_shl"))),
            (probe_bigint, ("bigint.carry_row_ms", "bigint.mul_s")),
            (probe_fold, ("mersenne.fold_ms",))):
        with probes.guard(*names):
            probe(probes, checks, workload, rng)

    return {"metrics": metrics, "notes": probes.notes, "spans": tracer.spans,
            "attempted": checks.attempted, "failed": checks.mismatched,
            "failures": checks.failures}

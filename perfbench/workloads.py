"""Workloads, metric declarations and input generation for the benchmark.

This module is the single source of the names, units and bounds that
``BENCHMARK.json`` declares (``python3 perfbench/run.py --write-spec``
regenerates it), and it imports nothing from ``qpa``: the harness sizes
inputs and the reference from the definitions, not from the library.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

RUN_SECONDS = 20

# Width of the rows the goldilocks kernel probes stream; the rows per
# probe follow the workload's block count, capped so a probe's
# temporaries stay a few hundred MB.
FIELD_ROW = 65536
FIELD_MAX_ROWS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    gamma: int
    N: int
    l: int
    workers: str        # "1" or "nproc"
    length: int         # NTT length of the gamma-bit ring products
    why: str

    # plan, derived from the definitions (l = m*gamma + l')
    @property
    def n(self) -> int:
        return -(-self.N // self.gamma)

    @property
    def m(self) -> int:
        return self.l // self.gamma

    @property
    def l_prime(self) -> int:
        return self.l - self.m * self.gamma

    @property
    def passes(self) -> int:
        return self.m + (1 if self.l_prime else 0)

    @property
    def seed_bits(self) -> int:
        """a_1..a_(n+passes-1), then b and c when the tail pass runs."""
        words = self.n + self.passes - 1 + (2 if self.l_prime else 0)
        return words * self.gamma

    @property
    def field_rows(self) -> int:
        return min(self.n, FIELD_MAX_ROWS)

    def resolve_workers(self) -> int:
        return nproc() if self.workers == "nproc" else int(self.workers)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# All three are closed loops: one operation at a time from one process.
WORKLOADS = {w.name: w for w in (
    Workload("mid", 756839, 20_000_000, 2_000_000, "1", 65536,
             "production gamma at ratio 0.1, n=27 m=2: forward spectra and "
             "passes share the time; the single-threaded length-65536 baseline"),
    Workload("headline-shape", 19937, 2_651_621, 265_162, "nproc", 4096,
             "the 1e8-bit headline's n=133, m=13, 14 passes and transform "
             "counts at 1/16 the length, nproc workers: pass-side changes show "
             "their headline ratio"),
    Workload("narrow", 756839, 30_000_000, 500_000, "1", 65536,
             "high-QBER tail-only pass, n=40 m=0: forward spectra dominate and "
             "the largest input stresses bit unpacking, the split and memory"),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


END_TO_END = (
    Metric("distill_s", "s", "lower", 0.25),
    Metric("throughput_mbps", "Mbps", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.2),
)

# Each comment names the end-to-end metric and workload the layer moves.
PER_LAYER = (
    Metric("error_rate", "ratio", "lower"),               # every output checked
    Metric("bitio.unpack_s", "s", "lower"),               # narrow
    Metric("bitio.pack_s", "s", "lower"),                 # narrow
    Metric("pipeline.seed_ingest_s", "s", "lower"),       # headline-shape
    Metric("pipeline.pass_speedup", "ratio", "higher"),   # headline-shape
    Metric("pipeline.serial_mbps", "Mbps", "higher"),     # throughput at 1 worker
    Metric("pipeline.nproc_mbps", "Mbps", "higher"),      # throughput at nproc workers
    Metric("dm3h.split_s", "s", "lower"),                 # narrow
    Metric("dm3h.first_pass_s", "s", "lower"),            # narrow, mid
    Metric("dm3h.pass_s", "s", "lower"),                  # mid, headline-shape
    Metric("ntt.forward_row_ms", "ms", "lower"),          # narrow, mid
    Metric("ntt.inverse_row_ms", "ms", "lower"),          # headline-shape, mid
    Metric("ntt.forward_rows", "count", "lower"),
    Metric("ntt.inverse_rows", "count", "lower"),
    Metric("bigint.mul_calls", "count", "lower"),
    Metric("goldilocks.v_mul_melem_s", "Melem/s", "higher"),
    Metric("goldilocks.v_add_melem_s", "Melem/s", "higher"),
    Metric("goldilocks.v_shl_melem_s", "Melem/s", "higher"),
    Metric("bigint.carry_row_ms", "ms", "lower"),         # headline-shape, mid
    Metric("bigint.mul_s", "s", "lower"),                 # narrow
    Metric("mersenne.fold_ms", "ms", "lower"),
    Metric("mmh_mh.tail_s", "s", "lower"),                # narrow
    Metric("trace.coverage", "ratio", "higher"),
    Metric("trace.overhead", "ratio", "lower"),
)

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


def make_inputs(workload: Workload, seed: int) -> tuple[bytes, bytes]:
    """Packed key and seed bytes; the same (workload, seed) gives the same bytes."""
    rng = random.Random(f"{workload.name}:{seed}")
    key = rng.randbytes((workload.N + 7) // 8)
    seed_bytes = rng.randbytes((workload.seed_bits + 7) // 8)
    return key, seed_bytes

"""Distillation benchmark for qpa: end-to-end and per-module metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload mid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced
    python3 perfbench/run.py --write-spec        # regenerate BENCHMARK.json

One invocation makes the workload's key and seed bytes from ``--seed``,
computes the expected output once with plain CPython ints
(``reference.py``), and then runs the library from outside in fresh
processes (``child.py``):

``--trace 0``  eight set-up-only processes and one measuring process that
               sets up, runs one untimed warm-up operation and then runs
               operations in a closed loop for ``--seconds``.  Prints distill_s (median seconds per
               operation), throughput_mbps, setup_s (median of the nine
               fresh-process set-ups) and peak_rss_mb (the measuring
               process's peak RSS).
``--trace 1``  one process that runs a warm-up and then untraced
               operations at 1 and at nproc workers, a traced replay of one operation through the
               public function of each module, one distill_blocks call at
               the workload's worker count and the kernel probes
               (``probes.py``).  Prints the per-layer metrics.  This run
               does a fixed amount of work and ignores ``--seconds``.

Every output is compared with the reference.  Metrics are printed one
per line with their units, then provenance, then, as the last line, one
JSON object with the keys correct, attempted, failed and metrics.  The
full record, spans included, goes to ``perfbench/out/``.  The exit code
is 2, with no result line, when the library sources are not next to
this directory or a child process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import distill_reference
from workloads import (FIELD_ROW, RUN_SECONDS, UNITS, WORKLOADS, benchmark_json,
                       make_inputs, nproc)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def run_child(request: dict) -> dict:
    request = dict(request, src=str(SRC))
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(request)],
                          stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"{request['mode']} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[f"L{level}{suffix}"] = size
    return caches


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(workload, seed: int, workers: int, numpy_version: str) -> dict:
    rows = workload.field_rows
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "workload": workload.name,
        "seed": seed,
        "workers": workers,
        "caches": _caches(),
        "goldilocks_probe_operand": {"shape": [rows, FIELD_ROW],
                                     "bytes": rows * FIELD_ROW * 8},
    }


def untraced(workload, seed: int, seconds: int, workers: int, expect: str) -> dict:
    request = {"workload": workload.name, "seed": seed, "seconds": seconds,
               "workers": workers, "expect": expect}
    setups = [run_child(dict(request, mode="setup"))["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = run_child(dict(request, mode="measure"))
    setups.append(res["setup_s"])
    times = res["times"]
    distill_s = statistics.median(times) if times else None
    metrics = {
        "distill_s": distill_s,
        "throughput_mbps": workload.N / distill_s / 1e6 if times else None,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return {"metrics": metrics, "attempted": res["attempted"], "failed": res["failed"],
            "failures": res["failures"], "numpy": res["numpy"],
            "samples": {"distill_s": times, "warmup_s": res["warmup_s"], "setup_s": setups}}


def traced(workload, seed: int, seconds: int, workers: int, expect: str) -> dict:
    request = {"workload": workload.name, "seed": seed, "seconds": seconds,
               "workers": workers, "expect": expect, "mode": "trace"}
    res = run_child(request)
    res["metrics"]["error_rate"] = res["failed"] / res["attempted"]
    return res


def run_workload(workload, seed: int, seconds: int, modes) -> list[dict]:
    workers = workload.resolve_workers()
    key, seed_bytes = make_inputs(workload, seed)
    start = time.perf_counter()
    expected = distill_reference(key, seed_bytes, workload.N, workload.l, workload.gamma)
    reference_s = time.perf_counter() - start
    expect = hashlib.sha256(expected).hexdigest()
    print(f"workload {workload.name}: gamma={workload.gamma} N={workload.N} l={workload.l} "
          f"n={workload.n} m={workload.m} l'={workload.l_prime} W={workers} seed={seed}")
    print(f"  reference: {reference_s:.2f} s with CPython ints at full scale, "
          f"sha256 {expect[:16]}")
    records = []
    for trace in modes:
        res = (traced if trace else untraced)(workload, seed, seconds, workers, expect)
        res.update(workload=workload.name, trace=trace, reference_s=reference_s,
                   provenance=provenance(workload, seed, workers, res.pop("numpy")))
        report(res)
        OUT.mkdir(exist_ok=True)
        (OUT / f"{workload.name}-seed{seed}-trace{trace}.json").write_text(
            json.dumps(res, indent=1))
        records.append(res)
    return records


def report(res: dict) -> None:
    print(f"  trace={res['trace']}: {res['attempted']} outputs checked, {res['failed']} "
          f"failed (error_rate {res['failed'] / res['attempted']:.4g} ratio)")
    for failure in res["failures"]:
        print(f"    FAILED {failure}")
    for name, value in res["metrics"].items():
        shown = "null" if value is None else f"{value:.6g}"
        note = res.get("notes", {}).get(name)
        print(f"    {name:28s} {shown:>12s} {UNITS[name]}" + (f"  ({note})" if note else ""))
    samples = res.get("samples", {}).get("distill_s")
    if samples:
        print(f"    distill_s is the median of {len(samples)} operations after an "
              f"untimed warm-up: " + ", ".join(f"{t:.3f}" for t in samples))
    print(f"  provenance: {json.dumps(res['provenance'])}")


def result_line(records: list[dict], prefix: bool) -> dict:
    metrics = {}
    for res in records:
        for name, value in res["metrics"].items():
            key = f"{res['workload']}/{name}" if prefix else name
            metrics[key] = {"value": value, "unit": UNITS[name]}
            if value is None:
                metrics[key]["note"] = res.get("notes", {}).get(name, "not measured")
    return {"correct": not any(res["failures"] for res in records),
            "attempted": sum(res["attempted"] for res in records),
            "failed": sum(res["failed"] for res in records), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 for the per-layer run; --workload all runs both")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from workloads.py and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if not (SRC / "qpa" / "__init__.py").is_file():
        print(f"error: no qpa sources at {SRC}", file=sys.stderr)
        return 2
    everything = args.workload == "all"
    names = list(WORKLOADS) if everything else [args.workload]
    modes = (0, 1) if everything else (args.trace,)
    try:
        records = [res for name in names
                   for res in run_workload(WORKLOADS[name], args.seed, args.seconds, modes)]
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result_line(records, prefix=everything)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

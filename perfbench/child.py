"""Fresh-process side of the benchmark: set-up, timed operations, traced run.

``run.py`` starts ``python3 child.py '<json request>'`` and reads the
JSON object printed on its last stdout line.  Nothing from ``qpa`` is
imported before the set-up clock starts, so ``setup_s`` covers
``import qpa``, ``plan()`` and the lazy table build of one forward
transform at the workload's length.

Modes:
  setup    set up and report the time
  measure  set up, run one untimed warm-up operation, then run
           operations in a closed loop for ``seconds`` and report each
           one's time, every output's check against the expected digest
           and the process's peak RSS
  trace    set up, then run the traced replay and the kernel probes
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, make_inputs


def setup(workload, src: str):
    # numpy's own import is outside qpa's control and varied 0.05-0.16 s
    # from run to run on a 2-CPU VM, so it stays off the set-up clock
    import numpy as np
    start = time.perf_counter()
    if src not in sys.path:
        sys.path.insert(0, src)
    import qpa
    from qpa import ntt
    params = qpa.plan(workload.N, workload.l, workload.gamma)
    ntt.ntt_forward(np.zeros(workload.length, dtype=np.uint64))
    elapsed = time.perf_counter() - start
    if not Path(qpa.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported qpa from {qpa.__file__}, not from {src}")
    # warm the remaining lazy state at this length outside the clock
    ntt.ntt_inverse(np.zeros(workload.length, dtype=np.uint64))
    return params, elapsed


def operation(params, key: bytes, seed: bytes, workers: int) -> bytes:
    """What ``qpa distill`` does, minus file I/O."""
    import qpa
    from qpa import bitio, pipeline
    seed_bits = bitio.bits_from_bytes(seed, pipeline.required_seed_bits(params))
    material = pipeline.seed_from_bits(seed_bits, params)
    return bitio.bytes_from_bits(qpa.distill(key, material, params, workers=workers))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def measure(workload, params, request) -> dict:
    key, seed = make_inputs(workload, request["seed"])
    failures = []

    def checked_operation(index: int) -> float | None:
        start = time.perf_counter()
        try:
            out = operation(params, key, seed, request["workers"])
        except Exception as exc:  # a raising operation counts as failed
            failures.append(f"operation {index} raised {exc!r}")
            return None
        elapsed = time.perf_counter() - start
        if digest(out) != request["expect"]:
            failures.append(f"operation {index} output differs from the reference")
        return elapsed

    # The first operation in a process grows the heap and faults its pages
    # in (about 10% slower on mid).  It is checked but not timed: the loop
    # measures the steady state of a caller that distills key after key.
    warmup_s = checked_operation(0)
    times = []
    attempted = 1
    start = time.perf_counter()
    while True:
        elapsed = checked_operation(attempted)
        attempted += 1
        if elapsed is not None:
            times.append(elapsed)
        if time.perf_counter() - start >= request["seconds"]:
            break
    return {"times": times, "warmup_s": warmup_s, "attempted": attempted,
            "failed": len(failures), "failures": failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main(argv: list[str]) -> int:
    request = json.loads(argv[1])
    workload = WORKLOADS[request["workload"]]
    params, setup_s = setup(workload, request["src"])
    result = {"setup_s": setup_s}
    if request["mode"] == "measure":
        result.update(measure(workload, params, request))
    elif request["mode"] == "trace":
        import probes
        key, seed = make_inputs(workload, request["seed"])
        result.update(probes.traced_run(workload, params, key, seed, request,
                                            operation))
    import numpy
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

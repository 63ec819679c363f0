"""Smoke tests of the benchmark itself: ``python3 -m pytest perfbench``.

They check the reference against ``qpa.oracle.naive_distill`` on small
fields, the traced run and its probes on a tiny workload, the failure
paths, and that ``BENCHMARK.json`` is what ``workloads.py`` declares.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import child  # noqa: E402
import probes  # noqa: E402
from reference import AllOnesInput, distill_reference  # noqa: E402
from workloads import (END_TO_END, PER_LAYER, WORKLOADS, Workload,  # noqa: E402
                       benchmark_json, make_inputs)
from qpa import bigint, bitio, mersenne, ntt, oracle, pipeline  # noqa: E402
from qpa.errors import AllOnesBlock  # noqa: E402

# (N, l) per gamma: tail-only (m = 0), whole blocks (l' = 0) and mixed
SHAPES = {7: [(40, 5), (42, 14), (60, 17)],
          31: [(200, 20), (200, 62), (300, 100)],
          127: [(1000, 100), (1000, 254), (1500, 300)]}


@pytest.mark.parametrize("gamma", sorted(SHAPES))
def test_reference_matches_naive_oracle(gamma):
    rng = random.Random(gamma)
    checked = 0
    for N, l in SHAPES[gamma]:
        params = pipeline.plan(N, l, gamma)
        seed_bits = pipeline.required_seed_bits(params)
        for _ in range(20):
            key = rng.randbytes((N + 7) // 8)
            seed = rng.randbytes((seed_bits + 7) // 8)
            material = pipeline.seed_from_bits(bitio.bits_from_bytes(seed, seed_bits), params)
            try:
                expected = oracle.naive_distill(bitio.bits_from_bytes(key, N), material, params)
            except AllOnesBlock:
                with pytest.raises(AllOnesInput):
                    distill_reference(key, seed, N, l, gamma)
                continue
            assert distill_reference(key, seed, N, l, gamma) == bitio.bytes_from_bits(expected)
            checked += 1
    assert checked >= 40


def test_inputs_are_deterministic_and_sized():
    for w in WORKLOADS.values():
        key, seed = make_inputs(w, 7)
        assert (key, seed) == make_inputs(w, 7)
        assert make_inputs(w, 8)[0] != key
        params = pipeline.plan(w.N, w.l, w.gamma)
        assert (w.n, w.m, w.l_prime) == (params.n, params.m, params.l_prime)
        assert len(seed) == (pipeline.required_seed_bits(params) + 7) // 8
        assert len(key) == (w.N + 7) // 8


TINY = Workload("tiny", 127, 5000, 300, "2", 16, "test")


def tiny_request():
    key, seed = make_inputs(TINY, 3)
    expect = hashlib.sha256(distill_reference(key, seed, TINY.N, TINY.l, TINY.gamma)).hexdigest()
    return key, seed, {"seed": 3, "workers": 2, "expect": expect, "seconds": 0}


def traced_tiny():
    params, _ = child.setup(TINY, str(SRC))
    key, seed, request = tiny_request()
    return probes.traced_run(TINY, params, key, seed, request, child.operation)


def test_traced_run_checks_outputs_and_covers():
    forward, inverse = ntt.ntt_forward, ntt.ntt_inverse
    res = traced_tiny()
    assert res["failures"] == [] and res["failed"] == 0 and res["attempted"] == 5
    assert res["notes"] == {}
    metrics = res["metrics"]
    assert set(metrics) == {m.name for m in PER_LAYER}
    # error_rate is filled in by run.py from the failed/attempted counts
    assert [k for k, v in metrics.items() if v is None] == ["error_rate"]
    assert metrics["trace.coverage"] >= 0.9
    assert (ntt.ntt_forward, ntt.ntt_inverse) == (forward, inverse)
    names = {s["name"] for s in res["spans"]}
    assert {"operation", "bitio.bits_from_bytes", "pipeline.seed_from_bits",
            "dm3h.split_and_pad", "dm3h.mmh_pass", "mmh_mh.mh_hash", "bitio.pack",
            "pipeline.distill_blocks"} <= names


def test_counting_wraps_and_restores():
    forward = ntt.ntt_forward
    recorder = probes.Probes()
    with probes.counting(recorder):
        ntt.ntt_forward(np.zeros((3, 16), dtype=np.uint64))
        ntt.ntt_inverse(ntt.ntt_forward(np.zeros(16, dtype=np.uint64)))
        bigint.mul_ntt(bigint.BigUint.from_int(3), bigint.BigUint.from_int(5))
    assert ntt.ntt_forward is forward
    assert (recorder.metrics["ntt.forward_rows"], recorder.metrics["ntt.inverse_rows"],
            recorder.metrics["bigint.mul_calls"]) == (4, 1, 1)


@pytest.mark.parametrize("replacement", [None, lambda x: x])
def test_missing_or_changed_probe_function_reports_null(monkeypatch, replacement):
    if replacement is None:
        monkeypatch.delattr(mersenne, "fold")
    else:
        monkeypatch.setattr(mersenne, "fold", replacement)
    res = traced_tiny()
    assert res["metrics"]["mersenne.fold_ms"] is None
    assert "mersenne.fold_ms" in res["notes"]
    assert res["failures"] == []
    assert [k for k, v in res["metrics"].items() if v is None] == [
        "error_rate", "mersenne.fold_ms"]


def test_wrong_output_is_a_failure_not_a_note():
    params, _ = child.setup(TINY, str(SRC))
    key, seed, request = tiny_request()
    request["expect"] = "0" * 64
    res = probes.traced_run(TINY, params, key, seed, request, child.operation)
    assert res["failed"] == res["attempted"] == 5


def test_measure_checks_every_operation():
    params, _ = child.setup(TINY, str(SRC))
    _, _, request = tiny_request()
    res = child.measure(TINY, params, dict(request, seconds=0.5))
    assert res["attempted"] >= 3 and res["failed"] == 0
    assert len(res["times"]) == res["attempted"] - 1   # the warm-up is not timed
    bad = child.measure(TINY, params, dict(request, seconds=0, expect="0" * 64))
    assert bad["failed"] == bad["attempted"] == 2


def test_benchmark_json_is_generated_from_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec == benchmark_json()
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and all(name.fullmatch(x) for x in names)
    assert all(unit.fullmatch(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    bounds = {m.name: m.bound for m in END_TO_END}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout

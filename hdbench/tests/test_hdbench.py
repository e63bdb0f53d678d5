"""Tests of the benchmark itself (not of the program it measures).

    python3 -m pytest hdbench/tests -q

The two end-to-end tests run ``hdbench/run.py`` on ``cold-sim`` for one
second of measurement (about half a minute each).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cold_sim  # noqa: E402
import fleet  # noqa: E402
import harness  # noqa: E402
import service  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "hdbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- the percentile rule ------------------------------------------------------


@pytest.mark.parametrize("n, label", [
    (1, "max"), (19, "max"), (20, "p50"), (39, "p50"), (40, "p75"),
    (99, "p75"), (100, "p90"), (200, "p95"), (1000, "p99"), (9999, "p99"),
    (10000, "p99.9"),
])
def test_tail_picks_the_highest_percentile_with_ten_beyond(n, label):
    samples = [float(i) for i in range(n, 0, -1)]
    got_label, value, got_n = harness.tail(samples)
    assert (got_label, got_n) == (label, n)
    beyond = sum(1 for s in samples if s > value)
    if label == "max":
        assert value == max(samples)
    else:
        assert beyond >= harness.TAIL_BEYOND


def test_tail_of_nothing_is_refused():
    with pytest.raises(ValueError):
        harness.tail([])


# -- spans --------------------------------------------------------------------


def test_self_time_subtracts_children_and_trace_exports():
    tracer = harness.Tracer(True)
    with tracer.span("outer", "r1"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer = tracer.by_name("outer")[0]
    inners = tracer.by_name("inner")
    assert all(s.parent == outer.id and s.rid == "r1" for s in inners)
    own = tracer.self_seconds()
    assert own["outer"] == pytest.approx(
        outer.seconds - sum(s.seconds for s in inners), abs=1e-9
    )
    events = tracer.chrome_trace({})["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner", "inner"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


def test_disabled_tracer_records_nothing():
    tracer = harness.Tracer(False)
    with tracer.span("x"):
        pass
    assert tracer.spans == []


# -- host speed ---------------------------------------------------------------


def test_reference_speed_scales_by_the_mean_probe():
    ref = harness.PROBE_REF_S
    assert harness.at_reference_speed(1.0, ref, ref) == pytest.approx(1.0)
    # On a CPU running at half speed the same work takes twice as long.
    assert harness.at_reference_speed(2.0, ref, 3 * ref) == pytest.approx(1.0)


def test_speed_sampler_scales_a_window_it_sampled(tmp_path):
    children = harness.Children(dict(os.environ), tmp_path)
    sampler = harness.SpeedSampler(children, tmp_path / "speed.txt")
    try:
        time.sleep(1.0)
        start = time.perf_counter() - 0.5
        scaled = sampler.at_reference_speed(start, 0.5)
    finally:
        sampler.stop()
    assert 0.0 < scaled < float("inf")
    assert children.procs == []


# -- inputs -------------------------------------------------------------------


#: The seeded input generators (sweep's set is fixed by design).
GENERATORS = (cold_sim.inputs, fleet.inputs, service.catalogue,
              lambda seed: service.sequence(seed, 16))


@pytest.mark.parametrize("generate", GENERATORS)
def test_same_seed_same_inputs(generate):
    assert generate(7) == generate(7)


@pytest.mark.parametrize("generate", GENERATORS)
def test_seed_changes_the_inputs(generate):
    assert generate(7) != generate(8)


def test_service_sequence_touches_every_entry_early():
    cat = service.catalogue(3)
    seq = service.sequence(3, len(cat))
    assert set(seq[:service.FIRST_TOUCH_WITHIN]) >= set(range(len(cat)))
    assert seq[service.STATUS_EVERY - 1] == service.STATUS


# -- metric names -------------------------------------------------------------


def test_layer_map_matches_benchmark_json():
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert len(declared) == len(set(declared))
    layer_map = json.loads(harness.LAYER_MAP.read_text())
    mapped = layer_map["layers"]
    assert set(mapped) == set(declared)
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(layer_map["ops"]) == workloads
    metric_names = set(declared) | {m["name"] for m in SPEC["end_to_end"]}
    for name, layer in mapped.items():
        assert layer["on"] and set(layer["on"]) <= workloads, name
        assert set(layer["moves"]) <= metric_names, name
    assert {n for w in workloads for n in harness.layers_on(w)} == set(declared)


def test_printed_metrics_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for trace, declared in (("0", e2e), ("1", layers)):
        proc = _run("--workload", "cold-sim", "--seed", "0",
                    "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = _result(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == declared
        if trace == "0":
            assert all(v["value"] > 0 for v in result["metrics"].values())


# -- correctness gate ---------------------------------------------------------


def _copy_benchmark(dest: Path) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "hdbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest / "hdbench"


def test_corrupted_golden_digest_fails_the_run(tmp_path):
    copy = _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    golden = json.loads((copy / "golden.json").read_text())
    digests = golden["cold-sim"]["payload_digests"]
    digests[0] = "0" * len(digests[0])
    (copy / "golden.json").write_text(json.dumps(golden))
    proc = _run("--workload", "cold-sim", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    result = _result(proc)
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    proc = _run("--workload", "cold-sim", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

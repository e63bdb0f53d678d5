"""Unit tests: the heuristic's profile pass."""

import pytest

from repro.trace.benchmarks import ILP_BENCHMARKS, MEM_BENCHMARKS
from repro.trace.profiling import (
    clear_profile_cache,
    profile_benchmark,
    profile_workload,
)


def test_profile_deterministic_and_cached():
    clear_profile_cache()
    p1 = profile_benchmark("gzip", 5000)
    p2 = profile_benchmark("gzip", 5000)
    assert p1 is p2
    clear_profile_cache()
    p3 = profile_benchmark("gzip", 5000)
    assert p3.l1d_misses == p1.l1d_misses


def test_mem_class_misses_dominate_ilp():
    worst_ilp = max(
        profile_benchmark(b, 8000).misses_per_kilo_instruction for b in ILP_BENCHMARKS
    )
    best_mem = min(
        profile_benchmark(b, 8000).misses_per_kilo_instruction for b in MEM_BENCHMARKS
    )
    assert best_mem > worst_ilp


def test_mem_internal_ordering():
    """The heuristic's sort key must order mcf > twolf > vpr > perlbmk."""
    mpki = {
        b: profile_benchmark(b, 12_000).misses_per_kilo_instruction
        for b in ("mcf", "twolf", "vpr", "perlbmk")
    }
    assert mpki["mcf"] > mpki["twolf"] > mpki["vpr"] > mpki["perlbmk"]


def test_profile_fields_consistent():
    p = profile_benchmark("vpr", 6000)
    assert p.instructions == 6000
    assert 0 <= p.l1d_misses <= p.accesses
    assert p.l2_misses <= p.l1d_misses
    assert p.l1d_miss_rate == pytest.approx(p.l1d_misses / p.accesses)


def test_profile_workload_order():
    profs = profile_workload(["eon", "mcf"], 4000)
    assert [p.benchmark for p in profs] == ["eon", "mcf"]


def _reference_profile(name, length):
    """The per-entry profile pass the batched one replaced, verbatim."""
    from repro.isa.opcodes import OP_LOAD, OP_STORE
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.trace.profiling import DCacheProfile
    from repro.trace.stream import trace_for

    trace = trace_for(name, length)
    mem = MemoryHierarchy(None, max_threads=1)
    # Warm-up pass.
    for e in trace.entries:
        op = e[0]
        if op == OP_LOAD or op == OP_STORE:
            mem.l1d.access(e[4], 0)
    l1_before = mem.l1d.stats.misses
    l2_before = mem.l2.stats.misses
    acc_before = mem.l1d.stats.accesses
    # Measured pass.
    for e in trace.entries:
        op = e[0]
        if op == OP_LOAD:
            mem.load(e[4], 0)
        elif op == OP_STORE:
            mem.store(e[4], 0)
    return DCacheProfile(
        benchmark=name,
        instructions=trace.length,
        accesses=mem.l1d.stats.accesses - acc_before,
        l1d_misses=mem.l1d.stats.misses - l1_before,
        l2_misses=mem.l2.stats.misses - l2_before,
    )


@pytest.mark.parametrize("length", [4000, 20_000])
def test_batched_pass_equals_per_entry_reference(length):
    from repro.trace.benchmarks import BENCHMARK_NAMES
    from repro.trace.stream import _CACHE as TRACES
    from repro.trace.stream import clear_trace_cache

    assert len(BENCHMARK_NAMES) == 12
    for name in BENCHMARK_NAMES:
        clear_profile_cache()
        clear_trace_cache()
        profile = profile_benchmark(name, length)
        # The profiled window is used once and never memoized.
        assert (name, length, 0) not in TRACES
        assert profile == _reference_profile(name, length)
    clear_trace_cache()


def test_prefetch_profiles_runs_only_missing_benchmarks():
    from repro.trace.profiling import ProfileJob, prefetch_profiles

    clear_profile_cache()
    profile_benchmark("gzip", 4000)
    batches = []

    def run(jobs):
        batches.append(list(jobs))
        return [job.execute() for job in jobs]

    prefetch_profiles(["gzip", "mcf", "gzip", "eon"], run, length=4000)
    assert batches == [[ProfileJob("mcf", 4000), ProfileJob("eon", 4000)]]
    assert all(job.front_end and not job.heavy for job in batches[0])
    assert profile_benchmark("mcf", 4000) == _reference_profile("mcf", 4000)
    prefetch_profiles(["mcf", "eon"], run, length=4000)
    assert len(batches) == 1  # all memoized: no second batch

"""Unit tests: the batched full-length continuation scheduler.

The contract: bundles *partition* the run plan exactly (every run in
exactly one bundle, round-robin, original relative order), a bundle's
resume count equals the number of full-length runs it replaces, and a
bundled run's result is bit-identical to the ``run_simulation`` call the
one-job-per-run scheduler used to dispatch.
"""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.core.simulation import run_simulation
from repro.experiments.performance import (
    _execute_plans,
    _plan_pair,
    clear_result_cache,
)
from repro.runner import BatchRunner
from repro.runner.cache import ResultCache
from repro.runner.continuation import (
    ContinuationJob,
    ContinuationRun,
    plan_bundles,
    unbundle_results,
)
from repro.workloads.definitions import get_workload


def _run(i: int) -> ContinuationRun:
    """Distinct dummy runs (never executed by the partition tests)."""
    return ContinuationRun("M8", ("gzip",), (0,), 100 + i)


# ----------------------------------------------------------- plan_bundles


@pytest.mark.parametrize("n_runs,bundle_count", [
    (0, 4), (1, 4), (3, 4), (4, 4), (5, 4), (12, 4), (7, 1), (7, 3), (9, 16),
])
def test_bundles_partition_the_plan_exactly(n_runs, bundle_count):
    runs = [_run(i) for i in range(n_runs)]
    jobs = plan_bundles(runs, bundle_count)
    # Never more bundles than runs or than requested; none empty.
    assert len(jobs) == min(n_runs, bundle_count)
    assert all(job.runs for job in jobs)
    # Exact partition: every run appears exactly once, round-robin —
    # bundle b holds runs[b::n] in original order.
    n = len(jobs)
    for b, job in enumerate(jobs):
        assert list(job.runs) == runs[b::n]
    flat = sorted((r for job in jobs for r in job.runs),
                  key=lambda r: r.commit_target)
    assert flat == runs
    # Resume counts cover the plan exactly.
    assert sum(job.resume_count for job in jobs) == n_runs


@given(n=st.integers(0, 30), bundles=st.integers(1, 10))
def test_plan_unbundle_round_trip(n, bundles):
    """unbundle_results inverts plan_bundles for any plan shape:
    per-bundle results come back in original run order."""
    runs = [_run(i) for i in range(n)]
    jobs = plan_bundles(runs, bundles)
    fake = [tuple(r.commit_target for r in job.runs) for job in jobs]
    assert unbundle_results(fake, n) == [r.commit_target for r in runs]


def test_bundle_count_must_be_positive():
    with pytest.raises(ValueError):
        plan_bundles([_run(0)], 0)


# ------------------------------------------------- execution bit-identity


def test_bundled_runs_equal_run_simulation(tiny_scale):
    """A bundle's results must be bit-identical, run for run, to the
    individual ``run_simulation`` calls it replaces."""
    runs = (
        ContinuationRun("M8", ("gzip", "twolf"), (0, 0),
                        tiny_scale.commit_target),
        ContinuationRun("2M4+2M2", ("gzip", "twolf"), (0, 2),
                        tiny_scale.commit_target),
    )
    job = ContinuationJob(runs=runs)
    results = job.execute()
    assert len(results) == job.resume_count == 2
    for run, result in zip(runs, results):
        ref = run_simulation(run.config, run.benchmarks, run.mapping,
                             run.commit_target)
        assert result == ref


def test_result_cache_is_per_run_and_bundle_independent(tmp_path, tiny_scale):
    """Bundle runs cache under their SimJob identities: a re-bundled (or
    per-job) sweep hits the same entries, independent of composition."""
    run_a = ContinuationRun("M8", ("gzip",), (0,), tiny_scale.commit_target)
    run_b = ContinuationRun("M8", ("twolf",), (0,), tiny_scale.commit_target)
    cache = ResultCache(tmp_path)
    first = ContinuationJob(runs=(run_a, run_b)).execute(cache)
    assert cache.misses == 2 and cache.hits == 0
    # Different bundling, same runs: both served from cache.
    again = tuple(
        ContinuationJob(runs=(r,)).execute(cache)[0] for r in (run_b, run_a)
    )
    assert cache.hits == 2
    assert again == (first[1], first[0])
    # The per-job scheduler's SimJob identity hits the same entry.
    assert run_a.as_sim_job().execute(cache) == first[0]
    assert cache.hits == 3


# ------------------------------------------ scheduler integration (sweep)


class RecordingRunner(BatchRunner):
    """Executes every batch inline but records it, while *reporting* a
    multi-worker width so the scheduler sizes bundles as the pool would."""

    def __init__(self, reported_workers: int):
        super().__init__(workers=1, trace_store=False)
        self.workers = reported_workers
        self.batches = []

    def run(self, jobs):
        jobs = list(jobs)
        self.batches.append(jobs)
        return [job.execute() for job in jobs]


def test_sweep_resume_counts_match_exact_mode_run_counts(tiny_scale):
    """Exact-mode sweep: the bundles must execute exactly the runs the
    per-job scheduler dispatched — one screen per candidate mapping and
    one full run per single-mapping pair in phase 1 (packed into at most
    worker-count bundles), then one full-length run per distinct
    BEST/HEUR/WORST mapping of every screened pair in phase 2.
    """
    clear_result_cache()
    configs = ["M8", "2M4+2M2"]
    workloads = ["2W1", "2W7"]
    runner = RecordingRunner(reported_workers=3)
    plans = [
        _plan_pair(cn, get_workload(wn), tiny_scale, screening=False)
        for cn in configs for wn in workloads
    ]
    _execute_plans(plans, tiny_scale, runner, bundle_count=None)
    assert len(runner.batches) == 2  # screens (+singles), then continuations

    singles = [p for p in plans if p.single_map is not None]
    screened = [p for p in plans if p.single_map is None]
    assert singles and screened  # the scenario covers both paths

    # Phase 1: exact-mode screens ride in the same worker-count-sized
    # bundles as the single-mapping pairs' full runs — at most
    # ``workers`` jobs total where the per-job scheduler dispatched
    # one SimJob per candidate mapping.
    phase1_bundles = [j for j in runner.batches[0]
                      if isinstance(j, ContinuationJob)]
    assert phase1_bundles == list(runner.batches[0])  # no per-run jobs left
    assert len(phase1_bundles) <= runner.workers
    phase1_runs = [r for j in phase1_bundles for r in j.runs]
    single_runs = [r for r in phase1_runs
                   if r.commit_target == tiny_scale.commit_target]
    screen_runs = [r for r in phase1_runs
                   if r.commit_target == tiny_scale.screen_target]
    assert len(single_runs) + len(screen_runs) == len(phase1_runs)
    assert len(single_runs) == len(singles)
    assert len(screen_runs) == sum(len(p.candidates) for p in screened)
    # Every candidate screened exactly once, as the per-job path did.
    assert {(r.config, r.benchmarks, r.mapping) for r in screen_runs} == {
        (p.config_name, p.workload.benchmarks, m)
        for p in screened for m in p.candidates
    }

    phase2 = runner.batches[1]
    assert all(isinstance(j, ContinuationJob) for j in phase2)
    assert len(phase2) <= runner.workers
    # Exact-mode run count: every distinct mapping among BEST/HEUR/WORST
    # per screened pair (the set the per-run scheduler would dispatch).
    expected = sum(
        len(dict.fromkeys([p.heur_map, p.best_map, p.worst_map]))
        for p in screened
    )
    assert sum(j.resume_count for j in phase2) == expected
    # The bundled runs are exactly the planned (pair, mapping) requests.
    planned = {
        (p.config_name, p.workload.benchmarks, m)
        for p in screened
        for m in dict.fromkeys([p.heur_map, p.best_map, p.worst_map])
    }
    bundled = {
        (run.config, run.benchmarks, run.mapping)
        for j in phase2 for run in j.runs
    }
    assert bundled == planned
    # Every screened pair ended with all three full-length results.
    for p in screened:
        for m in (p.heur_map, p.best_map, p.worst_map):
            assert m in p.full_results
    clear_result_cache()


def test_bundle_count_knob_caps_phase2_jobs(tiny_scale):
    clear_result_cache()
    runner = RecordingRunner(reported_workers=8)
    plans = [_plan_pair("2M4+2M2", get_workload("2W7"), tiny_scale,
                        screening=False)]
    _execute_plans(plans, tiny_scale, runner, bundle_count=1)
    phase2 = runner.batches[1]
    assert len(phase2) == 1 and isinstance(phase2[0], ContinuationJob)
    clear_result_cache()


def test_screening_phase1_batch_does_not_grow_with_max_mappings(tiny_scale):
    """Screening mode dispatches one ladder job per screened pair plus
    the bundled single runs, whatever the candidate count: the phase-1
    batch stays the same size as ``max_mappings`` grows."""
    sizes, screened = [], []
    for max_mappings in (4, 16):
        clear_result_cache()
        scale = replace(tiny_scale, max_mappings=max_mappings)
        runner = RecordingRunner(reported_workers=4)
        plans = [
            _plan_pair(cn, get_workload(wn), scale, screening=True)
            for cn in ("M8", "2M4+2M2") for wn in ("2W4", "4W6")
        ]
        _execute_plans(plans, scale, runner)
        sizes.append(len(runner.batches[0]))
        screened.append(sum(p.candidates_count for p in plans
                            if p.screen_job is not None))
    clear_result_cache()
    assert screened[1] > screened[0]  # more candidates screened...
    assert sizes[0] == sizes[1]       # ...by the same number of jobs

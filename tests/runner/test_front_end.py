"""The runner's front end on the worker pool: the two prepack rounds
(trace packing, warm snapshots) and a sweep's profile batch.  The store
they leave, the results and the caller's RunReport books must be exactly
those of the same work done inline."""

import json
from pathlib import Path

import pytest

from repro.runner import BatchRunner, RetryPolicy, SimJob
from repro.runner.batch import plan_prepack
from repro.runner.cache import sim_result_payload

#: Three distinct workloads: eight distinct traces and three warm sets,
#: so both prepack rounds are big enough for the pool.
JOBS = (
    SimJob("M8", ("gzip", "twolf"), (0, 0), 400),
    SimJob("2M4+2M2", ("bzip2", "mcf", "vpr", "eon"), (0, 1, 2, 3), 400),
    SimJob("3M4", ("gcc", "parser"), (0, 1), 400),
)


@pytest.fixture(scope="module")
def reference_results():
    with BatchRunner(workers=1, trace_store=False) as runner:
        return runner.run(JOBS)


def _canonical(results) -> bytes:
    return json.dumps([sim_result_payload(r) for r in results],
                      sort_keys=True).encode()


def _store_files(directory) -> dict:
    return {
        p.name: p.read_bytes()
        for p in Path(directory).iterdir()
        if p.suffix in (".trace", ".warm")
    }


def test_both_rounds_are_big_enough_for_the_pool(tmp_path):
    pack, warm = plan_prepack(JOBS, str(tmp_path), set())
    assert len(pack) == 8 and len(warm) == 3
    assert all(job.front_end and not job.heavy for job in pack + warm)
    assert all(job.trace_manifest() == () for job in pack + warm)


def test_plan_skips_what_the_memo_or_store_holds(tmp_path):
    packed = set()
    pack, warm = plan_prepack(JOBS, str(tmp_path), packed)
    assert {job.triple for job in pack} == packed
    assert plan_prepack(JOBS, str(tmp_path), packed)[0] == []
    for job in pack + warm:
        job.execute()
    # A fresh memo still finds everything in the store.
    assert plan_prepack(JOBS, str(tmp_path), set()) == ([], [])


def test_warm_round_reads_round_one_traces_from_the_store(tmp_path,
                                                         monkeypatch):
    """A warm job in a process that did not pack (the parent after a
    pooled round 1) loads its traces from the store, never regenerates."""
    import repro.trace.stream as stream

    pack, warm = plan_prepack(JOBS, str(tmp_path), set())
    for job in pack:
        job.execute()
    stream.clear_trace_cache()

    def no_generation(*args, **kwargs):
        raise AssertionError("trace regenerated")

    monkeypatch.setattr(stream, "TraceGenerator", no_generation)
    for job in warm:
        job.execute()
    assert len(list(tmp_path.glob("*.warm"))) == len(warm)
    stream.clear_trace_cache()


def test_pool_prepack_leaves_the_inline_plans_store(tmp_path,
                                                    reference_results):
    pool_store = tmp_path / "pool"
    with BatchRunner(workers=2, trace_store=pool_store) as runner:
        results = runner.run(JOBS)
        report = runner.report
    inline_store = tmp_path / "inline"
    pack, warm = plan_prepack(JOBS, str(inline_store), set())
    for job in pack + warm:
        job.execute()
    files = _store_files(pool_store)
    assert sum(name.endswith(".trace") for name in files) == len(pack)
    assert sum(name.endswith(".warm") for name in files) == len(warm)
    assert files == _store_files(inline_store)
    assert results == list(reference_results)
    # Only the caller's jobs are on the books.
    assert (report.jobs, report.batches, report.attempts) == (len(JOBS), 1,
                                                              len(JOBS))
    assert len(report.job_seconds) == len(JOBS)


def test_worker_death_on_a_prepack_job_is_survived(tmp_path, monkeypatch,
                                                   reference_results):
    """The first pool execution is a round-1 pack job: it dies, the pool
    respawns, and the batch is byte-identical with clean books."""
    faults = tmp_path / "faults"
    monkeypatch.setenv("REPRO_FAULT_STATE", str(faults))
    monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(
        [{"match": "", "op": "die", "executions": [1]}]
    ))
    policy = RetryPolicy(max_attempts=3, backoff_base=0.05, backoff_max=0.2,
                         timeout=60.0)
    with BatchRunner(workers=2, trace_store=tmp_path / "store",
                     policy=policy) as runner:
        results = runner.run(JOBS)
        report = runner.report
    assert (faults / "rule0.exec1").exists()
    assert _canonical(results) == _canonical(reference_results)
    assert report.pool_respawns >= 1
    assert report.failures == 0
    assert (report.jobs, report.attempts) == (len(JOBS), len(JOBS))


def test_sweep_report_counts_only_its_simulation_jobs(tiny_scale):
    from repro.experiments.performance import (
        clear_result_cache,
        run_performance_experiment,
    )
    from repro.trace.profiling import clear_profile_cache

    clear_result_cache()
    clear_profile_cache()
    batches = []
    with BatchRunner(workers=2) as runner:
        run = runner.run

        def spy(jobs):
            jobs = list(jobs)
            batches.append(jobs)
            return run(jobs)

        runner.run = spy
        run_performance_experiment(("M8", "2M4+2M2"), ("2W4", "4W6"),
                                   tiny_scale, runner=runner)
        report = runner.report
    clear_result_cache()
    profiles = [b for b in batches if all(job.front_end for job in b)]
    # One profile batch, over the hdSMT pairs' four benchmarks (pool-sized).
    assert [sorted(job.benchmark for job in b) for b in profiles] == [
        ["bzip2", "gzip", "mcf", "twolf"]
    ]
    submitted = sum(len(b) for b in batches if b not in profiles)
    assert submitted > 0
    assert report.jobs == submitted
    assert report.attempts == submitted
    assert report.batches == len(batches) - 1


def test_queue_runner_prepares_inline_without_a_local_pool(tmp_path):
    """A fleet runner runs the prepack rounds and a profile batch in the
    parent: no local pool starts, nothing is enqueued or booked."""
    from repro.trace.profiling import ProfileJob

    with BatchRunner(workers=2, queue_dir=tmp_path / "q") as runner:
        runner._prepack_traces(JOBS)
        assert plan_prepack(JOBS, runner.store_dir, set()) == ([], [])
        profiles = runner.run([ProfileJob(b, 4000)
                               for b in ("gzip", "mcf", "eon")])
        assert [p.benchmark for p in profiles] == ["gzip", "mcf", "eon"]
        assert runner._supervisor is None
        report = runner.report
    assert (report.jobs, report.batches, report.enqueued) == (0, 0, 0)
    assert runner.jobs_run == 0

"""DistributedExecutor + Worker integration, in-process.

These tests service the queue with controllable threads built on the
real :class:`~repro.runner.distributed.worker.Worker` claim/execute
machinery (but not ``Worker.run``, whose process setup — ``gc.disable``
etc. — is for dedicated worker processes, not a shared test process).
Real multi-process fleets, chaos included, live in
``test_distributed_chaos.py``; here the point is deterministic coverage
of every front-end path: clean distribution, grace-window degradation,
lease reclamation, speculative re-dispatch, failure-budget exhaustion
and dark-fleet draining.
"""

import threading
import time

import pytest

from repro.runner import BatchRunner, JobQueue, RetryPolicy, RunReport
from repro.runner.distributed import DistributedExecutor, Worker
from repro.runner.distributed.queue import base_task_id

GENEROUS = 60.0
_EXECUTOR = "repro.runner.distributed.executor"


@pytest.fixture(scope="module")
def reference_results(sim_jobs):
    with BatchRunner(workers=1) as runner:
        return runner.run(sim_jobs)


class Servicer(threading.Thread):
    """An in-process queue servicer with fault dials.

    ``abandon_first``: claim the first (non-speculative) task seen, let
    the lease die unrenewed, and skip it once (a worker that vanished
    mid-task).  ``hold_first``: claim it on a long lease and never
    finish (a straggler) — speculation's prey.  ``delay_first``: claim
    it on a long lease and finish it that many seconds later (a slow but
    live worker).
    """

    def __init__(self, queue_dir, worker_id="svc", lease_ttl=GENEROUS,
                 abandon_first=False, hold_first=False, delay_first=None):
        super().__init__(daemon=True)
        self.worker = Worker(queue_dir, worker_id=worker_id,
                             lease_ttl=lease_ttl)
        self.queue = self.worker.queue
        self.worker_id = worker_id
        self.abandon_first = abandon_first
        self.hold_first = hold_first
        self.delay_first = delay_first
        self.stop = threading.Event()
        self.executed = []

    def run(self):
        sabotaged = None
        delayed = None  # (release time, task_id, job)
        while not self.stop.is_set():
            self.queue.heartbeat_worker(self.worker_id)
            if delayed is not None and time.monotonic() >= delayed[0]:
                _, task_id, job = delayed
                delayed = None
                self.worker._execute_claimed(task_id, job)
                self.executed.append(task_id)
                continue
            claimed = self.worker._claim_next()
            if claimed is None:
                time.sleep(0.01)
                continue
            task_id, job = claimed
            if sabotaged is None and "~" not in task_id:
                if self.abandon_first:
                    sabotaged = task_id
                    # Vanish: backdate the lease so it is already
                    # expired, then sit out the reclaim race so the
                    # front end must win it.
                    self.queue.renew(task_id, self.worker_id, ttl=-1.0)
                    deadline = time.monotonic() + 5.0
                    while (self.queue.read_lease(task_id) is not None
                           and time.monotonic() < deadline):
                        time.sleep(0.01)
                    continue
                if self.hold_first:
                    sabotaged = task_id
                    continue  # lease held (long ttl), never finishes
                if self.delay_first is not None:
                    sabotaged = task_id
                    delayed = (time.monotonic() + self.delay_first,
                               task_id, job)
                    continue  # lease held (long ttl), finishes later
            self.worker._execute_claimed(task_id, job)
            self.executed.append(task_id)

    def join_stopped(self):
        self.stop.set()
        self.join(timeout=30)
        assert not self.is_alive()


# -- BatchRunner routing ----------------------------------------------------


def test_distributed_batch_matches_local(tmp_path, sim_jobs,
                                         reference_results):
    svc = Servicer(tmp_path / "q")
    svc.start()
    try:
        with BatchRunner(workers=2, queue_dir=tmp_path / "q") as runner:
            results = runner.run(sim_jobs)
            report = runner.report
    finally:
        svc.join_stopped()
    assert results == reference_results
    assert len(svc.executed) == len(sim_jobs)
    assert report.enqueued == len(sim_jobs)
    assert report.jobs == len(sim_jobs)
    assert report.attempts == len(sim_jobs)
    assert report.local_fallbacks == 0
    assert report.failures == 0
    # The batch was garbage-collected: nothing left on the queue.
    q = JobQueue(tmp_path / "q")
    assert q.task_ids() == [] and q.pending() == []


def test_small_batches_stay_local(tmp_path, sim_jobs, reference_results):
    """Below the parallelism floor the queue is bypassed entirely — no
    enqueue, no grace-window wait."""
    with BatchRunner(workers=2, queue_dir=tmp_path / "q") as runner:
        results = runner.run(sim_jobs[:2])
        assert runner.report.enqueued == 0
        assert runner.report.local_fallbacks == 0
    assert results == list(reference_results[:2])


def test_no_worker_degrades_within_grace(tmp_path, sim_jobs,
                                         reference_results, monkeypatch):
    monkeypatch.setenv("REPRO_DIST_GRACE", "0.3")
    t0 = time.monotonic()
    with BatchRunner(workers=2, queue_dir=tmp_path / "q") as runner:
        results = runner.run(sim_jobs)
        report = runner.report
    assert results == reference_results
    assert report.local_fallbacks == 1
    assert report.enqueued == len(sim_jobs)
    assert report.jobs == len(sim_jobs)  # counted once, by the fallback
    assert time.monotonic() - t0 < 30.0
    q = JobQueue(tmp_path / "q")
    assert q.task_ids() == []  # withdrawn batch left nothing behind


def test_queue_config_published_for_workers(tmp_path):
    with BatchRunner(workers=2, queue_dir=tmp_path / "q",
                     cache_dir=tmp_path / "cache") as runner:
        config = JobQueue(tmp_path / "q").read_config()
        assert config["cache_dir"] == str(tmp_path / "cache")
        assert config["store_dir"] == runner.store_dir


# -- executor recovery paths (white-box) ------------------------------------


def test_expired_lease_is_reclaimed_and_redispatched(tmp_path, sim_jobs,
                                                     reference_results):
    q = JobQueue(tmp_path / "q")
    report = RunReport()
    executor = DistributedExecutor(
        q, report=report, grace=GENEROUS, lease_ttl=GENEROUS,
        stall_seconds=GENEROUS,
    )
    svc = Servicer(tmp_path / "q", abandon_first=True)
    svc.start()
    try:
        results = executor.run(list(sim_jobs), fallback=_must_not_run)
    finally:
        svc.join_stopped()
    assert results == reference_results
    assert report.lease_reclaims >= 1
    assert report.failures == 0
    assert report.local_fallbacks == 0


def test_straggler_gets_speculative_twin(tmp_path, sim_jobs,
                                         reference_results, monkeypatch):
    monkeypatch.setattr(f"{_EXECUTOR}.SPEC_QUANTILE", 0.25)
    monkeypatch.setattr(f"{_EXECUTOR}.SPEC_FACTOR", 1.0)
    monkeypatch.setattr(f"{_EXECUTOR}.SPEC_MIN_SECONDS", 0.2)
    q = JobQueue(tmp_path / "q")
    report = RunReport()
    executor = DistributedExecutor(
        q, report=report, grace=GENEROUS, lease_ttl=GENEROUS,
        stall_seconds=GENEROUS,
    )
    svc = Servicer(tmp_path / "q", hold_first=True)
    svc.start()
    try:
        results = executor.run(list(sim_jobs), fallback=_must_not_run)
    finally:
        svc.join_stopped()
    assert results == reference_results
    assert report.speculations >= 1
    assert report.lease_reclaims == 0  # the straggler's lease never expired
    assert report.failures == 0
    assert any("~s" in tid for tid in svc.executed)  # the twin ran


def test_speculation_waits_for_the_min_seconds_floor(
        tmp_path, sim_jobs, reference_results, monkeypatch):
    """A task slower than SPEC_FACTOR x the median but still inside
    SPEC_MIN_SECONDS gets no twin: the floor bounds the threshold."""
    monkeypatch.setattr(f"{_EXECUTOR}.SPEC_QUANTILE", 0.25)
    monkeypatch.setattr(f"{_EXECUTOR}.SPEC_FACTOR", 1.0)
    monkeypatch.setattr(f"{_EXECUTOR}.SPEC_MIN_SECONDS", GENEROUS)
    q = JobQueue(tmp_path / "q")
    report = RunReport()
    executor = DistributedExecutor(
        q, report=report, grace=GENEROUS, lease_ttl=GENEROUS,
        stall_seconds=GENEROUS,
    )
    svc = Servicer(tmp_path / "q", delay_first=1.0)
    svc.start()
    try:
        results = executor.run(list(sim_jobs), fallback=_must_not_run)
    finally:
        svc.join_stopped()
    assert results == reference_results
    assert report.speculations == 0
    assert not any("~s" in tid for tid in svc.executed)
    assert report.failures == 0


def test_speculation_tuning_is_fixed_module_constants():
    """The straggler deadline is set by module constants (median-based,
    3x, floored at 1 s); the executor takes no tuning or stealing
    parameters."""
    import inspect

    from repro.runner.distributed import executor as executor_mod

    assert executor_mod.SPEC_QUANTILE == 0.5
    assert executor_mod.SPEC_FACTOR == 3.0
    assert executor_mod.SPEC_MIN_SECONDS == 1.0
    params = inspect.signature(DistributedExecutor).parameters
    for retired in ("cache", "steal_parts", "spec_quantile", "spec_factor",
                    "spec_min_seconds"):
        assert retired not in params


def test_exhausted_failure_budget_raises_joberror(tmp_path, sim_jobs):
    from repro.runner import JobError

    q = JobQueue(tmp_path / "q")
    report = RunReport()
    policy = RetryPolicy(max_attempts=2)
    executor = DistributedExecutor(
        q, policy=policy, report=report, grace=GENEROUS,
        lease_ttl=GENEROUS, stall_seconds=GENEROUS,
    )

    stop = threading.Event()

    def poison():
        # A stand-in for workers that keep failing one task: burn its
        # whole attempt budget in failure ordinals.
        while not stop.is_set():
            q.heartbeat_worker("poisoner")
            tids = q.task_ids()
            if tids:
                victim = base_task_id(tids[0])
                while q.failure_count(victim) < policy.max_attempts:
                    q.record_failure(victim, "InjectedFault: chaos")
                return
            time.sleep(0.01)

    thread = threading.Thread(target=poison, daemon=True)
    thread.start()
    try:
        with pytest.raises(JobError) as err:
            executor.run(list(sim_jobs), fallback=_must_not_run)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert "2 distributed attempt(s)" in str(err.value)
    assert "InjectedFault: chaos" in str(err.value)
    assert report.failures == 1
    assert q.task_ids() == []  # the doomed batch was cleaned up


def test_dark_fleet_drains_to_local_fallback(tmp_path, sim_jobs,
                                             reference_results):
    q = JobQueue(tmp_path / "q")
    report = RunReport()
    executor = DistributedExecutor(
        q, report=report, grace=0.4, lease_ttl=0.4,
        stall_seconds=GENEROUS,
    )
    # One heartbeat, then silence: the fleet registered and died without
    # ever claiming a task.
    q.heartbeat_worker("ghost")

    drained = []

    def fallback(jobs):
        drained.extend(jobs)
        return [j.execute(None) for j in jobs]

    results = executor.run(list(sim_jobs), fallback=fallback)
    assert results == reference_results
    assert len(drained) == len(sim_jobs)
    assert report.local_fallbacks == 1
    assert report.jobs == 0  # handed back before any distributed credit


def test_worker_claim_skips_resulted_and_poisoned(tmp_path, sim_jobs):
    q = JobQueue(tmp_path / "q")
    q.write_config(None, None)
    jobs = list(sim_jobs[:3])
    for i, job in enumerate(jobs):
        q.enqueue(f"b1-j{i:04d}", job)
    q.publish("b1-j0000", {"result": "done"})
    policy = RetryPolicy(max_attempts=2)
    for _ in range(policy.max_attempts):
        q.record_failure("b1-j0001", "boom")
    worker = Worker(tmp_path / "q", worker_id="w1", policy=policy)
    claimed = worker._claim_next()
    assert claimed is not None and claimed[0] == "b1-j0002"
    worker.queue.release("b1-j0002", "w1")


def _must_not_run(jobs):
    raise AssertionError("local fallback must not run in this scenario")

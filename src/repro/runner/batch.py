"""BatchRunner: fan simulation jobs out over worker processes.

The experiment drivers describe work as :class:`~repro.runner.jobs.Job`
objects (picklable, content-hashable; see :mod:`repro.runner.jobs` for
the protocol) and hand lists of them to :meth:`BatchRunner.run`, which
preserves order: ``results[i]`` is the outcome of ``jobs[i]`` whether
the batch ran inline or across processes. Every job kind —
:class:`~repro.runner.jobs.SimJob`,
:class:`~repro.runner.screening.ScreenJob`,
:class:`~repro.runner.continuation.ContinuationJob` — flows through the
same dispatch, cache and trace-prepack path; the runner never
special-cases a job class.

Parallel batches are *supervised* (see :mod:`repro.runner.resilience`):
each job is submitted as its own future with a per-job timeout, failed
or timed-out jobs retry with exponential backoff (safe — every job is an
idempotent pure function of its identity), a broken pool is respawned
instead of propagating ``BrokenProcessPool``, and a pool that keeps
breaking degrades the batch to inline execution. The accumulated
:class:`~repro.runner.resilience.RunReport` (``runner.report``) records
how much fault handling a sweep needed.

A runner is built to stay alive: the worker pool, trace store and result
cache persist across any number of :meth:`BatchRunner.run` calls, which
is what lets the ``repro serve`` daemon (:mod:`repro.service`) execute
every request of a long-lived process on one shared runner.  After
:meth:`BatchRunner.close` a runner refuses new batches (``closed``).

Workers share two content-addressed stores through one directory:

* a :class:`~repro.trace.packed.PackedTraceStore` — before a parallel
  batch launches, every trace the batch needs (each job's
  :meth:`~repro.runner.jobs.Job.trace_manifest`) is packed into the
  store, so cold workers mmap the packed buffers instead of re-running
  :class:`~repro.trace.synthetic.TraceGenerator`;
* a warm-snapshot store (see :func:`repro.core.engine.set_warm_store`)
  — one snapshot per (memory parameters, trace set) is written before
  the batch too, and any process warming a set restores it.

:func:`plan_prepack` turns a batch into two rounds of front-end jobs
(``Job.front_end``): round 1 packs each missing trace, round 2 writes
each missing warm snapshot, so each is still computed once machine-wide.
Without a job queue both rounds run on the worker pool; with one they run
inline in the parent, which never starts a local pool to prepare a fleet
batch.

The store directory defaults to ``REPRO_TRACE_CACHE`` (persistent across
runs) or, failing that, a private temporary directory cleaned up with the
runner. Pass ``trace_store=False`` to disable the machinery entirely.
"""

from __future__ import annotations

import logging
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import ClassVar, List, Optional, Sequence, Set, Tuple, Union

from repro.core.config import get_config
from repro.core.engine import ensure_warm_snapshot
from repro.core.engine.warm import warm_snapshot_path
from repro.memory.hierarchy import MemoryParams
from repro.runner.cache import ResultCache
from repro.runner.distributed import DistributedExecutor, JobQueue
from repro.runner.jobs import SimJob, Triple
from repro.runner.resilience import RetryPolicy, RunReport, SupervisedExecutor
from repro.trace.packed import PackedTrace, PackedTraceStore
from repro.trace.stream import _JUNK_LEN, trace_for

__all__ = ["BatchRunner", "SimJob", "plan_prepack", "resolve_workers"]

logger = logging.getLogger(__name__)

#: Fewer jobs than this run inline: process spawn + pickle overhead would
#: exceed the win (a full-length run takes ~100 ms, a screen far less).
_MIN_PARALLEL_JOBS = 3

#: Threshold for *heavy* jobs (``job.heavy`` — checkpointed screen
#: ladders, bundled continuation/screen jobs): each one amortizes its
#: dispatch overhead by construction, so two already justify the pool.
_MIN_PARALLEL_HEAVY = 2


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count: explicit argument > ``REPRO_WORKERS`` > cpu count."""
    if workers is not None:
        return max(1, workers)
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            # Log what the `from None` below swallows before refusing the
            # value — a sweep dying on a typo'd env var must say why.
            logger.warning(
                "invalid REPRO_WORKERS=%r: not an integer; refusing to "
                "guess a worker count",
                env,
            )
            raise ValueError(
                f"REPRO_WORKERS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


# Module-level so ProcessPoolExecutor can pickle it by reference. The
# worker consults/populates the shared on-disk cache itself, so cache
# hits skip the simulation entirely even inside the pool.
_WORKER_CACHE_DIR: Optional[str] = None


def _init_worker(cache_dir: Optional[str], store_dir: Optional[str]) -> None:
    global _WORKER_CACHE_DIR
    _WORKER_CACHE_DIR = cache_dir
    # Dedicated, bounded-lifetime simulation processes: the simulator's
    # object graph is acyclic (reference counting reclaims everything), so
    # cyclic-GC passes only cost time. Freezing the warm interpreter state
    # also keeps it off future (no-op) collections.
    import gc

    gc.disable()
    gc.freeze()
    if store_dir is not None:
        # Read-only for traces (the parent pre-packed the batch's traces);
        # read-write for warm snapshots (first warmer persists them).
        from repro.core.engine import set_warm_store
        from repro.trace.stream import set_trace_store

        set_trace_store(store_dir, save_on_generate=False)
        set_warm_store(store_dir)


def _execute_job(job):
    """Legacy worker entry point: raw result, no supervision side-band.

    Kept as the reference implementation the equivalence tests compare
    the supervised path against (see :meth:`BatchRunner._run_pool_map`).
    """
    cache = (
        ResultCache(_WORKER_CACHE_DIR)
        if _WORKER_CACHE_DIR is not None
        else None
    )
    return job.execute(cache)


def _execute_job_supervised(job):
    """Supervised worker entry point: ``(result, stats)``.

    The fault-injection hook runs first (a no-op without
    ``REPRO_FAULT_PLAN`` — see :mod:`repro.runner.faults`), standing in
    for the real worker failures the supervisor must survive. ``stats``
    carries worker-side recovery counters back to the parent's
    :class:`~repro.runner.resilience.RunReport`; the per-call
    :class:`~repro.runner.cache.ResultCache` makes its counter a
    this-job delta.
    """
    from repro.runner.faults import maybe_inject_fault

    maybe_inject_fault(job)
    cache = (
        ResultCache(_WORKER_CACHE_DIR)
        if _WORKER_CACHE_DIR is not None
        else None
    )
    result = job.execute(cache)
    stats = {"cache_fallbacks": cache.corrupt_fallbacks if cache else 0}
    return result, stats


@dataclass(frozen=True)
class _PackJob:
    """Prepack round 1: pack one trace into the shared store."""

    store_dir: str
    triple: Triple

    heavy: ClassVar[bool] = False
    front_end: ClassVar[bool] = True

    def execute(self, cache=None) -> None:
        name, length, instance = self.triple
        PackedTraceStore(self.store_dir).save(
            PackedTrace.from_trace(trace_for(name, length, instance)),
            name, length, instance,
        )

    def trace_manifest(self) -> Tuple:
        return ()


@dataclass(frozen=True)
class _WarmJob:
    """Prepack round 2: write one (memory parameters, trace set) warm
    snapshot; its traces come from the store round 1 filled."""

    store_dir: str
    memory_params: MemoryParams
    triples: Tuple[Triple, ...]

    heavy: ClassVar[bool] = False
    front_end: ClassVar[bool] = True

    def execute(self, cache=None) -> None:
        # The store, not generation, serves traces this process lacks:
        # round 1 may have packed them in other processes.
        store = PackedTraceStore(self.store_dir)
        ensure_warm_snapshot(self.store_dir, self.memory_params,
                             [trace_for(*t, store=store) for t in self.triples])

    def trace_manifest(self) -> Tuple:
        return ()


def plan_prepack(
    jobs: Sequence, store_dir: str, packed: Set[Triple]
) -> Tuple[List[_PackJob], List[_WarmJob]]:
    """The two prepack rounds ``jobs`` need in the store at ``store_dir``.

    Round 1 packs each distinct trace of the jobs' manifests that is
    neither in ``packed`` nor in the store; round 2 writes each distinct
    (memory parameters, trace set) warm snapshot the store lacks. Round 2
    reads round 1's traces, so it must run after it. ``packed`` is the
    caller's memo of traces known to be in the store: every trace seen
    here is added to it.
    """
    store = PackedTraceStore(store_dir)
    pack: dict = {}
    warm: dict = {}
    for job in jobs:
        for unit in job.trace_manifest():
            for triple in unit.triples:
                if triple in packed:
                    continue
                packed.add(triple)
                if not store.contains(*triple, _JUNK_LEN):
                    pack[triple] = _PackJob(store_dir, triple)
            if unit.config is None:
                continue
            config = unit.config
            if isinstance(config, str):
                config = get_config(config)
            key = (config.params.memory, unit.triples)
            if key not in warm and not os.path.exists(warm_snapshot_path(
                store_dir, key[0], len(unit.triples), unit.triples
            )):
                warm[key] = _WarmJob(store_dir, *key)
    return list(pack.values()), list(warm.values())


class BatchRunner:
    """Execute batches of :class:`~repro.runner.jobs.Job` objects with
    optional parallelism and supervised fault tolerance.

    Parameters
    ----------
    workers:
        Process count; defaults to ``REPRO_WORKERS`` or the cpu count.
        ``1`` disables multiprocessing entirely (pure sequential).
    cache_dir:
        Directory for the on-disk result cache; defaults to the
        ``REPRO_RESULT_CACHE`` environment variable; None disables it.
    trace_store:
        Directory for the shared packed-trace / warm-snapshot store;
        ``None`` (the default) resolves to ``REPRO_TRACE_CACHE`` or — for
        parallel runners — a private temporary directory removed by
        :meth:`close`; ``False`` disables the store machinery.
    policy:
        :class:`~repro.runner.resilience.RetryPolicy` for the supervised
        dispatch (attempt budget, backoff, per-job timeout, respawn
        budget); defaults to :meth:`RetryPolicy.from_env`
        (``REPRO_JOB_TIMEOUT`` / ``REPRO_MAX_ATTEMPTS`` /
        ``REPRO_RETRY_BACKOFF`` / ``REPRO_MAX_POOL_RESPAWNS``).
    queue_dir:
        Distributed-execution job-queue directory; defaults to
        ``REPRO_DIST_QUEUE``; None (and no env) keeps execution local.
        When set, parallel batches are enqueued for ``repro worker``
        processes watching the same directory (see
        :mod:`repro.runner.distributed`), with automatic degradation to
        the local supervised pool when no worker shows up, the fleet
        goes dark, or progress stalls.
    mem_cache_mb:
        Budget for the result cache's in-process memory tier; ``None``
        reads ``REPRO_MEM_CACHE_MB`` (default 0 = disk only).  Long-lived
        callers (the serve daemon) opt in; one-shot sweeps gain nothing
        from it.

    Results are independent of the worker count — simulations are pure
    functions of their job — so callers may treat ``workers`` purely as a
    throughput knob. ``runner.report`` accumulates a structured
    :class:`~repro.runner.resilience.RunReport` of every recovery event
    across the runner's lifetime.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir: Optional[Union[str, os.PathLike]] = None,
        trace_store: Union[None, bool, str, os.PathLike] = None,
        policy: Optional[RetryPolicy] = None,
        queue_dir: Optional[Union[str, os.PathLike]] = None,
        mem_cache_mb: Optional[float] = None,
    ) -> None:
        self._supervisor: Optional[SupervisedExecutor] = None  # before any raise
        self._own_store_tmp: Optional[tempfile.TemporaryDirectory] = None
        self._closed = False
        self.workers = resolve_workers(workers)
        self.policy = policy if policy is not None else RetryPolicy.from_env()
        self.report = RunReport()
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_RESULT_CACHE") or None
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.cache = (
            ResultCache(self.cache_dir, mem_cache_mb=mem_cache_mb)
            if self.cache_dir
            else None
        )
        if trace_store is None:
            trace_store = os.environ.get("REPRO_TRACE_CACHE") or None
        if trace_store is False:
            self.store_dir: Optional[str] = None
        elif trace_store is None:
            if self.workers > 1:
                self._own_store_tmp = tempfile.TemporaryDirectory(
                    prefix="repro-store-"
                )
                self.store_dir = self._own_store_tmp.name
            else:
                self.store_dir = None
        else:
            self.store_dir = str(trace_store)
        #: traces already packed into the store (parent-side memo)
        self._packed_triples: Set[Tuple[str, int, int]] = set()
        self.jobs_run = 0
        if queue_dir is None:
            queue_dir = os.environ.get("REPRO_DIST_QUEUE") or None
        self.queue_dir = str(queue_dir) if queue_dir is not None else None
        self.queue = JobQueue(self.queue_dir) if self.queue_dir else None
        self._distributor: Optional[DistributedExecutor] = None
        if self.queue is not None:
            # Publish the execution context so bare `repro worker --queue`
            # invocations share this runner's cache and trace store.
            self.queue.write_config(self.cache_dir, self.store_dir)

    # -- lifecycle ---------------------------------------------------------
    #
    # The worker pool persists across run() calls so an experiment sweep
    # pays process start-up once and the workers' process-local trace /
    # warm-state caches stay hot between batches. The supervisor respawns
    # it transparently when it breaks.

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(self.cache_dir, self.store_dir),
        )

    def _execute_inline(self, job):
        """Parent-process execution with the supervised ``(result, stats)``
        contract (the small-batch path and the degraded-pool fallback)."""
        cache = self.cache
        before = cache.corrupt_fallbacks if cache is not None else 0
        result = job.execute(cache)
        after = cache.corrupt_fallbacks if cache is not None else 0
        return result, {"cache_fallbacks": after - before}

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; a closed runner refuses new
        batches instead of silently recreating half its machinery."""
        return self._closed

    def close(self) -> None:
        """Shut the worker pool down (idempotent; double-close safe)."""
        self._closed = True
        if self._supervisor is not None:
            self._supervisor.close()
            self._supervisor = None
        if self._own_store_tmp is not None:
            self._own_store_tmp.cleanup()
            self._own_store_tmp = None
            self.store_dir = None

    def __enter__(self) -> "BatchRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        # getattr guards: __init__ may have raised before the attributes
        # existed, and close() may already have run (double-cleanup).
        supervisor = getattr(self, "_supervisor", None)
        if supervisor is not None:
            supervisor.close(kill=True)
            self._supervisor = None
        own_tmp = getattr(self, "_own_store_tmp", None)
        if own_tmp is not None:
            own_tmp.cleanup()
            self._own_store_tmp = None

    # -- execution ---------------------------------------------------------

    def run(self, jobs: Sequence) -> List:
        """Execute every job; ``results[i]`` corresponds to ``jobs[i]``.

        Accepts any mix of :class:`~repro.runner.jobs.Job`
        implementations (:class:`~repro.runner.jobs.SimJob`,
        :class:`~repro.runner.screening.ScreenJob`,
        :class:`~repro.runner.continuation.ContinuationJob`, ...): one
        dispatch path, no per-kind cases.

        Parallel batches run supervised: per-job futures with timeout,
        retry/backoff, pool respawn and inline degradation (see
        :mod:`repro.runner.resilience`); results are bit-identical to
        sequential execution regardless of which recovery paths fire.
        ``KeyboardInterrupt`` cancels outstanding futures and shuts the
        pool down without waiting, so Ctrl-C on a sweep exits promptly
        instead of leaking workers.

        With a job queue configured (``queue_dir`` /
        ``REPRO_DIST_QUEUE``), batches big enough to parallelize are
        dispatched to the remote worker fleet instead, with the local
        supervised path as the fallback at every degradation point.
        """
        if self._closed:
            # The serving layer keeps one runner alive across thousands
            # of requests; a batch slipping in after drain/close would
            # otherwise resurrect the pool with its temp store gone.
            raise RuntimeError("BatchRunner is closed")
        jobs = list(jobs)
        if jobs and all(job.front_end for job in jobs):
            return self._run_front_end(jobs)
        self.jobs_run += len(jobs)
        if self.queue is not None and len(jobs) >= self._min_parallel(jobs):
            # Workers need the packed traces / warm snapshots just like
            # pool processes do — prepack before the first task lands.
            self._prepack_traces(jobs)
            if self._distributor is None:
                self._distributor = DistributedExecutor(
                    self.queue, policy=self.policy, report=self.report
                )
            return self._distributor.run(jobs, fallback=self._run_local)
        return self._run_local(jobs)

    @staticmethod
    def _min_parallel(jobs: Sequence) -> int:
        return (
            _MIN_PARALLEL_HEAVY
            if any(job.heavy for job in jobs)
            else _MIN_PARALLEL_JOBS
        )

    def _run_local(self, jobs: Sequence,
                   report: Optional[RunReport] = None) -> List:
        """The local execution ladder: inline for small batches or a
        single worker, the supervised pool otherwise.  Also the fallback
        the distributed front end drains into, so a remainder handed
        back mid-batch re-decides inline-vs-pool on its own size.  The
        batch is booked in ``report`` (default: ``self.report``)."""
        jobs = list(jobs)
        report = report if report is not None else self.report
        if self.workers <= 1 or len(jobs) < self._min_parallel(jobs):
            return self._run_inline(jobs, report)
        self._prepack_traces(jobs)
        if self._supervisor is None:
            self._supervisor = SupervisedExecutor(
                pool_factory=self._make_pool,
                worker_fn=_execute_job_supervised,
                inline_fn=self._execute_inline,
                policy=self.policy,
                report=self.report,
                max_inflight=self.workers,
            )
        try:
            return self._supervisor.run(jobs, report)
        except KeyboardInterrupt:
            # The supervisor already killed its pool and cancelled the
            # outstanding futures on the way out; drop it so a resumed
            # runner starts from a clean slate.
            self._supervisor = None
            raise

    def _run_front_end(self, jobs: List) -> List:
        """Run front-end jobs (``Job.front_end``: profile passes, prepack
        rounds) on the local ladder, or inline in the parent when a job
        queue is configured — a fleet runner never starts a local pool
        to prepare a batch.

        They stay off the caller's books: ``report.jobs``, ``batches``,
        ``attempts``, ``wall_seconds`` and ``job_seconds`` count the
        caller's jobs only, while recovery events (retries, pool
        respawns, ...) still reach ``report``.
        """
        books = RunReport()
        if self.queue is None:
            results = self._run_local(jobs, books)
        else:
            results = self._run_inline(jobs, books)
        self.report.merge(replace(books, jobs=0, batches=0, attempts=0,
                                  wall_seconds=0.0, job_seconds=[]))
        return results

    def _run_inline(self, jobs: Sequence, report: RunReport) -> List:
        """Sequential execution with the same report bookkeeping."""
        report.batches += 1
        report.jobs += len(jobs)
        import time as _time

        t0 = _time.monotonic()
        results = []
        try:
            for job in jobs:
                j0 = _time.monotonic()
                result, stats = self._execute_inline(job)
                results.append(result)
                report.attempts += 1
                report.job_seconds.append(_time.monotonic() - j0)
                report.absorb_worker_stats(stats)
        finally:
            report.wall_seconds += _time.monotonic() - t0
        return results

    def _run_pool_map(self, jobs: Sequence) -> List:
        """The pre-resilience dispatch, verbatim: one ``pool.map`` over a
        private pool, no supervision.

        Not used by any production path — it is the reference the
        supervised path's equivalence test
        (``test_supervised_matches_pool_map_and_inline``) compares
        against. One worker crash or hang kills/stalls the whole batch,
        which is exactly the behaviour the supervisor replaced.
        """
        jobs = list(jobs)
        self._prepack_traces(jobs)
        pool = self._make_pool()
        try:
            chunksize = max(1, len(jobs) // (self.workers * 4))
            return list(pool.map(_execute_job, jobs, chunksize=chunksize))
        finally:
            pool.shutdown(wait=True)

    def _prepack_traces(self, jobs: Sequence) -> None:
        """Pack the batch's traces and warm snapshots into the shared store.

        The two rounds of :func:`plan_prepack` run as front-end batches
        (see :meth:`_run_front_end`): on the worker pool without a job
        queue, inline in the parent with one. Distinct traces are still
        generated exactly once, machine-wide: workers mmap the packed
        buffers and skip :class:`~repro.trace.synthetic.TraceGenerator`
        entirely. The matching post-warm structure snapshots are
        precomputed too, so concurrent workers hitting the same workload
        at the same moment load one snapshot instead of racing to
        compute identical ones. The needs of a job — whatever its kind —
        come uniformly from its
        :meth:`~repro.runner.jobs.Job.trace_manifest`.
        """
        if self.store_dir is None:
            return
        for round_jobs in plan_prepack(jobs, self.store_dir,
                                       self._packed_triples):
            if round_jobs:
                self._run_front_end(round_jobs)

    def run_one(self, job):
        """Execute a single job inline (cache-aware)."""
        self.jobs_run += 1
        return job.execute(self.cache)

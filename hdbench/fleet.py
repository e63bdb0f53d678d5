"""``fleet``: a ``BatchRunner(queue_dir=...)`` front end over ``nproc``
``repro worker`` processes on a private queue.

One operation is a pair of batches of the same continuation bundles,
each on a fresh fleet, queue and result cache: phase A fault-free, then
phase B with one worker-scoped ``hang`` injected through the program's
own ``REPRO_FAULT_PLAN`` harness, which the front end must route around
(speculative twin, work stealing or split rescue).  Results of both
phases must equal the local pool's, byte for byte; the injected fault
counts as recovered, not failed.  Batch times are at the reference host
speed (``harness.SpeedSampler``).
"""

from __future__ import annotations

import json
import random
import time
from statistics import median
from typing import Dict, List, Tuple

from common import cold, paper_mapping
from harness import (
    SpeedSampler,
    Tracer,
    child_inputs,
    digest,
    op_stats,
    sim_metrics,
    tree_pss_mb,
)

from repro.core.config import STANDARD_CONFIG_NAMES, get_config
from repro.runner import BatchRunner, ContinuationJob, ContinuationRun, JobQueue
from repro.runner.cache import sim_result_payload
from repro.workloads.definitions import workloads_by

RUNS = 12
RUNS_PER_BUNDLE = 2
COMMIT_TARGET = 600
#: Phase B's fault: the third execution across the fleet (the fault
#: state directory is shared by every worker) sleeps this long.
HANG_SECONDS = 4.0
FAULT_PLAN = [{"match": "", "op": "hang", "executions": [3],
               "scope": "worker", "hang_seconds": HANG_SECONDS}]
PHASES = ("clean", "straggler")


def inputs(seed: int) -> List[dict]:
    """The runs, as JSON: a fixed shape with seeded trace windows."""
    rng = random.Random(f"fleet/{seed}")
    configs = STANDARD_CONFIG_NAMES
    runs = []
    for i in range(RUNS):
        config = get_config(configs[i % len(configs)])
        choices = workloads_by((2, 4)[i % 2])
        workload = choices[i % len(choices)]
        mapping = paper_mapping(config, workload.benchmarks)
        runs.append({
            "config": config.name,
            "benchmarks": list(workload.benchmarks),
            "mapping": list(mapping),
            "commit_target": COMMIT_TARGET,
            "seed": rng.randrange(1, 1 << 12),
        })
    return runs


def batch(runs: List[dict]) -> List[ContinuationJob]:
    """``RUNS`` runs in bundles of ``RUNS_PER_BUNDLE``."""
    runs = [ContinuationRun(r["config"], tuple(r["benchmarks"]),
                            tuple(r["mapping"]), r["commit_target"],
                            seed=r["seed"]) for r in runs]
    return [ContinuationJob(runs=tuple(runs[i:i + RUNS_PER_BUNDLE]))
            for i in range(0, len(runs), RUNS_PER_BUNDLE)]


def payload_text(results) -> str:
    return json.dumps([sim_result_payload(r) for bundle in results
                       for r in bundle], sort_keys=True)


def phase(ctx, jobs, straggler: bool, tracer: Tracer, rid: str,
          sampler: SpeedSampler):
    """One batch on a fresh fleet: ``(results, batch seconds, the same
    at the reference host speed, fleet launch → all workers live seconds
    at that speed, RunReport, tree memory in MB)``; the sampler is not
    counted in the memory."""
    cold()
    queue_dir = ctx.private_dir("queue")
    runner = BatchRunner(workers=ctx.nproc, queue_dir=queue_dir,
                         cache_dir=ctx.private_dir("cache"))
    queue = JobQueue(queue_dir)
    extra = {}
    if straggler:
        faults = ctx.private_dir("faults")
        extra = {"REPRO_FAULT_PLAN": json.dumps(FAULT_PLAN),
                 "REPRO_FAULT_STATE": str(faults)}
    procs = []
    try:
        t0 = time.perf_counter()
        procs = [
            ctx.children.spawn(["-m", "repro", "worker", "--queue",
                                str(queue_dir), "--worker-id", f"w{k}"], extra)
            for k in range(ctx.nproc)
        ]
        while len(queue.live_workers(ttl=5.0)) < ctx.nproc:
            if any(p.poll() is not None for p in procs):
                raise RuntimeError("a repro worker exited during start-up")
            if time.perf_counter() - t0 > 60.0:
                raise RuntimeError("the fleet never registered")
            time.sleep(0.005)
        setup = sampler.at_reference_speed(t0, time.perf_counter() - t0)
        name = "fleet.straggler" if straggler else "fleet.clean"
        t1 = time.perf_counter()
        with tracer.span(name, rid):
            with tracer.span("runner.BatchRunner.run"):
                results = runner.run(jobs)
        seconds = time.perf_counter() - t1
        peak = tree_pss_mb(exclude=(sampler.proc.pid,))
        if straggler:
            check_recovery(ctx, faults, runner.report)
    finally:
        queue.request_stop()
        for proc in procs:
            # A worker still asleep in the injected hang is killed.
            ctx.children.stop(proc, grace=1.0, terminate=False)
        runner.close()
    ref = sampler.at_reference_speed(t1, seconds)
    return results, seconds, ref, setup, runner.report, peak


def check_recovery(ctx, faults, report) -> None:
    """The injected hang fired (the harness claimed the rule's marker
    for that execution), and the front end routed around it."""
    ordinal = FAULT_PLAN[0]["executions"][0]
    ctx.outcome.check((faults / f"rule0.exec{ordinal}").exists(),
                      "straggler batch: the injected hang never fired")
    rescues = (report.speculations + report.steals + report.split_rescues
               + report.lease_reclaims + report.local_fallbacks)
    ctx.outcome.check(rescues >= 1,
                      "straggler batch: nothing routed around the hang")


def local_pool(ctx, jobs):
    """The same batch on the local supervised pool: results, seconds."""
    cold()
    with BatchRunner(workers=ctx.nproc) as runner:
        t0 = time.perf_counter()
        results = runner.run(jobs)
        return results, time.perf_counter() - t0


def run(ctx) -> Tuple[Dict[str, float], Dict[str, float]]:
    jobs = batch(child_inputs(ctx.children, "fleet", ctx.seed))
    reference, local_seconds = local_pool(ctx, jobs)
    ref_text = payload_text(reference)
    golden = ctx.golden.get("payload_digest") if ctx.default_seed else None
    if golden is not None:
        ctx.outcome.check(digest(ref_text) == golden,
                          "local pool payloads differ from the golden digest")

    setups: List[float] = []
    pair_seconds: List[float] = []
    traced_pairs: List[float] = []
    phase_seconds: Dict[str, List[float]] = {p: [] for p in PHASES}
    reports = {p: [] for p in PHASES}
    committed = 0
    peak = 0.0
    #: untraced pair seconds, and all batches' seconds, at the reference
    #: host speed: the fleet works on every CPU for seconds at a time
    ref_pairs: List[float] = []
    ref_total = 0.0
    sampler = SpeedSampler(ctx.children, ctx.tmp / "speed.txt")
    t_start = time.perf_counter()
    pairs = 0
    while True:
        traced = ctx.trace and pairs % 2 == 1
        pair = pair_ref = 0.0
        for name in PHASES:
            try:
                results, secs, ref, setup, report, rss = phase(
                    ctx, jobs, name == "straggler",
                    ctx.tracer if traced else Tracer(False), f"pair{pairs}",
                    sampler,
                )
            except Exception as exc:  # noqa: BLE001 - counted, run fails
                ctx.outcome.op(False, f"{name} batch: {type(exc).__name__}: {exc}")
                continue
            ok = payload_text(results) == ref_text and report.failures == 0
            ctx.outcome.op(ok, f"{name} batch: results differ from the local pool")
            setups.append(setup)
            pair += secs
            pair_ref += ref
            phase_seconds[name].append(secs)
            reports[name].append(report)
            committed += sum(sum(r.committed) for b in results for r in b)
            peak = max(peak, rss)
        (traced_pairs if traced else pair_seconds).append(pair)
        if not traced:
            ref_pairs.append(pair_ref)
        ref_total += pair_ref
        pairs += 1
        elapsed = time.perf_counter() - t_start
        if elapsed >= ctx.seconds and (not ctx.trace or pairs >= 2):
            break
    sampler.stop()

    ops = op_stats(pair_seconds)
    ctx.info.update(ops, local_pool_s=local_seconds,
                    phase_s=phase_seconds)
    ctx.info["host"] = {
        "p50_s": median(pair_seconds),
        "ops_per_s": len(pair_seconds) / sum(pair_seconds),
        "sim_ips": committed / sum(pair_seconds + traced_pairs),
    }
    e2e = {
        "setup_s": median(setups),
        "p50_s": median(ref_pairs),
        "ops_per_s": len(ref_pairs) / sum(ref_pairs),
        "sim_ips": committed / ref_total,
        "peak_pss_mb": peak,
    }
    layers = sim_metrics([r for bundle in reference for r in bundle])
    layers.update(ops)
    layers["fail_frac"] = ctx.outcome.failed / max(1, ctx.outcome.attempted)
    ctx.info["layers"] = dict(layers)
    if ctx.trace:
        _, imports = ctx.setup_probe("import repro, repro.runner.distributed",
                                     samples=3)
        strag = reports["straggler"]
        jobs_b = sum(r.jobs for r in strag)

        def per_batch(field: str) -> float:
            return sum(getattr(r, field) for r in strag) / len(strag)

        all_reports = reports["clean"] + strag
        layers.update({
            "setup.import_s": imports,
            "trace_overhead_frac": (
                median(traced_pairs) / median(pair_seconds) - 1.0
            ),
            "fleet.fleet_s": median(phase_seconds["clean"]),
            "fleet.straggler_s": median(phase_seconds["straggler"]),
            "fleet.enqueued": per_batch("enqueued"),
            "fleet.lease_reclaims": per_batch("lease_reclaims"),
            "fleet.speculations": per_batch("speculations"),
            "fleet.steals": per_batch("steals"),
            "fleet.split_rescues": per_batch("split_rescues"),
            "fleet.local_fallbacks": per_batch("local_fallbacks"),
            "fleet.attempts_per_job": sum(r.attempts for r in strag) / jobs_b,
            "fleet.overhead_frac": (
                median(phase_seconds["clean"]) / local_seconds - 1.0
            ),
            "runner.jobs": float(sum(r.jobs for r in all_reports)),
            "runner.attempts": float(sum(r.attempts for r in all_reports)),
        })
    return e2e, layers


def golden() -> dict:
    with BatchRunner(workers=1) as runner:
        results = runner.run(batch(inputs(0)))
    return {"payload_digest": digest(payload_text(results))}

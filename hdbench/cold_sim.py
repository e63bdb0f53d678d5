"""``cold-sim``: a closed loop of single simulations, inline in one
process, with no result cache and no pool.

Every job starts cold: the trace and warm-state memos are cleared
before it, so trace generation, warm-up and the cycle loop do all the
work.  One pass is a fixed grid — every standard configuration, short
and long commit targets, 2/4/6-thread paper workloads of every class,
heuristic and trivial mappings — and the seed draws each job's trace
window, so any two seeds measure jobs of the same shape.  The loop
replays the pass whole until ``--seconds`` have elapsed, so every run
measures the same mix.  The process is pinned to one CPU, and each job's
time is scaled to the reference host speed by probes timed just before
and after it (``harness.PROBE_REF_S``).
"""

from __future__ import annotations

import cProfile
import json
import pstats
import random
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from common import cold, paper_mapping
from harness import (
    Tracer,
    at_reference_speed,
    child_inputs,
    digest,
    host_probe,
    op_stats,
    pin_to_one_cpu,
    sim_metrics,
    tree_pss_mb,
)

from repro.core.config import STANDARD_CONFIG_NAMES, get_config
from repro.core.engine import Processor
from repro.core.simulation import (
    collect_result,
    default_trace_length,
    resolve_traces,
    run_simulation,
)
from repro.runner.cache import sim_result_payload
from repro.workloads.definitions import workloads_by

SHORT_TARGET = 1000
LONG_TARGET = 6000
#: One pass: every configuration twice at the short target, once at
#: the long one.  Trace generation makes a short job's time grow with
#: its thread count, so most short jobs run 4 threads: the median then
#: sits inside that cluster rather than on the gap to a neighbour.
PASS_LENGTH = 3 * len(STANDARD_CONFIG_NAMES)
SHORT_THREADS = (4, 4, 2, 4, 6, 4)
LONG_THREADS = (2, 4, 6)
#: Jobs whose cycle loop the traced run profiles (one long job per
#: configuration).
PROFILED = range(2 * len(STANDARD_CONFIG_NAMES), PASS_LENGTH)

STAGES = ("fetch", "rename", "issue", "writeback", "commit")


@dataclass(frozen=True)
class ColdJob:
    config: str
    benchmarks: Tuple[str, ...]
    mapping: Tuple[int, ...]
    commit_target: int
    trace_seed: int

    @classmethod
    def from_json(cls, d: dict) -> "ColdJob":
        return cls(d["config"], tuple(d["benchmarks"]), tuple(d["mapping"]),
                   d["commit_target"], d["trace_seed"])


def _trivial_mapping(config, threads: int) -> Tuple[int, ...]:
    """Threads dealt round-robin over the pipelines with a free context."""
    if config.is_monolithic:
        return (0,) * threads
    free = [p.contexts for p in config.pipelines]
    mapping, p = [], 0
    for _ in range(threads):
        while free[p % len(free)] == 0:
            p += 1
        free[p % len(free)] -= 1
        mapping.append(p % len(free))
        p += 1
    return tuple(mapping)


def jobs(seed: int) -> List[ColdJob]:
    """One pass: the fixed grid, with seeded trace windows."""
    rng = random.Random(f"cold-sim/{seed}")
    configs = STANDARD_CONFIG_NAMES
    out = []
    for i in range(PASS_LENGTH):
        config = get_config(configs[i % len(configs)])
        slot = i // len(configs)
        if slot == 2:
            threads = LONG_THREADS[i % len(LONG_THREADS)]
        else:
            threads = SHORT_THREADS[(i + slot) % len(SHORT_THREADS)]
        cls = ("ILP", "MEM", "MIX")[(i + 2 * slot) % 3]
        if threads == 6 and cls == "MEM":
            cls = "MIX"  # the paper has no 6-thread MEM workload
        choices = workloads_by(threads, cls)
        workload = choices[i % len(choices)]
        if (i + slot) % 2 == 0:
            mapping = paper_mapping(config, workload.benchmarks)
        else:
            mapping = _trivial_mapping(config, threads)
        out.append(ColdJob(
            config=config.name,
            benchmarks=workload.benchmarks,
            mapping=mapping,
            commit_target=LONG_TARGET if slot == 2 else SHORT_TARGET,
            trace_seed=rng.randrange(1, 1 << 12),
        ))
    return out


def inputs(seed: int) -> List[dict]:
    return [asdict(job) for job in jobs(seed)]


def run_direct(job: ColdJob):
    return run_simulation(job.config, job.benchmarks, job.mapping,
                          job.commit_target, seed=job.trace_seed)


def run_decomposed(job: ColdJob, tracer, rid: str,
                   profile: Optional[cProfile.Profile] = None):
    """``run_simulation``'s steps, one public call each, under spans;
    ``profile``, if given, profiles the cycle loop."""
    config = get_config(job.config)
    with tracer.span("cold.job", rid):
        with tracer.span("trace.resolve_traces"):
            traces = resolve_traces(job.benchmarks,
                                    default_trace_length(job.commit_target),
                                    job.trace_seed)
        with tracer.span("engine.Processor"):
            proc = Processor(config, traces, job.mapping, job.commit_target)
        with tracer.span("warm.warm"):
            proc.warm()
            proc.mem.reset_stats()
            proc.branch_unit.reset_stats()
        with tracer.span("engine.run"):
            if profile is None:
                proc.run()
            else:
                profile.runcall(proc.run)
        with tracer.span("simulation.collect_result"):
            result = collect_result(proc, config.name, job.benchmarks,
                                    job.mapping, job.commit_target)
    return result


def payload_digest(result) -> str:
    return digest(json.dumps(sim_result_payload(result), sort_keys=True))


def _profile(job: ColdJob) -> pstats.Stats:
    """cProfile statistics of one cold job's cycle loop."""
    cold()
    prof = cProfile.Profile()
    run_decomposed(job, Tracer(False), "profile", prof)
    return pstats.Stats(prof)


def stage_shares(job_list: List[ColdJob]) -> Dict[str, float]:
    """Share of the cycle loop's time per stage: each stage function's
    inclusive time on its call edge from the loop, the loop's own time
    and the builtins it calls counted as ``loop`` (cProfile)."""
    per_stage = dict.fromkeys(STAGES, 0.0)
    total = 0.0
    for i in PROFILED:
        raw = _profile(job_list[i]).stats
        loops = [k for k in raw if k[2] == "_generic_run"]
        for loop in loops:
            total += raw[loop][3]
            for key, (_, _, _, _, callers) in raw.items():
                edge = callers.get(loop)
                stage = Path(key[0]).stem
                if edge is not None and stage in per_stage:
                    per_stage[stage] += edge[3]
    out = {f"engine.{s}.share": v / total for s, v in per_stage.items()}
    out["engine.loop.share"] = 1.0 - sum(out.values())
    return out


def run(ctx) -> Tuple[Dict[str, float], Dict[str, float]]:
    ctx.info["cpu"] = pin_to_one_cpu()
    job_list = [ColdJob.from_json(d)
                for d in child_inputs(ctx.children, "cold_sim", ctx.seed)]
    golden = ctx.golden.get("payload_digests") if ctx.default_seed else None
    setup, imports = ctx.setup_probe(
        "import repro, repro.core.simulation", samples=5
    )

    cold()
    run_direct(job_list[0])  # lazy imports and first-touch set-up
    first: Dict[int, str] = {}
    results: Dict[int, object] = {}
    #: job seconds, untraced and traced: a traced run traces every
    #: other job and flips the parity each pass, so over a pair of
    #: passes every job is timed both ways
    seconds: Dict[bool, List[float]] = {False: [], True: []}
    #: untraced job seconds at the reference host speed
    ref_seconds: List[float] = []
    committed = 0
    traced_work = [0, 0]  # cycles, committed instructions of traced jobs
    t_start = time.perf_counter()
    passes = 0
    while True:
        for i, job in enumerate(job_list):
            traced = ctx.trace and (i + passes) % 2 == 0
            cold()
            probe = host_probe()
            t0 = time.perf_counter()
            try:
                if traced:
                    result = run_decomposed(job, ctx.tracer, f"p{passes}j{i}")
                else:
                    result = run_direct(job)
            except Exception as exc:  # noqa: BLE001 - counted, run fails
                ctx.outcome.op(False, f"job {i}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            after = host_probe()
            d = payload_digest(result)
            ok = first.setdefault(i, d) == d
            if golden is not None:
                ok = ok and golden[i] == d
            ctx.outcome.op(ok, f"job {i}: payload digest {d[:12]} differs")
            results.setdefault(i, result)
            seconds[traced].append(dt)
            if traced:
                traced_work[0] += result.cycles
                traced_work[1] += sum(result.committed)
            else:
                committed += sum(result.committed)
                ref_seconds.append(at_reference_speed(dt, probe, after))
        passes += 1
        elapsed = time.perf_counter() - t_start
        if elapsed >= ctx.seconds and (not ctx.trace or passes % 2 == 0):
            break
    peak = tree_pss_mb()

    # Path identity: the traced decomposition must equal run_simulation.
    for i in (0, PASS_LENGTH - 1):
        cold()
        d = payload_digest(run_decomposed(job_list[i], Tracer(False), "id"))
        ctx.outcome.check(d == first.get(i),
                          f"job {i}: decomposition differs from run_simulation")

    untraced = seconds[False]
    ops = op_stats(untraced)
    ctx.info.update(ops, passes=passes, pass_length=PASS_LENGTH)
    ctx.info["host"] = {
        "p50_s": median(untraced),
        "ops_per_s": len(untraced) / sum(untraced),
        "sim_ips": committed / sum(untraced),
    }
    e2e = {
        "setup_s": setup,
        "p50_s": median(ref_seconds),
        "ops_per_s": len(ref_seconds) / sum(ref_seconds),
        "sim_ips": committed / sum(ref_seconds),
        "peak_pss_mb": peak,
    }
    layers = sim_metrics([results[i] for i in sorted(results)])
    layers.update(ops)
    layers["fail_frac"] = ctx.outcome.failed / max(1, ctx.outcome.attempted)
    ctx.info["layers"] = dict(layers)
    if ctx.trace:
        layers.update(_layer_metrics(ctx, job_list, imports, seconds,
                                     traced_work))
    return e2e, layers


def _layer_metrics(ctx, job_list, imports, seconds, traced_work):
    tr = ctx.tracer
    job_s = tr.total("cold.job")
    gen = [s.seconds for s in tr.by_name("trace.resolve_traces")]
    warm = [s.seconds for s in tr.by_name("warm.warm")]
    runs = tr.by_name("engine.run")
    run_s = sum(s.seconds for s in runs)
    self_s = tr.self_seconds()
    cycles, instrs = traced_work
    out = {
        "setup.import_s": imports,
        "trace_overhead_frac": (
            sum(seconds[True]) / sum(seconds[False]) - 1.0
        ),
        "trace.gen_s": median(gen),
        "trace.gen_share": sum(gen) / job_s,
        "engine.build_share": tr.total("engine.Processor") / job_s,
        "warm.s": median(warm),
        "warm.share": sum(warm) / job_s,
        "engine.run_s": median([s.seconds for s in runs]),
        "engine.run_share": run_s / job_s,
        "collect.share": tr.total("simulation.collect_result") / job_s,
        "job.other_share": self_s["cold.job"] / job_s,
        "engine.cycles_per_s": cycles / run_s,
        "engine.ns_per_instr": run_s * 1e9 / instrs,
    }
    out.update(stage_shares(job_list))
    return out


def golden() -> dict:
    """Reference payload digests for the default seed's job list."""
    digests = []
    for job in jobs(0):
        cold()
        digests.append(payload_digest(run_direct(job)))
    return {"payload_digests": digests}

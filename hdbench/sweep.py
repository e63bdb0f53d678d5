"""``sweep``: the Figs. 4/5 experiment over one fixed (config × workload)
set, an exact sweep and then a screening sweep, each on a fresh
``BatchRunner(workers=nproc)`` with no result cache.

One operation is that pair.  Every process-level memo (experiment
results, traces, warm state, benchmark profiles) is cleared before each
sweep, so each one generates its traces once, as a fresh ``repro
figures`` process would.  The set is fixed by design — it is what
``headline_summary`` needs — so the seed does not change it.  Sweep
times are at the reference host speed (``harness.SpeedSampler``).
"""

from __future__ import annotations

import time
from statistics import median
from typing import Dict, List, Sequence, Tuple

from common import cold
from harness import (
    Tracer,
    digest,
    op_stats,
    SpeedSampler,
    sim_metrics,
    tree_pss_mb,
)

from repro.experiments import (
    ExperimentScale,
    fig4_table,
    fig5_table,
    headline_summary,
    run_performance_experiment,
)
from repro.experiments.performance import clear_result_cache
from repro.runner import BatchRunner
from repro.trace.profiling import clear_profile_cache

#: M8, one homogeneous and two heterogeneous configurations.
CONFIGS = ("M8", "3M4", "2M4+2M2", "1M6+2M4+2M2")
#: 2-, 4- and 6-thread workloads across ILP, MEM and MIX.
WORKLOADS = ("2W1", "2W4", "4W6", "6W3")
SCALE = ExperimentScale(commit_target=2000, screen_target=400, max_mappings=6)
MODES = ("exact", "screen")

#: The paper's §5 figures the sweep's headline numbers sit beside.
PAPER_PPA_GAIN_VS_M8_PCT = 13.0
PAPER_IPC_EDGE_VS_HOMOG_PCT = 7.0


def _cold() -> None:
    """``cold`` plus the experiment-result and profile memos."""
    clear_result_cache()
    clear_profile_cache()
    cold()


def sweep(nproc: int, mode: str, tracer: Tracer, rid: str = "",
          helpers: Sequence[int] = ()):
    """One sweep on a fresh runner: ``(results, start, seconds, report,
    Σ seconds inside BatchRunner.run, tree memory in MB)``.  The memory
    is read before the runner closes, so its pool workers are counted
    (the ``helpers`` pids are not); the read itself is not timed."""
    _cold()
    inside = [0.0]
    start = t0 = time.perf_counter()
    runner = BatchRunner(workers=nproc)
    if tracer.enabled:
        run = runner.run

        def timed_run(jobs):
            with tracer.span("runner.BatchRunner.run"):
                t = time.perf_counter()
                try:
                    return run(jobs)
                finally:
                    inside[0] += time.perf_counter() - t

        runner.run = timed_run
    try:
        with tracer.span(f"experiments.sweep.{mode}", rid):
            results = run_performance_experiment(
                CONFIGS, WORKLOADS, SCALE, runner=runner,
                screening=mode == "screen",
            )
        t_rss = time.perf_counter()
        peak = tree_pss_mb(exclude=helpers)
        t0 += time.perf_counter() - t_rss
    finally:
        runner.close()
    seconds = time.perf_counter() - t0
    return results, start, seconds, runner.report, inside[0], peak


def tables(results) -> str:
    return "\n".join(
        table(results, cls)
        for cls in ("ILP", "MEM", "MIX")
        for table in (fig4_table, fig5_table)
    )


def sweep_sim_metrics(results) -> Dict[str, float]:
    """Modelled-design figures of the HEUR runs, plus the §5 numbers."""
    summary = headline_summary(results)
    out = sim_metrics([wr.heur for per in results.values() for wr in per.values()])
    out["sim.ppa_gain_vs_m8_pct"] = 100.0 * summary.ppa_gain_vs_monolithic
    out["sim.ipc_edge_vs_homog_pct"] = (
        100.0 * summary.ipc_gain_hdsmt_vs_homogeneous
    )
    return out


def _committed(results) -> int:
    """Committed instructions over the distinct full-length runs."""
    seen = {}
    for per in results.values():
        for wr in per.values():
            for r in (wr.best, wr.heur, wr.worst):
                seen[(r.config_name, r.benchmarks, r.mapping)] = sum(r.committed)
    return sum(seen.values())


def run(ctx) -> Tuple[Dict[str, float], Dict[str, float]]:
    # The pool works on every CPU for seconds at a time: set-up and each
    # sweep are scaled by the speed the CPUs had while they ran.
    sampler = SpeedSampler(ctx.children, ctx.tmp / "speed.txt")
    setup, imports = ctx.setup_probe(
        "import repro, repro.experiments\nfrom repro.runner import BatchRunner",
        f"BatchRunner(workers={ctx.nproc}).close()", sampler=sampler,
    )
    golden = ctx.golden.get("table_digests", {})
    first: Dict[str, str] = {}
    pair_seconds: List[float] = []
    traced_pairs: List[float] = []
    #: untraced pair seconds, and all sweeps' seconds, at the reference
    #: host speed
    ref_pairs: List[float] = []
    ref_total = 0.0
    mode_seconds: Dict[str, List[float]] = {m: [] for m in MODES}
    reports = {}
    inside_runner: Dict[str, List[float]] = {m: [] for m in MODES}
    committed = 0
    peak = 0.0
    results = {}
    t_start = time.perf_counter()
    pairs = 0
    while True:
        traced = ctx.trace and pairs % 2 == 1
        pair = pair_ref = 0.0
        for mode in MODES:
            try:
                res, start, secs, report, inside, rss = sweep(
                    ctx.nproc, mode, ctx.tracer if traced else Tracer(False),
                    f"pair{pairs}", (sampler.proc.pid,),
                )
            except Exception as exc:  # noqa: BLE001 - counted, run fails
                ctx.outcome.op(False, f"{mode} sweep: {type(exc).__name__}: {exc}")
                continue
            d = digest(tables(res))
            ok = first.setdefault(mode, d) == d and golden.get(mode, d) == d
            ctx.outcome.op(ok, f"{mode} sweep: Fig. 4/5 tables {d[:12]} differ")
            results[mode] = res
            peak = max(peak, rss)
            pair += secs
            pair_ref += sampler.at_reference_speed(start, secs)
            committed += _committed(res)
            if traced:
                reports[mode] = report
                inside_runner[mode].append(inside)
            mode_seconds[mode].append(secs)
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
    ctx.info.update(ops)
    ctx.info["host"] = {
        "p50_s": median(pair_seconds),
        "ops_per_s": len(pair_seconds) / sum(pair_seconds),
        "sim_ips": committed / sum(pair_seconds + traced_pairs),
    }
    e2e = {
        "setup_s": setup,
        "p50_s": median(ref_pairs),
        "ops_per_s": len(ref_pairs) / sum(ref_pairs),
        "sim_ips": committed / ref_total,
        "peak_pss_mb": peak,
    }
    layers = sweep_sim_metrics(results["exact"])
    layers.update(ops)
    layers["fail_frac"] = ctx.outcome.failed / max(1, ctx.outcome.attempted)
    ctx.info["layers"] = dict(layers)
    ctx.info["paper"] = {
        "sim.ppa_gain_vs_m8_pct": PAPER_PPA_GAIN_VS_M8_PCT,
        "sim.ipc_edge_vs_homog_pct": PAPER_IPC_EDGE_VS_HOMOG_PCT,
    }
    if ctx.trace:
        layers.update(_layer_metrics(ctx, imports, pair_seconds, traced_pairs,
                                     mode_seconds, inside_runner, reports))
    return e2e, layers


def _layer_metrics(ctx, imports, pair_seconds, traced_pairs, mode_seconds,
                   inside_runner, reports):
    sweeps = {m: [s.seconds for s in ctx.tracer.by_name(f"experiments.sweep.{m}")]
              for m in MODES}
    plan = [w - r for m in MODES for w, r in zip(sweeps[m], inside_runner[m])]
    reps = [reports[m] for m in MODES]
    wall = sum(r.wall_seconds for r in reps)
    busy = sum(sum(r.job_seconds) for r in reps)
    return {
        "setup.import_s": imports,
        "trace_overhead_frac": median(traced_pairs) / median(pair_seconds) - 1.0,
        "sweep.exact_s": median(mode_seconds["exact"]),
        "sweep.screen_s": median(mode_seconds["screen"]),
        "experiments.plan_s": median(plan),
        "runner.run_s": median([x for m in MODES for x in inside_runner[m]]),
        "runner.jobs": float(sum(r.jobs for r in reps)),
        "runner.attempts": float(sum(r.attempts for r in reps)),
        "runner.busy_frac": busy / (wall * ctx.nproc),
        "runner.tail_frac": max(
            max(r.job_seconds, default=0.0) / r.wall_seconds for r in reps
        ),
    }


def golden() -> dict:
    import os

    nproc = len(os.sched_getaffinity(0))
    return {"table_digests": {
        mode: digest(tables(sweep(nproc, mode, Tracer(False))[0]))
        for mode in MODES
    }}

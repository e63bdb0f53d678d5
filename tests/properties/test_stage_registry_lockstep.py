"""Differential lockstep suite over the two stage sets.

The engine binds its (fetch, issue, commit) stage tuple once at
construction: ``MONO_STAGES`` for monolithic configurations,
``SMT_STAGES`` otherwise (``repro.core.engine.stages.stage_set_for``).
The mono stages' license — like the merged-ready heap's in
``test_issue_merged_ready`` — is exactness. This suite extends that
harness from the issue stage to fetch and commit: **every** per-stage
(mono, SMT) combination is spliced onto a live monolithic processor and
stepped in lockstep against the all-generic reference; after every
cycle the complete ROB state, the pending-event schedule (content *and*
order — events append in issue order, so equality pins the within-cycle
pick order too) and all counters must match, and whole runs (``run()``,
idle-skipping included) must agree on every statistic.

The scenarios span every fetch policy (each mono fetch sort key is its
own specialization of the generic one) and every single-pipeline model,
so no specialized branch is left to the M8/flush baseline alone.
"""

import dataclasses
import itertools

import pytest

from repro.core.config import get_config
from repro.core.engine import Processor
from repro.core.engine.stages import MONO_STAGES, SMT_STAGES, stage_set_for
from repro.trace.stream import trace_for

def _mono_config(model: str = "M8", policy: str = None):
    """A monolithic configuration, optionally under another fetch
    policy (M8 defaults to flush, synthesized models to l1mcount)."""
    cfg = get_config(model)
    assert cfg.is_monolithic
    if policy is None:
        return cfg
    return dataclasses.replace(cfg, name=f"{model}-{policy}", fetch_policy=policy)


_TWO = (("mcf", "twolf"), (0, 0), 500)
_FOUR = (("gzip", "twolf", "bzip2", "mcf"), (0, 0, 0, 0), 400)
_SIX = (("gzip", "gcc", "crafty", "eon", "gap", "bzip2"), (0,) * 6, 300)

#: Monolithic scenarios (the mono variants' domain):
#: (id, config, benches, mapping, commit target). The 6-thread cases
#: overcommit M8's fetch/rename thread limits so the threads-per-cycle
#: and rotor-wrap paths are exercised. M8 runs the flush policy by
#: default; the other three policies each get every thread count, and
#: the narrower models run their own widths, queue sizes and the
#: 2-cycle register file.
SCENARIOS = [
    ("2-thread", _mono_config(), *_TWO),
    ("4-thread", _mono_config(), *_FOUR),
    ("6-thread", _mono_config(), *_SIX),
] + [
    (f"{policy}-{label}", _mono_config("M8", policy), *workload)
    for policy in ("icount", "l1mcount", "roundrobin")
    for label, workload in (("2-thread", _TWO), ("4-thread", _FOUR),
                            ("6-thread", _SIX))
] + [
    ("M6-2-thread", _mono_config("M6"), ("gcc", "eon"), (0, 0), 400),
    ("M4-2-thread", _mono_config("M4"), ("mcf", "gzip"), (0, 0), 400),
    ("M2-1-thread", _mono_config("M2"), ("twolf",), (0,), 300),
]

STAGE_NAMES = ("commit", "fetch", "issue")

#: Per-stage implementations of each stage set, by set name.
SETS_BY_NAME = {"mono": MONO_STAGES, "smt": SMT_STAGES}

#: Every (stage set per stage) combination.
COMBOS = [
    dict(zip(STAGE_NAMES, combo))
    for combo in itertools.product(sorted(SETS_BY_NAME), repeat=len(STAGE_NAMES))
]


def _traces_for(benches, length=1500):
    seen = {}
    traces = []
    for b in benches:
        inst = seen.get(b, 0)
        seen[b] = inst + 1
        traces.append(trace_for(b, length, instance=inst))
    return traces


def _compose(proc: Processor, combo: dict) -> Processor:
    """Splice a per-stage combination onto a live processor (exactly what
    __init__ does for the stage set the config selects)."""
    proc._fetch_impl = SETS_BY_NAME[combo["fetch"]].fetch.__get__(proc)
    proc._issue_impl = SETS_BY_NAME[combo["issue"]].issue.__get__(proc)
    proc._commit_impl = SETS_BY_NAME[combo["commit"]].commit.__get__(proc)
    return proc


def _machine_state(proc: Processor) -> tuple:
    """Everything the composed stages can influence, cycle-granular."""
    return (
        proc.cycle,
        proc.seq,
        proc.phys_free,
        proc._ready_count,
        proc._commitable,
        tuple(proc.committed),
        tuple(proc.icount),
        tuple(proc.inflight_loads),
        tuple(proc.fetch_idx),
        tuple(proc.junk_idx),
        tuple(proc.wrong_path),
        tuple(proc.flush_wait),
        tuple(proc.fetch_stall_until),
        tuple(proc.rob_head),
        tuple(proc.rob_tail),
        tuple(proc.rob_count),
        tuple(proc._rob_state),
        tuple(proc._rob_seq),
        tuple(proc._rob_epoch),
        tuple(proc._rob_flags),
        tuple(tuple(m) for m in proc.reg_map),
        tuple(pl.issued_total for pl in proc.pipelines),
        tuple(tuple(pl.iq_used) for pl in proc.pipelines),
        tuple(len(pl.buffer) for pl in proc.pipelines),
        # Event schedule: content and order (events append in issue
        # order, so equality pins the within-cycle pick order too).
        tuple(sorted(
            (when, tuple(evs)) for when, evs in proc.events.items()
        )),
    )


def _final_state(proc: Processor) -> tuple:
    return (
        proc.cycle,
        proc.finished,
        tuple(proc.committed),
        tuple(pl.issued_total for pl in proc.pipelines),
        tuple(proc.stat_mispredicts),
        tuple(proc.stat_flushes),
        tuple(proc.stat_squashed),
        tuple(proc.stat_fetched),
        tuple(proc.stat_wrongpath_fetched),
        proc.stat_icache_stalls,
        proc.stat_btb_bubbles,
        proc.aggregate_ipc(),
    )


def _combo_id(combo: dict) -> str:
    return "-".join(f"{s}:{combo[s]}" for s in STAGE_NAMES)


@pytest.mark.parametrize("combo", COMBOS, ids=_combo_id)
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s[0])
def test_registry_combo_lockstep_equals_generic_stages(combo, scenario):
    """Step the spliced combination and the all-generic reference cycle
    by cycle: the complete stage-visible state must match after every
    cycle (the ``test_issue_merged_ready`` harness, extended to the
    fetch and commit stages)."""
    _, cfg, benches, mapping, _ = scenario
    traces = _traces_for(benches)

    candidate = _compose(Processor(cfg, traces, mapping, 10**9), combo)
    candidate.warm()
    reference = _compose(
        Processor(cfg, traces, mapping, 10**9),
        {stage: "smt" for stage in STAGE_NAMES},
    )
    reference.warm()

    for cycle in range(300):
        candidate.step()
        reference.step()
        assert _machine_state(candidate) == _machine_state(reference), (
            f"divergence at cycle {cycle} for {_combo_id(combo)}"
        )


@pytest.mark.parametrize("combo", COMBOS, ids=_combo_id)
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s[0])
def test_registry_combo_full_run_equals_generic_stages(combo, scenario):
    """run() (idle-skipping fast path included) to the commit target:
    identical cycle counts, commits and statistics for every
    combination."""
    _, cfg, benches, mapping, target = scenario
    traces = _traces_for(benches)

    candidate = _compose(Processor(cfg, traces, mapping, target), combo)
    candidate.warm()
    candidate.run()
    reference = _compose(
        Processor(cfg, traces, mapping, target),
        {stage: "smt" for stage in STAGE_NAMES},
    )
    reference.warm()
    reference.run()
    assert _final_state(candidate) == _final_state(reference)


def test_constructor_selects_registry_variants():
    """__init__ must bind exactly ``stage_set_for(config)`` — the mono
    stages for monolithic configurations, the generic SMT stages
    otherwise — with no per-call dispatch left."""
    mono_cfg = get_config("M8")
    smt_cfg = get_config("2M4+2M2")
    mono = Processor(mono_cfg, _traces_for(("gzip", "twolf")), (0, 0), 100)
    smt = Processor(
        smt_cfg, _traces_for(("gzip", "twolf")), (0, 2), 100
    )

    mono_set = stage_set_for(mono_cfg)
    smt_set = stage_set_for(smt_cfg)
    assert mono_set is MONO_STAGES
    assert smt_set is SMT_STAGES

    assert mono._fetch_impl.__func__ is mono_set.fetch
    assert mono._issue_impl.__func__ is mono_set.issue
    assert mono._commit_impl.__func__ is mono_set.commit
    assert smt._fetch_impl.__func__ is smt_set.fetch
    assert smt._issue_impl.__func__ is smt_set.issue
    assert smt._commit_impl.__func__ is smt_set.commit

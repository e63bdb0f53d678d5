"""Profile runs feeding the heuristic mapping policy.

Section 2.1 of the paper: "By means of profile information, the active
threads are arranged by the number of data cache misses and assigned to
the pipelines." This module is that profile pass — each benchmark's trace
is run alone through the L1D/L2 of the baseline memory hierarchy and its
data-cache misses counted. Results are memoized per (benchmark, length);
the profiled window itself is not: the pass generates the entries
:func:`~repro.trace.stream.trace_for` would hold (without the wrong-path
pool) and drops them afterwards, since each window is used once.

A sweep profiles its benchmarks up front as one runner batch of
:class:`ProfileJob` through :func:`prefetch_profiles`, so the passes run
on the worker pool instead of one by one in the parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, Iterable, List, Sequence, Tuple

from repro.isa.opcodes import OP_LOAD, OP_STORE
from repro.memory.hierarchy import MemoryHierarchy, MemoryParams
from repro.trace.benchmarks import get_benchmark
from repro.trace.synthetic import generate_trace

__all__ = [
    "DCacheProfile",
    "ProfileJob",
    "profile_benchmark",
    "profile_workload",
    "prefetch_profiles",
    "clear_profile_cache",
]

#: Profile window, in instructions.
PROFILE_LENGTH = 20_000


@dataclass(frozen=True)
class DCacheProfile:
    """Solo-run data-cache behaviour of one benchmark trace."""

    benchmark: str
    instructions: int
    accesses: int
    l1d_misses: int
    l2_misses: int

    @property
    def l1d_miss_rate(self) -> float:
        return self.l1d_misses / self.accesses if self.accesses else 0.0

    @property
    def misses_per_kilo_instruction(self) -> float:
        """L1D MPKI — the heuristic's sort key, normalized per instruction
        so different window lengths stay comparable."""
        return 1000.0 * self.l1d_misses / self.instructions if self.instructions else 0.0


_CACHE: Dict[Tuple[str, int], DCacheProfile] = {}


def profile_benchmark(
    name: str, length: int = PROFILE_LENGTH, params: MemoryParams | None = None
) -> DCacheProfile:
    """Run one benchmark's trace alone through the data-side hierarchy.

    The trace is streamed through once as cache warm-up and counted on a
    second pass — the paper's profiles are steady-state rates over 300M
    instructions, so the cold-start transient of our short windows must
    not contaminate the sort key. The warm-up pass touches the L1D only;
    the measured pass is a load/store's L1D access, with the L1D misses
    going on to the L2 (the DTLB does not enter the profile).
    """
    key = (name, length)
    if params is None and key in _CACHE:
        return _CACHE[key]
    entries = generate_trace(get_benchmark(name), length)
    addrs = [e[4] for e in entries if e[0] == OP_LOAD or e[0] == OP_STORE]
    mem = MemoryHierarchy(params, max_threads=1)
    l1d, l2 = mem.l1d, mem.l2
    l1d.access_many(addrs)  # warm-up pass
    before = l1d.stats.misses
    l2.access_many(l1d.access_many(addrs, collect_misses=True))
    prof = DCacheProfile(
        benchmark=name,
        instructions=length,
        accesses=len(addrs),
        l1d_misses=l1d.stats.misses - before,
        l2_misses=l2.stats.misses,
    )
    if params is None:
        _CACHE[key] = prof
    return prof


def profile_workload(
    benchmarks: List[str], length: int = PROFILE_LENGTH
) -> List[DCacheProfile]:
    """Profiles for every thread of a workload, in workload order."""
    return [profile_benchmark(b, length) for b in benchmarks]


@dataclass(frozen=True)
class ProfileJob:
    """One :func:`profile_benchmark` pass as a runner job.

    A front-end job (see :class:`~repro.runner.jobs.Job`): it prepares a
    sweep rather than being part of its results, needs no trace from the
    shared store, and is cheap enough that it never counts as heavy.
    """

    benchmark: str
    length: int = PROFILE_LENGTH

    heavy: ClassVar[bool] = False
    front_end: ClassVar[bool] = True

    def execute(self, cache=None) -> DCacheProfile:
        return profile_benchmark(self.benchmark, self.length)

    def trace_manifest(self) -> Tuple:
        return ()


def prefetch_profiles(
    benchmarks: Iterable[str],
    run: Callable[[Sequence[ProfileJob]], List[DCacheProfile]],
    length: int = PROFILE_LENGTH,
) -> None:
    """Memoize the profiles of ``benchmarks`` that are not memoized yet,
    computed as one batch through ``run`` (a
    :meth:`~repro.runner.batch.BatchRunner.run`)."""
    missing = [b for b in dict.fromkeys(benchmarks) if (b, length) not in _CACHE]
    if missing:
        for prof in run([ProfileJob(b, length) for b in missing]):
            _CACHE[(prof.benchmark, length)] = prof


def clear_profile_cache() -> None:
    """Drop memoized profiles (tests)."""
    _CACHE.clear()

"""Helpers the workload modules share.  Unlike ``harness`` this module
imports ``repro``, so only a workload module (loaded after ``run.py``
has put ``src/`` on the path) imports it."""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.engine import clear_warm_cache
from repro.core.mapping import heuristic_mapping
from repro.trace import clear_trace_cache
from repro.trace.profiling import profile_benchmark


def cold() -> None:
    """Forget this process' traces and warm state, so the next job
    generates and warms its own."""
    clear_trace_cache()
    clear_warm_cache()


def paper_mapping(config, benchmarks: Sequence[str]) -> Tuple[int, ...]:
    """The paper's heuristic mapping of ``benchmarks`` onto ``config``
    (every thread on the one pipeline of a monolithic core)."""
    if config.is_monolithic:
        return (0,) * len(benchmarks)
    misses = [profile_benchmark(b).misses_per_kilo_instruction
              for b in benchmarks]
    return tuple(heuristic_mapping(config, misses))

"""Pipeline stages and the two stage sets the processor chooses between.

:class:`~repro.core.engine.engine.Processor` binds its (fetch, issue,
commit) stage tuple **once at construction** via :func:`stage_set_for`
— there is no per-call ``if`` dispatch in ``run()``/``step()``:

* :data:`SMT_STAGES` — the generic multipipeline stages (any
  configuration);
* :data:`MONO_STAGES` — single-pipeline specializations (the M8
  baseline): the generic stages with the pipeline loop and per-thread
  pipeline indirection collapsed. Provably the same work in the same
  order, so results are bit-identical — pinned by the golden-equivalence
  suite and the mono-vs-SMT lockstep test
  (``tests/properties/test_stage_registry_lockstep.py``).

Rename and writeback have a single implementation (they are already
pipeline-agnostic), so only fetch/issue/commit come in two flavours.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.core.engine.stages.commit import commit, commit_mono
from repro.core.engine.stages.fetch import fetch, fetch_mono, fetch_thread
from repro.core.engine.stages.issue import issue_all, issue_mono, issue_pipeline
from repro.core.engine.stages.rename import rename
from repro.core.engine.stages.writeback import (
    complete,
    do_flush,
    squash_after,
    writeback,
)

__all__ = [
    "StageSet",
    "SMT_STAGES",
    "MONO_STAGES",
    "stage_set_for",
    "commit",
    "commit_mono",
    "fetch",
    "fetch_mono",
    "fetch_thread",
    "issue_all",
    "issue_mono",
    "issue_pipeline",
    "rename",
    "writeback",
    "complete",
    "do_flush",
    "squash_after",
]


class StageSet(NamedTuple):
    """One composed (fetch, issue, commit) stage selection."""

    fetch: Callable
    issue: Callable
    commit: Callable


SMT_STAGES = StageSet(fetch=fetch, issue=issue_all, commit=commit)
MONO_STAGES = StageSet(fetch=fetch_mono, issue=issue_mono, commit=commit_mono)


def stage_set_for(config) -> StageSet:
    """The stage set a configuration runs: the single-pipeline
    specializations for monolithic configurations, the generic SMT
    stages otherwise."""
    return MONO_STAGES if config.is_monolithic else SMT_STAGES

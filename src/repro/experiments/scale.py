"""Experiment scaling knobs.

The paper simulates 300M-instruction traces; a pure-Python cycle-level
simulator reproduces the same steady-state *rates* from much shorter
windows (the synthetic traces are stationary). `REPRO_SIM_SCALE` scales
the default windows up or down (e.g. ``REPRO_SIM_SCALE=4`` for a longer,
lower-noise run; ``0.25`` for a quick smoke pass).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["ExperimentScale", "default_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """Window sizes for the experiment drivers.

    commit_target:
        Instructions the first-finishing thread commits in a *measured*
        run (the paper's 300M, scaled down).
    screen_target:
        Shorter window used to rank candidate mappings for the oracle
        BEST/WORST policies; the argmax/argmin are re-run at full length.
    max_mappings:
        Cap on distinct mappings screened per (config, workload); beyond
        it a deterministic sample (always containing the heuristic's
        mapping) is used, making BEST/WORST sampled oracles.
    """

    commit_target: int = 8_000
    screen_target: int = 1_500
    max_mappings: int = 36

    def scaled(self, factor: float) -> "ExperimentScale":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return ExperimentScale(
            commit_target=max(500, int(self.commit_target * factor)),
            screen_target=max(300, int(self.screen_target * factor)),
            max_mappings=self.max_mappings,
        )

    @property
    def cache_key(self) -> tuple:
        return (self.commit_target, self.screen_target, self.max_mappings)


def default_scale() -> ExperimentScale:
    """The default scale, adjusted by the REPRO_SIM_SCALE and
    REPRO_MAX_MAPPINGS env vars.

    Raises :class:`ValueError` naming the variable for a value that is
    not a number, not finite or not positive (a mapping cap of 0 would
    leave only the heuristic's mapping, so BEST = WORST = HEUR)."""
    base = ExperimentScale()
    factor = os.environ.get("REPRO_SIM_SCALE")
    if factor:
        try:
            base = base.scaled(float(factor))
        except (ValueError, OverflowError):
            raise ValueError(
                f"REPRO_SIM_SCALE={factor!r}: expected a finite number > 0"
            ) from None
    cap = os.environ.get("REPRO_MAX_MAPPINGS")
    if cap:
        try:
            max_mappings = int(cap)
        except ValueError:
            max_mappings = 0  # refused below like any other unusable cap
        if max_mappings <= 0:
            raise ValueError(
                f"REPRO_MAX_MAPPINGS={cap!r}: expected an integer > 0"
            )
        base = ExperimentScale(
            commit_target=base.commit_target,
            screen_target=base.screen_target,
            max_mappings=max_mappings,
        )
    return base

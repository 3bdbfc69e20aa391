"""The benchmark's workloads: one (scheme, config, training budget) each.

A benchmark run of a workload is a round of `populations` (scheme, seed)
runs, each with its own run seed drawn from the `--seed` given to the
benchmark (`run_seeds`).  Each run seed draws a user population, its
traffic and the training randomness.  How long one run takes depends on
its population as much as on the program (up to 2x between seeds at these
sizes), so a round averages over eight or ten populations.  The comments say
which layers each workload is meant to load (see README.md).
"""
from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str                       # a `qoesim.bench.SchemeId` value
    train_epochs: int
    trace_level: str                  # "full" writes the per-slot CSV
    populations: int                  # runs (run seeds) in one round
    overrides: dict[str, str] = field(default_factory=dict)


def run_seeds(wl: Workload, seed: int) -> list[int]:
    """The run seeds of one round: disjoint for distinct benchmark seeds."""
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    return [seed * wl.populations + j for j in range(wl.populations)]


WORKLOADS = {w.name: w for w in (
    # L1 user-level solver dominates (da1.user_allocate); the only workload
    # that writes the per-slot trace and takes the L2 game path.  A 12-min
    # evaluation and 25 training epochs per run.
    Workload("proposed-k16", "proposed", 25, "full", 10,
             {"sim_duration_s": "720"}),
    # BDQ learning and the world step dominate; the L1 solver never runs,
    # so an L1 change must show no effect here.  250 training epochs and a
    # 48-min evaluation in 6-minute windows: with the adaptive ladder the
    # window count, and the evaluation's time with it, swung widely by seed.
    Workload("pdrl-train-k16", "pdrl-l1", 250, "aggregate", 8,
             {"sim_duration_s": "2880", "slicing.window_minutes": "6, 6, 6, 6, 6"}),
)}

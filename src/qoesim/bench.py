"""The four control schemes, each a record of five choices (`SchemeSpec`):

| scheme   | models           | window   | demand rule (impact)        | L2 slicer     | L1 orchestrator        |
|----------|------------------|----------|-----------------------------|---------------|------------------------|
| proposed | fitted, refitted | adaptive | ela_demands (window mean)   | greedy + game | da1.Orchestrator       |
| wo-da    | generic_model    | fixed    | wo_da_demands (I(1.5, 1.5)) | greedy        | RoundRobinOrchestrator |
| pdrl-l1  | fitted, refitted | adaptive | ela_demands (window mean)   | greedy + game | PdrlOrchestrator       |
| hsla-l2  | fitted, refitted | adaptive | hsla_demands (1)            | greedy + game | da1.Orchestrator       |
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import da1, netsim, qoe
from .scenario import ScenarioConfig


class SchemeId(enum.Enum):
    PROPOSED = "proposed"
    WITHOUT_DA = "wo-da"
    PDRL_L1 = "pdrl-l1"
    HSLA_L2 = "hsla-l2"


PDRL_USER_FEATURES = 8  # buffer, quality, eff, ela + 3 structure one-hot + load


class RoundRobinOrchestrator:
    """Per-slot equal split of each BS pool and the compute pool."""

    def __call__(self, state, slot: int) -> dict[int, tuple[float, float]]:
        users = [p.id for p in state.profiles]
        cpu_share = state.cpu_cap / len(users)
        out = {}
        for bs, bs_users in netsim.users_by_bs(state, users).items():
            bw_share = state.bw_caps.get(bs, 0.0) / len(bs_users)
            for u in bs_users:
                out[u] = (bw_share, cpu_share)
        return out


class ExplorationOrchestrator:
    """Bootstrap allocator: random per-epoch weights shake quality and
    rebuffer levels across users so the model fits see informative data."""

    def __init__(self, rng: np.random.Generator, epoch_slots: int):
        self.rng = rng
        self.epoch_slots = epoch_slots
        self.cached: dict[int, tuple[float, float]] = {}

    def __call__(self, state, slot: int) -> dict[int, tuple[float, float]]:
        if slot % self.epoch_slots == 0:
            k = len(state.profiles)
            w_cpu = self.rng.uniform(0.05, 1.0, k) ** 2
            # grants leave as Python floats (see the netsim docstring)
            cpu = (w_cpu / w_cpu.sum() * state.cpu_cap).tolist()
            out = {}
            # one weight draw per BS, in first-seen BS order
            by_bs = netsim.users_by_bs(state, (p.id for p in state.profiles))
            for bs, users in by_bs.items():
                w_bw = self.rng.uniform(0.05, 1.0, len(users)) ** 2
                bw = (w_bw / w_bw.sum() * state.bw_caps.get(bs, 0.0)).tolist()
                for u, b in zip(users, bw):
                    out[u] = (b, cpu[u])
            self.cached = out
        return self.cached


def generic_model(cfg: ScenarioConfig) -> qoe.QoEModel:
    """Population-level combined model: impact params at the configured
    distribution means (no per-user fitting)."""
    mean = 0.5 * (cfg.users.impact_min + cfg.users.impact_max)
    return qoe.QoEModel(3, (mean, mean), 0.5, 0)


def ela_demands(models: dict[int, qoe.QoEModel], elas: dict[int, float],
                i_bars: dict[int, float], effs: dict[int, float],
                cfg: ScenarioConfig) -> dict[int, da1.ResourceDemand]:
    """Each user's demand for their ELA at their window-mean impact."""
    return {u: da1.predict_demand(models[u].structure_index, elas[u], i_bars[u],
                                  effs[u], cfg, user=u)
            for u in elas}


def wo_da_demands(models: dict[int, qoe.QoEModel], elas: dict[int, float],
                  i_bars: dict[int, float], effs: dict[int, float],
                  cfg: ScenarioConfig) -> dict[int, da1.ResourceDemand]:
    """ELA demand at the population-average context and efficiency."""
    mean_eff = float(np.mean(list(effs.values())))
    i_avg = {u: qoe.impact(1.5, 1.5, *models[u].impact_params) for u in elas}
    return ela_demands(models, elas, i_avg, dict.fromkeys(elas, mean_eff), cfg)


def hsla_demands(models: dict[int, qoe.QoEModel], elas: dict[int, float],
                 i_bars: dict[int, float], effs: dict[int, float],
                 cfg: ScenarioConfig) -> dict[int, da1.ResourceDemand]:
    """SLA-style ELA demand from the bare QoS score, ignoring the context."""
    return ela_demands(models, elas, dict.fromkeys(elas, 1.0), effs, cfg)


def pdrl_state_vector(state, models: dict[int, qoe.QoEModel],
                      alloc: dict[int, tuple[float, float]]) -> np.ndarray:
    """Concatenated per-user feature blocks in user-id order; the load
    feature is the user's compute grant in `alloc`, the last replan's."""
    cat = state.cfg.catalog
    cap = state.cpu_cap if state.cpu_cap > 0 else 1.0
    blocks = []
    for p in state.profiles:
        rt = state.runtime[p.id]
        struct = models[p.id].structure_index
        one_hot = [1.0 if s == struct else 0.0 for s in qoe.STRUCTURES]
        blocks.append([
            min(rt.buffer / state.cfg.playback.max_buffer_s, 1.0),
            cat.quality_of(cat.quality_levels_bps[rt.tier]),
            min(rt.eff_ewma / 8.0, 1.0),
            (p.ela - 3.0) / 2.0,
            min(alloc.get(p.id, (0.0, 0.0))[1] / cap, 1.0),
            *one_hot,
        ])
    return np.concatenate(blocks)


class PdrlOrchestrator(da1.PolicyOrchestrator):
    """Five-layer BDQN drives per-user shares directly (two branches per
    user: bandwidth and compute), renormalized within each BS pool."""

    hidden_layers = 3  # the five-layer variant

    @staticmethod
    def layout(cfg: ScenarioConfig) -> tuple[int, int]:
        return PDRL_USER_FEATURES * cfg.num_users, 2 * cfg.num_users

    def state_vector(self, state) -> np.ndarray:
        return pdrl_state_vector(state, self.models, self.cached)

    def replan(self, state) -> None:
        k = len(state.profiles)
        raw = self.actions(state) / (da1.SHARE_LEVELS - 1)
        cpu_total = float(raw[k:].sum())
        # the shares leave as Python floats (see the netsim docstring)
        raw_bw, raw_cpu = raw[:k].tolist(), raw[k:].tolist()
        alloc = {}
        for p in state.profiles:
            frac = raw_cpu[p.id] / cpu_total if cpu_total > 0 else 1.0 / k
            alloc[p.id] = [0.0, frac * state.cpu_cap]
        by_bs = netsim.users_by_bs(state, (p.id for p in state.profiles))
        for bs, users in by_bs.items():
            tot = sum(raw_bw[u] for u in users)
            for u in users:
                frac = raw_bw[u] / tot if tot > 0 else 1.0 / len(users)
                alloc[u][0] = frac * state.bw_caps.get(bs, 0.0)
        self.cached = {u: (a[0], a[1]) for u, a in alloc.items()}


@dataclass(frozen=True)
class SchemeSpec:
    """A control scheme as its five choices.  A layer that tracing wraps
    (`da1.predict_demand`, the `da2` functions) is called through its module."""
    fitted_models: bool    # fitted per user and refitted; else generic_model
    adaptive_window: bool  # da2.dynamics_to_window; else slicing.wo_da_window_min
    demand: Callable[..., dict[int, da1.ResourceDemand]]  # a demand rule above
    game: bool             # da2.slice_window plays the game after greedy when scarce
    orchestrator: type     # the L1 orchestrator; a da1.PolicyOrchestrator trains

    @property
    def learned(self) -> bool:
        """A scheme whose orchestrator runs a policy trains it."""
        return issubclass(self.orchestrator, da1.PolicyOrchestrator)


PROPOSED = SchemeSpec(fitted_models=True, adaptive_window=True, demand=ela_demands,
                      game=True, orchestrator=da1.Orchestrator)
WITHOUT_DA = SchemeSpec(fitted_models=False, adaptive_window=False, demand=wo_da_demands,
                        game=False, orchestrator=RoundRobinOrchestrator)
PDRL_L1 = replace(PROPOSED, orchestrator=PdrlOrchestrator)
HSLA_L2 = replace(PROPOSED, demand=hsla_demands)

SPECS = {SchemeId.PROPOSED: PROPOSED, SchemeId.WITHOUT_DA: WITHOUT_DA,
         SchemeId.PDRL_L1: PDRL_L1, SchemeId.HSLA_L2: HSLA_L2}


"""Level-one digital agents: per-user emulation, demand prediction, and the
two-layer tailored orchestration (group-level policy + user-level solver).

The user-level allocator climbs a smooth concave planning utility built
from the tier arithmetic of the real quality/stall dynamics; realized QoE
still comes from the simulator.  Each replan runs five projected-ascent
steps from the last period's grants, which approach the optimum of the
period's utility rather than reach it; `converged` means the ascent stopped
before that cap.  Planning bandwidth/compute curves:

    q_bw(bw)   = cap((eff * bw / headroom - r_lo) / (r_hi - r_lo))
    q_cpu(cpu) = cap((cpu / cpu_headroom - c0) / c1)
    stall      = stall_bits / (softmin(eff * bw, cpu * r_lo / c0) + floor)

with `cap` a corner-rounded min(x, 1), the two quality supports joined by a
softmin, and an ELA-shortfall penalty mirroring the learning reward so both
layers chase the same objective.

The utility is one scalar per-user kernel (`utility_value_grad`) and the
solver runs on plain lists.  A (group, BS) cell holds a handful of users
(1-7 at the paper presets), where numpy's per-call overhead outweighs its
arithmetic.  Measured per solve at the replan settings (random cells, 2-vCPU
VM), the scalar path takes 0.5 ms at 2 users against 3.6 ms for the former
array path, 4.4 ms against 15.9 ms at 7 users and 9.9 ms against 15.9 ms at
16.  Arrays win only above about 25 users per cell (0.7x at 32, 0.4x at
64), which no preset produces; an array path belongs with a user-count axis
far above 24 users.  The kernel inlines `_cap1` and `_softmin`, whose
call and tuple cost outweighed their arithmetic, and a reference test holds
the kernel to them bit for bit.  `planning_qoe` keeps calling them, on the
same per-user `UtilityConsts` record that the solver reads.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from math import exp, log, log1p
from typing import Callable, NamedTuple

import numpy as np

from . import learn, netsim, qoe
from .errors import ShapeMismatch
from .scenario import ScenarioConfig, UserProfile

GROUPS = qoe.STRUCTURES  # one policy group per QoE model structure
GROUP_STATE_FEATURES = 6  # buffer, computing load, quality + 3 one-hot
SHARE_LEVELS = 11  # {0.0, 0.1, ..., 1.0}
SHORTFALL_WEIGHT = 2.0
_HINGE_TAU = 0.1
_CORNER_TAU = 0.02  # corner rounding of the tier-exact planning curves
MIN_STALL_BUDGET_S = 0.25  # floor of the per-period startup-stall budget


@dataclass(frozen=True)
class ResourceDemand:
    user: int
    bandwidth_hz: float
    compute_cps: float
    feasible: bool


def emulate_context(profile: UserProfile, paths: netsim.UserPaths,
                    horizon_slots: int, rng: np.random.Generator, *, t0_slot: int,
                    noise: float) -> np.ndarray:
    """Predicted (B, C) trajectory over the horizon, bounded noise included.

    B and C are the user's in the run's path table (the span's rows filled
    when the run builds it, the rows past the span one block at a time)."""
    out = np.empty((horizon_slots, 2))
    out[:, 0] = paths.behaviors(profile.id, t0_slot, horizon_slots)
    out[:, 1] = paths.complexity[profile.id]
    if noise > 0.0:
        out += rng.uniform(-noise, noise, out.shape)
        np.clip(out, 1.0, 2.0, out=out)
    return out


def mean_impact(model: qoe.QoEModel, trajectory: np.ndarray) -> float:
    i = qoe.impact(trajectory[:, 0], trajectory[:, 1], *model.impact_params)
    return float(i.mean())


def _stall_bandwidth(bitrate_bps: float, eff: float, stall_budget_s: float,
                     cfg: ScenarioConfig) -> float:
    """Bandwidth keeping expected per-period startup stalls within budget."""
    arrivals = cfg.arrival_rate_per_min / 60.0 * cfg.playback.eval_period_s
    return arrivals * cfg.catalog.segment_duration_s * bitrate_bps / (
        eff * max(stall_budget_s, MIN_STALL_BUDGET_S))


def predict_demand(structure_index: int, ela: float, i_bar: float,
                   eff_bps_per_hz: float, cfg: ScenarioConfig,
                   user: int) -> ResourceDemand:
    """Minimum-cost (bandwidth, compute) meeting the ELA at the window-mean
    impact `i_bar`.

    Scans the quality ladder after inverting the structure's QoS score in
    closed form; an unreachable ELA yields the max-quality demand flagged
    infeasible.
    """
    eff = max(eff_bps_per_hz, 1e-3)
    feasible = ela / i_bar <= qoe.MOS_HI + 1e-9
    needed_s = (ela + cfg.agent.demand_margin_mos) / i_bar
    catalog = cfg.catalog
    levels = catalog.quality_levels_bps

    # Stall budget shrinks with the required score; structure 3 halves it to
    # leave slack for quality rounding.  Tier-independent, so the resulting
    # bandwidth stays monotone in the ELA.
    slack_s = max(qoe.MOS_HI - min(needed_s, qoe.MOS_HI), 0.0) / qoe.REBUFFER_SLOPE
    if structure_index == 1:
        tier_rate = levels[0]
        stall_budget = slack_s
    else:
        q_star = (min(needed_s, qoe.MOS_HI) - 1.0) / qoe.QUALITY_SLOPE
        tier_rate = next(r for r in levels
                         if catalog.quality_of(r) >= q_star - 1e-9)
        stall_budget = math.inf if structure_index == 2 else 0.5 * slack_s

    if not feasible:
        tier_rate = levels[-1]
        stall_budget = math.inf if structure_index == 2 else MIN_STALL_BUDGET_S

    bw = cfg.agent.demand_headroom * tier_rate / eff
    if stall_budget is not math.inf:
        bw = max(bw, _stall_bandwidth(tier_rate, eff, stall_budget, cfg))
    cpu = cfg.agent.demand_cpu_headroom * catalog.compute_cost_cps(tier_rate)
    return ResourceDemand(user, bw, cpu, feasible)


def cluster_users(models: dict[int, qoe.QoEModel]) -> dict[int, list[int]]:
    """Partition users by fitted model structure."""
    groups: dict[int, list[int]] = {}
    for user in sorted(models):
        groups.setdefault(models[user].structure_index, []).append(user)
    return groups


def shares_from_actions(actions: np.ndarray,
                        present: list[int]) -> dict[int, tuple[float, float]]:
    """Decode per-branch share indices and renormalize over present groups.

    The indices are decoded as Python ints, so the shares, and every budget,
    warm start and grant the L1 orchestrator derives from them, are floats."""
    levels = actions.tolist()
    raw = {g: (levels[GROUPS.index(g)] / (SHARE_LEVELS - 1),
               levels[len(GROUPS) + GROUPS.index(g)] / (SHARE_LEVELS - 1))
           for g in present}
    out = {}
    for res in (0, 1):
        total = sum(raw[g][res] for g in present)
        for g in present:
            share = raw[g][res] / total if total > 0 else 1.0 / len(present)
            out.setdefault(g, [0.0, 0.0])[res] = share
    return {g: (v[0], v[1]) for g, v in out.items()}


# --- user-level concave solver ------------------------------------------------

def _cap1(x: float) -> tuple[float, float]:
    """Concave C1 cap: linear for x << 1, saturating at 1; value and slope.

    The interior planning curves deliberately keep the full slope below the
    quality floor (no convex kink at zero) so the overall utility stays
    concave; a starved user just reads a deeply negative quality support.
    """
    y = (1.0 - x) / _CORNER_TAU
    val = 1.0 - _CORNER_TAU * (math.log1p(math.exp(-abs(y))) + max(y, 0.0))
    return val, 1.0 / (1.0 + math.exp(-min(max(y, -60.0), 60.0)))


def _softmin(a: float, b: float) -> tuple[float, float, float]:
    """C1 approximation of min(a, b) exact at a == b; returns value and the
    two softmax weights."""
    lo = min(a, b)
    wa = math.exp(-(a - lo) / _CORNER_TAU)
    wb = math.exp(-(b - lo) / _CORNER_TAU)
    tot = wa + wb
    return lo - _CORNER_TAU * math.log(0.5 * tot), wa / tot, wb / tot


class UtilityConsts(NamedTuple):
    """One planned user: the constants of their planning utility."""
    user: int
    struct: int
    ibar: float
    ela: float  # ELA plus the demand noise margin
    shortfall_w: float
    eff: float
    r_lo: float
    r_span: float
    c0: float
    c1: float
    bw_headroom: float
    cpu_headroom: float
    stall_bits: float
    stall_floor: float


def utility_consts(user: int, structure_index: int, ela: float,
                   mean_impact: float, eff_bps_per_hz: float,
                   cfg: ScenarioConfig) -> UtilityConsts:
    """The kernel's constants for one user, from their fitted model."""
    # the solver chases the same noise margin the demand predictor targets;
    # a user whose target is unreachable drops the shortfall chase (plain
    # QoE maximization) so winnable users keep the contested resources
    ela = ela + cfg.agent.demand_margin_mos
    shortfall_w = (SHORTFALL_WEIGHT if ela <= qoe.MOS_HI * mean_impact + 1e-9
                   else 0.0)
    catalog = cfg.catalog
    r_lo = catalog.min_bitrate
    period_s = cfg.playback.eval_period_s
    arrivals = cfg.arrival_rate_per_min / 60.0 * period_s
    # startup bits needing download per evaluation period; the floor pins
    # the zero-resource stall at one full period
    stall_bits = arrivals * catalog.segment_duration_s * r_lo
    return UtilityConsts(user, structure_index, mean_impact, ela,
                         shortfall_w, max(eff_bps_per_hz, 1e-3), r_lo,
                         catalog.max_bitrate - r_lo, catalog.compute_cost_c0_cps,
                         catalog.compute_cost_c1_cps, cfg.agent.demand_headroom,
                         cfg.agent.demand_cpu_headroom, stall_bits,
                         stall_bits / period_s)


def utility_value_grad(c: UtilityConsts, bw: float, cpu: float
                       ) -> tuple[float, float, float]:
    """One user's planning utility and its gradient w.r.t. physical (bw, cpu).

    Quality support is the exact tier arithmetic the simulator uses
    (clamped-linear in each resource, joined by a min) with softly rounded
    corners so the ascent never loses its gradient; stalls use a smooth
    service-rate proxy.  Concave throughout.
    """
    (_, struct, ibar, ela, shortfall_w, eff, r_lo, r_span, c0, c1,
     bw_headroom, cpu_headroom, stall_bits, stall_floor) = c
    tau = _CORNER_TAU
    bw_den = bw_headroom * r_span
    cpu_den = cpu_headroom * c1
    eff_bw = eff * bw
    # _cap1 of the bandwidth and the compute quality support; `a if a > x
    # else x` is max(x, a) and `a if a < x else x` is min(x, a)
    y = (1.0 - (eff_bw / bw_headroom - r_lo) / r_span) / tau
    q_bw = 1.0 - tau * (log1p(exp(-abs(y))) + (0.0 if 0.0 > y else y))
    y = -60.0 if -60.0 > y else y
    dclip_bw = 1.0 / (1.0 + exp(-(60.0 if 60.0 < y else y)))
    y = (1.0 - (cpu / cpu_headroom - c0) / c1) / tau
    q_cpu = 1.0 - tau * (log1p(exp(-abs(y))) + (0.0 if 0.0 > y else y))
    y = -60.0 if -60.0 > y else y
    dclip_cpu = 1.0 / (1.0 + exp(-(60.0 if 60.0 < y else y)))
    s = qoe.MOS_HI
    ds_bw = ds_cpu = 0.0
    if struct != 1:  # quality term: _softmin(q_bw, q_cpu)
        lo = q_cpu if q_cpu < q_bw else q_bw
        wa = exp(-(q_bw - lo) / tau)
        wb = exp(-(q_cpu - lo) / tau)
        tot = wa + wb
        s = 1.0 + qoe.QUALITY_SLOPE * (lo - tau * log(0.5 * tot))
        ds_bw = qoe.QUALITY_SLOPE * (wa / tot * dclip_bw * eff / bw_den)
        ds_cpu = qoe.QUALITY_SLOPE * (wb / tot * dclip_cpu / cpu_den)
    if struct != 2:  # rebuffer term
        # playback is gated by the slower of the radio link and the
        # transcoder, both expressed in min-tier bits per second
        a, b = eff_bw / r_lo, cpu * r_lo / c0 / r_lo
        lo = b if b < a else a  # _softmin(a, b)
        wa = exp(-(a - lo) / tau)
        wb = exp(-(b - lo) / tau)
        tot = wa + wb
        denom = (lo - tau * log(0.5 * tot)) * r_lo + stall_floor
        dserv = -stall_bits / (denom * denom)
        s -= qoe.REBUFFER_SLOPE * (stall_bits / denom)
        ds_bw -= qoe.REBUFFER_SLOPE * (dserv * (wa / tot) * eff)
        ds_cpu -= qoe.REBUFFER_SLOPE * (dserv * (wb / tot) * r_lo / c0)
    e = ibar * s
    # smooth hinge on the ELA shortfall (mirrors the learning reward)
    gap = ela - e
    z = gap / _HINGE_TAU
    sig = 1.0 / (1.0 + exp(-(60.0 if 60.0 < z else (-60.0 if -60.0 > z else z))))
    soft = _HINGE_TAU * log1p(exp(-abs(z))) + (0.0 if 0.0 > gap else gap)
    scale = 1.0 + shortfall_w * sig
    # a faint pressure on both quality axes breaks plateau ties
    value = e - shortfall_w * soft + 0.02 * (q_bw + q_cpu)
    d_bw = ibar * ds_bw * scale + 0.02 * dclip_bw * eff / bw_den
    d_cpu = ibar * ds_cpu * scale + 0.02 * dclip_cpu / cpu_den
    return value, d_bw, d_cpu


def project_capped_simplex(x: list[float]) -> list[float]:
    """Euclidean projection onto {x >= 0, sum(x) <= 1}.

    Sort-based (Duchi et al., ICML 2008), on plain lists.
    """
    clipped = [0.0 if 0.0 > v else v for v in x]  # max(v, 0.0)
    if sum(clipped) <= 1.0:
        return clipped
    css = 0.0
    theta = 0.0
    for j, u in enumerate(sorted(x, reverse=True), 1):
        css += u
        if u - (css - 1.0) / j > 0.0:
            theta = (css - 1.0) / j
    return [max(v - theta, 0.0) for v in x]


def _ascent_point(x: list[float], g: list[float], step: float,
                  scale: float) -> list[float]:
    """Projected step along g / scale, where scale is 1 + max|g|."""
    return project_capped_simplex([xi + step * gi / scale for xi, gi in zip(x, g)])


def _max_gap(a: list[float], b: list[float]) -> float:
    return max(map(abs, map(operator.sub, a, b)))


@dataclass
class SolverReport:
    converged: bool  # the ascent stopped on its own test before max_iters
    iterations: int


def user_allocate(members: list[UtilityConsts], bw_budget_hz: float,
                  cpu_budget_cps: float, max_iters: int,
                  warm_start: dict[int, tuple[float, float]] | None,
                  tol_step: float
                  ) -> tuple[dict[int, tuple[float, float]], SolverReport]:
    """Per-user (bw, cpu) grants of the group budget: at most `max_iters`
    steps of projected-gradient ascent on the summed planning utility, with
    a backtracking line search, from `warm_start` (the last period's grants)
    when given.  `converged` says the ascent stopped on its own test (no
    accepted trial, or a step below `tol_step`) before the cap, or that the
    cell was trivial."""
    n = len(members)
    if n == 0:
        return {}, SolverReport(True, 0)
    if bw_budget_hz <= 0.0 and cpu_budget_cps <= 0.0:
        return {m.user: (0.0, 0.0) for m in members}, SolverReport(True, 0)
    if n == 1:
        # utilities are strictly increasing: a lone member takes the budget
        return ({members[0].user: (bw_budget_hz, cpu_budget_cps)},
                SolverReport(True, 0))

    def _norm_warm(idx: int, budget: float) -> list[float]:
        if budget <= 0.0:
            return [0.0] * n
        vals = [warm_start.get(m.user, (budget / n,) * 2)[idx] / budget
                for m in members]
        return project_capped_simplex([min(max(v, 0.0), 1.0) for v in vals])

    if warm_start:
        xb = _norm_warm(0, bw_budget_hz)
        xc = _norm_warm(1, cpu_budget_cps)
    else:
        xb = [1.0 / n] * n
        xc = [1.0 / n] * n

    def eval_at(xb_, xc_):
        # gradient chain through the normalized coordinates; a zero budget
        # zeroes its gradient block so that resource stays untouched
        total = 0.0
        gb_, gc_ = [], []
        for c, fb, fc in zip(members, xb_, xc_):
            v, d_bw, d_cpu = utility_value_grad(c, fb * bw_budget_hz,
                                                fc * cpu_budget_cps)
            total += v
            gb_.append(d_bw * bw_budget_hz)
            gc_.append(d_cpu * cpu_budget_cps)
        return total, gb_, gc_

    value, gb, gc = eval_at(xb, xc)
    step = 0.5
    it = 0
    moved = math.inf
    converged = False
    for it in range(1, max_iters + 1):
        accepted = False
        # the step normalization is fixed until a trial is accepted
        scale_b = 1.0 + max(map(abs, gb))
        scale_c = 1.0 + max(map(abs, gc))
        for _ in range(18):
            nb = _ascent_point(xb, gb, step, scale_b)
            nc = _ascent_point(xc, gc, step, scale_c)
            nv, ngb, ngc = eval_at(nb, nc)
            if nv >= value - 1e-15:
                moved = max(_max_gap(nb, xb), _max_gap(nc, xc))
                xb, xc, value, gb, gc = nb, nc, nv, ngb, ngc
                accepted = True
                step = min(step * 1.4, 2.0)
                break
            step *= 0.4
        if not accepted or moved < tol_step:
            converged = True
            break

    alloc = {m.user: (fb * bw_budget_hz, fc * cpu_budget_cps)
             for m, fb, fc in zip(members, xb, xc)}
    return alloc, SolverReport(converged, it)


class PolicyOrchestrator:
    """Per-epoch allocation from the branch actions of a BDQ policy.

    Serves as the per-slot allocation callback for the simulator: replans
    each epoch, one QoE period, and returns the cached allocation in between.
    A replan's actions are the forced ones when `force` has set them (the
    training environment injects exploratory actions this way), else the
    policy's greedy actions, else all zero.  The orchestrator owns the
    policy's shape: the static `layout(cfg)` gives its (inputs, branches)
    under a config, each of SHARE_LEVELS actions, and `hidden_layers` its
    depth in layers of `train.hidden_width`; `new_policy` builds a policy of
    that shape and `check_policy` refuses one of another.  A subclass sets
    `hidden_layers` and gives `layout`, `state_vector(state)` and
    `replan(state)`, which decodes the actions into `cached`.
    """

    hidden_layers: int

    def __init__(self, models: dict[int, qoe.QoEModel], policy,
                 cfg: ScenarioConfig):
        if policy is not None:
            self.check_policy(policy, cfg)
        self.models = models
        self.policy = policy
        self.cfg = cfg
        _, self.num_branches = self.layout(cfg)
        self.forced: np.ndarray | None = None
        self.cached: dict[int, tuple[float, float]] = {}

    @classmethod
    def new_policy(cls, cfg: ScenarioConfig, rng: np.random.Generator) -> learn.BdqNetwork:
        """A policy of this orchestrator's shape under `cfg`, drawn from `rng`."""
        inputs, branches = cls.layout(cfg)
        return learn.BdqNetwork(inputs, (cfg.train.hidden_width,) * cls.hidden_layers,
                                branches, SHARE_LEVELS, rng)

    @classmethod
    def check_policy(cls, policy, cfg: ScenarioConfig) -> None:
        """Raise ShapeMismatch unless `policy` has this orchestrator's shape
        under `cfg`."""
        got = (policy.input_dim, policy.num_branches, policy.actions_per_branch)
        want = (*cls.layout(cfg), SHARE_LEVELS)
        if got != want:
            raise ShapeMismatch(f"policy (inputs, branches, actions) {got} does "
                                f"not match the orchestrator's {want}")

    def force(self, actions) -> None:
        """Replan from these branch actions instead of the policy's."""
        self.forced = np.asarray(actions, dtype=int)

    def actions(self, state) -> np.ndarray:
        if self.forced is not None:
            return self.forced
        if self.policy is None:
            return np.zeros(self.num_branches, dtype=int)
        return learn.greedy_actions(self.policy, self.state_vector(state))

    def __call__(self, state, slot: int) -> dict[int, tuple[float, float]]:
        if slot % state.period_slots == 0:
            self.replan(state)
        return self.cached


class Orchestrator(PolicyOrchestrator):
    """Per-epoch composition: cluster -> group shares -> user-level solver.

    The policy's six branches are a bandwidth and a compute share level
    per group in GROUPS.
    """

    hidden_layers = 2  # a four-layer network

    def __init__(self, models: dict[int, qoe.QoEModel], policy,
                 cfg: ScenarioConfig):
        super().__init__(models, policy, cfg)
        self._warm: dict[tuple[int, int], dict] = {}

    @staticmethod
    def layout(cfg: ScenarioConfig) -> tuple[int, int]:
        return len(GROUPS) * GROUP_STATE_FEATURES, 2 * len(GROUPS)

    def state_vector(self, state) -> np.ndarray:
        """Fixed-width policy input, one block per group in GROUPS: mean
        buffer over the max buffer, computing load (fraction of the compute
        cap), mean quality and the group's one-hot; zeros for an absent
        group."""
        groups = cluster_users(self.models)
        cap = state.cpu_cap if state.cpu_cap > 0 else 1.0
        max_buffer_s = self.cfg.playback.max_buffer_s
        catalog = self.cfg.catalog
        levels = catalog.quality_levels_bps
        out = np.zeros(len(GROUPS) * GROUP_STATE_FEATURES)
        for i, g in enumerate(GROUPS):
            if g not in groups:
                continue
            members = groups[g]
            buf = float(np.mean([state.runtime[u].buffer for u in members]))
            load = sum(self.cached.get(u, (0.0, 0.0))[1] for u in members) / cap
            quality = float(np.mean([catalog.quality_of(
                levels[state.runtime[u].tier]) for u in members]))
            block = i * GROUP_STATE_FEATURES
            out[block:block + 3] = (min(buf / max_buffer_s, 1.0), min(load, 1.0),
                                    quality)
            out[block + 3 + i] = 1.0
        return out

    def _member(self, state, user: int, behavior: float) -> UtilityConsts:
        model = self.models[user]
        impact = qoe.impact(behavior, state.paths.complexity[user],
                            *model.impact_params)
        return utility_consts(user, model.structure_index, state.profiles[user].ela,
                              impact, state.runtime[user].eff_ewma, self.cfg)

    def replan(self, state) -> None:
        groups = cluster_users(self.models)
        shares = shares_from_actions(self.actions(state), sorted(groups))
        behaviors = state.paths.row(state.t)[3]
        # group budgets anchor on the slice reservations; the policy's shares
        # redistribute a bounded fraction of the reserved pool, so learned
        # corrections matter even when slices are saturated but never strip
        # a group of most of its reservation.  The slice caps are the
        # reservation sums, so the pools are fractions of them.
        lam = self.cfg.agent.share_pool_frac
        res_bw = state.slice.reserved_bw
        res_cpu = state.slice.reserved_cpu
        pool_bw = {bs: lam * cap for bs, cap in state.bw_caps.items()}
        pool_cpu = lam * sum(res_cpu.values())
        alloc: dict[int, tuple[float, float]] = {}
        for g, members in groups.items():
            share_bw, share_cpu = shares.get(g, (0.0, 0.0))
            cpu_budget_g = (1.0 - lam) * res_cpu.get(g, 0.0) + share_cpu * pool_cpu
            for bs, cell_users in netsim.users_by_bs(state, members).items():
                bw_budget = ((1.0 - lam) * res_bw.get((g, bs), 0.0)
                             + share_bw * pool_bw.get(bs, 0.0))
                cpu_budget = cpu_budget_g * len(cell_users) / len(members)
                mems = [self._member(state, u, behaviors[u]) for u in cell_users]
                # each solve is warm-started from the last epoch's allocation: 5
                # iterations match 40 in ELA ratio and mean QoE (seeds 1-8)
                cell_alloc, _ = user_allocate(
                    mems, bw_budget, cpu_budget, max_iters=5,
                    warm_start=self._warm.get((g, bs)), tol_step=2e-4)
                self._warm[(g, bs)] = cell_alloc
                alloc.update(cell_alloc)
        self.cached = alloc


def epoch_reward(period_samples, models: dict[int, qoe.QoEModel],
                 elas: dict[int, float]) -> float:
    """Learning feedback for one epoch, from its one period sample per user:
    mean over groups of the group QoE minus twice the mean ELA shortfall."""
    by_user = {ps.user: ps.sample.qoe for ps in period_samples}
    rewards = []
    for members in cluster_users(models).values():
        vals = [by_user[u] for u in members]
        short = [max(elas[u] - by_user[u], 0.0) for u in members]
        rewards.append(float(np.mean(vals)) - SHORTFALL_WEIGHT * float(np.mean(short)))
    return float(np.mean(rewards))


def planning_qoe(c: UtilityConsts, bw_hz: float, cpu_cps: float) -> float:
    """Predicted interior QoE of one user at an allocation (planning proxy)."""
    s = qoe.MOS_HI
    if c.struct != 1:  # quality term
        q_bw, _ = _cap1((c.eff * bw_hz / c.bw_headroom - c.r_lo) / c.r_span)
        q_cpu, _ = _cap1((cpu_cps / c.cpu_headroom - c.c0) / c.c1)
        s = 1.0 + qoe.QUALITY_SLOPE * _softmin(q_bw, q_cpu)[0]
    if c.struct != 2:  # rebuffer term, gated by the hard min of the two rates
        service = min(c.eff * bw_hz, cpu_cps * c.r_lo / c.c0)
        s -= qoe.REBUFFER_SLOPE * (c.stall_bits / (service + c.stall_floor))
    return c.ibar * s


def slice_gain(c: UtilityConsts, demand: ResourceDemand
               ) -> Callable[[float, float], float]:
    """One user's slice curve for `da2.abstract_demand`: a function of the
    demand fractions (f_bw, f_cpu) giving the planning QoE plus the
    ELA-chase bonus below target, weighted as in the user-level solver."""
    weight, target = c.shortfall_w, c.ela
    bw, cpu = demand.bandwidth_hz, demand.compute_cps

    def gain(f_bw: float, f_cpu: float) -> float:
        e = planning_qoe(c, f_bw * bw, f_cpu * cpu)
        return e + weight * min(e, target)
    return gain

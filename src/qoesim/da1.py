"""Level-one digital agents: per-user emulation, demand prediction, and the
two-layer tailored orchestration (group-level policy + user-level solver).

The user-level allocator maximizes a smooth concave planning utility built
from the tier arithmetic of the real quality/stall dynamics; realized QoE
still comes from the simulator.  Planning bandwidth/compute curves:

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
far above 24 users.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import learn, netsim, qoe
from .errors import ShapeMismatch
from .scenario import ScenarioConfig, UserProfile, VideoCatalog

GROUPS = (1, 2, 3)
GROUP_STATE_FEATURES = 6  # buffer, computing load, quality + 3 one-hot
SHARE_LEVELS = 11  # {0.0, 0.1, ..., 1.0}
SHORTFALL_WEIGHT = 2.0
_HINGE_TAU = 0.1
_CORNER_TAU = 0.02  # corner rounding of the tier-exact planning curves


@dataclass(frozen=True)
class ResourceDemand:
    user: int
    bandwidth_hz: float
    compute_cps: float
    window_s: float
    feasible: bool


@dataclass(frozen=True)
class GroupState:
    group: int
    avg_buffer_s: float
    computing_load: float  # fraction of edge capacity
    avg_quality: float
    one_hot: tuple[float, float, float]

    def vector(self, max_buffer_s: float = 30.0) -> np.ndarray:
        return np.array([min(self.avg_buffer_s / max_buffer_s, 1.0),
                         min(self.computing_load, 1.0),
                         self.avg_quality, *self.one_hot])


@dataclass(frozen=True)
class AllocMember:
    """Solver view of one user: fitted model plus channel efficiency."""
    user: int
    structure_index: int
    alpha: float
    beta: float
    ela: float
    mean_impact: float  # window-average I(B, C) under the fitted model
    eff_bps_per_hz: float


@dataclass(frozen=True)
class DemandParams:
    headroom: float = 1.3
    # transcode-capacity multiple over the steady-state tier cost, covering
    # post-swipe catch-up bursts (1.0 = provision exactly real-time cost)
    cpu_headroom: float = 1.0
    arrival_rate_per_min: float = 6.0
    eval_period_s: float = 10.0
    min_stall_budget_s: float = 0.25
    # demand targets sit this far above the ELA so the sampled window mean
    # clears the threshold despite generator noise (0 = aim exactly at ELA)
    margin_mos: float = 0.0


def emulate_context(profile: UserProfile, horizon_slots: int,
                    rng: np.random.Generator, *, t0_slot: int = 0,
                    slot_s: float = 1.0, max_swipe_rate_per_min: float = 18.0,
                    complexity_increases_with_speed: bool = True,
                    noise: float = 0.0) -> np.ndarray:
    """Predicted (B, C) trajectory over the horizon, bounded noise included."""
    # netsim.behavior_env_trace per slot, with the speed-only C taken once
    params = profile.swipe_rate_params
    c = netsim.complexity_of_speed(profile.speed_kmh, complexity_increases_with_speed)
    out = np.array([(netsim.behavior_of_rate(
        netsim.swipe_rate(params, (t0_slot + i) * slot_s), max_swipe_rate_per_min), c)
        for i in range(horizon_slots)], dtype=float).reshape(horizon_slots, 2)
    if noise > 0.0:
        out += rng.uniform(-noise, noise, out.shape)
        np.clip(out, 1.0, 2.0, out=out)
    return out


def mean_impact(model: qoe.QoEModel, trajectory: np.ndarray) -> float:
    alpha, beta = model.impact_params
    i = 1.0 / (1.0 + alpha * (trajectory[:, 0] - 1.0) + beta * (trajectory[:, 1] - 1.0))
    return float(i.mean())


def _stall_bandwidth(bitrate_bps: float, eff: float, stall_budget_s: float,
                     p: DemandParams, segment_s: float) -> float:
    """Bandwidth keeping expected per-period startup stalls within budget."""
    arrivals = p.arrival_rate_per_min / 60.0 * p.eval_period_s
    need = arrivals * segment_s * bitrate_bps / (eff * max(stall_budget_s,
                                                           p.min_stall_budget_s))
    return need


def predict_demand(model: qoe.QoEModel, ela: float, trajectory: np.ndarray,
                   catalog: VideoCatalog, eff_bps_per_hz: float,
                   params: DemandParams = DemandParams(),
                   window_s: float = 540.0, user: int = -1) -> ResourceDemand:
    """Minimum-cost (bandwidth, compute) meeting the ELA on window average.

    Scans the quality ladder after inverting the structure's QoS score in
    closed form; an unreachable ELA yields the max-quality demand flagged
    infeasible.
    """
    eff = max(eff_bps_per_hz, 1e-3)
    i_bar = mean_impact(model, trajectory)
    feasible = ela / i_bar <= qoe.MOS_HI + 1e-9
    needed_s = (ela + params.margin_mos) / i_bar
    levels = catalog.quality_levels_bps
    seg = catalog.segment_duration_s
    struct = model.structure_index

    # Stall budget shrinks with the required score; structure 3 halves it to
    # leave slack for quality rounding.  Tier-independent, so the resulting
    # bandwidth stays monotone in the ELA.
    slack_s = max(qoe.MOS_HI - min(needed_s, qoe.MOS_HI), 0.0) / qoe.REBUFFER_SLOPE
    if struct == 1:
        tier_rate = levels[0]
        stall_budget = slack_s
    else:
        q_star = (min(needed_s, qoe.MOS_HI) - 1.0) / qoe.QUALITY_SLOPE
        tier_rate = next(r for r in levels
                         if catalog.quality_of(r) >= q_star - 1e-9)
        stall_budget = math.inf if struct == 2 else 0.5 * slack_s

    if not feasible:
        tier_rate = levels[-1]
        stall_budget = params.min_stall_budget_s if struct != 2 else math.inf

    bw = params.headroom * tier_rate / eff
    if stall_budget is not math.inf:
        bw = max(bw, _stall_bandwidth(tier_rate, eff, stall_budget, params, seg))
    cpu = params.cpu_headroom * catalog.compute_cost_cps(tier_rate)
    return ResourceDemand(user, bw, cpu, window_s, feasible)


def cluster_users(models: dict[int, qoe.QoEModel]) -> dict[int, list[int]]:
    """Partition users by fitted model structure."""
    groups: dict[int, list[int]] = {}
    for user in sorted(models):
        groups.setdefault(models[user].structure_index, []).append(user)
    return groups


def group_state_vector(states: list[GroupState],
                       max_buffer_s: float = 30.0) -> np.ndarray:
    """Fixed-width policy input: one feature block per group index."""
    by_group = {s.group: s for s in states}
    blocks = []
    for g in GROUPS:
        if g in by_group:
            blocks.append(by_group[g].vector(max_buffer_s))
        else:
            blocks.append(np.zeros(GROUP_STATE_FEATURES))
    return np.concatenate(blocks)


def shares_from_actions(actions: np.ndarray,
                        present: list[int]) -> dict[int, tuple[float, float]]:
    """Decode per-branch share indices and renormalize over present groups."""
    raw = {g: (actions[GROUPS.index(g)] / (SHARE_LEVELS - 1),
               actions[len(GROUPS) + GROUPS.index(g)] / (SHARE_LEVELS - 1))
           for g in present}
    out = {}
    for res in (0, 1):
        total = sum(raw[g][res] for g in present)
        for g in present:
            share = raw[g][res] / total if total > 0 else 1.0 / len(present)
            out.setdefault(g, [0.0, 0.0])[res] = share
    return {g: (v[0], v[1]) for g, v in out.items()}


def group_allocate(states: list[GroupState], policy: learn.BdqNetwork | None,
                   max_buffer_s: float = 30.0) -> dict[int, tuple[float, float]]:
    """Per-group (bandwidth share, compute share), summing to 1 per resource.

    A None policy (or an untrained all-zero one) degrades to equal shares.
    """
    present = [s.group for s in states]
    if not present:
        return {}
    if policy is None:
        actions = np.zeros(2 * len(GROUPS), dtype=int)
    else:
        vec = group_state_vector(states, max_buffer_s)
        if policy.input_dim != vec.size or policy.num_branches != 2 * len(GROUPS) \
                or policy.actions_per_branch != SHARE_LEVELS:
            raise ShapeMismatch("policy dimensions do not match the group state")
        actions = learn.greedy_actions(policy, vec)
    return shares_from_actions(actions, present)


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
    """Per-user constants of the planning utility."""
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


def utility_consts(member: AllocMember, catalog: VideoCatalog,
                   params: DemandParams) -> UtilityConsts:
    """The kernel's constants for one user, built once per solve."""
    # the solver chases the same noise margin the demand predictor targets;
    # a user whose target is unreachable drops the shortfall chase (plain
    # QoE maximization) so winnable users keep the contested resources
    ela = member.ela + params.margin_mos
    shortfall_w = (SHORTFALL_WEIGHT if ela <= qoe.MOS_HI * member.mean_impact + 1e-9
                   else 0.0)
    r_lo = catalog.min_bitrate
    c0, c1 = catalog.compute_cost_coeffs
    arrivals = params.arrival_rate_per_min / 60.0 * params.eval_period_s
    # startup bits needing download per evaluation period; the floor pins
    # the zero-resource stall at one full period
    stall_bits = arrivals * catalog.segment_duration_s * r_lo
    return UtilityConsts(member.structure_index, member.mean_impact, ela,
                         shortfall_w, max(member.eff_bps_per_hz, 1e-3), r_lo,
                         catalog.max_bitrate - r_lo, c0, c1, params.headroom,
                         params.cpu_headroom, stall_bits,
                         stall_bits / params.eval_period_s)


def utility_value_grad(c: UtilityConsts, bw: float, cpu: float
                       ) -> tuple[float, float, float]:
    """One user's planning utility and its gradient w.r.t. physical (bw, cpu).

    Quality support is the exact tier arithmetic the simulator uses
    (clamped-linear in each resource, joined by a min) with softly rounded
    corners so the ascent never loses its gradient; stalls use a smooth
    service-rate proxy.  Concave throughout.
    """
    (struct, ibar, ela, shortfall_w, eff, r_lo, r_span, c0, c1,
     bw_headroom, cpu_headroom, stall_bits, stall_floor) = c
    bw_den = bw_headroom * r_span
    cpu_den = cpu_headroom * c1
    q_bw, dclip_bw = _cap1((eff * bw / bw_headroom - r_lo) / r_span)
    q_cpu, dclip_cpu = _cap1((cpu / cpu_headroom - c0) / c1)
    s = qoe.MOS_HI
    ds_bw = ds_cpu = 0.0
    if struct != 1:  # quality term
        q_join, w_bw, w_cpu = _softmin(q_bw, q_cpu)
        s = 1.0 + qoe.QUALITY_SLOPE * q_join
        ds_bw = qoe.QUALITY_SLOPE * (w_bw * dclip_bw * eff / bw_den)
        ds_cpu = qoe.QUALITY_SLOPE * (w_cpu * dclip_cpu / cpu_den)
    if struct != 2:  # rebuffer term
        # playback is gated by the slower of the radio link and the
        # transcoder, both expressed in min-tier bits per second
        service, v_bw, v_cpu = _softmin(eff * bw / r_lo, cpu * r_lo / c0 / r_lo)
        denom = service * r_lo + stall_floor
        dserv = -stall_bits / (denom * denom)
        s -= qoe.REBUFFER_SLOPE * (stall_bits / denom)
        ds_bw -= qoe.REBUFFER_SLOPE * (dserv * v_bw * eff)
        ds_cpu -= qoe.REBUFFER_SLOPE * (dserv * v_cpu * r_lo / c0)
    e = ibar * s
    # smooth hinge on the ELA shortfall (mirrors the learning reward)
    z = (ela - e) / _HINGE_TAU
    sig = 1.0 / (1.0 + math.exp(-min(max(z, -60.0), 60.0)))
    soft = _HINGE_TAU * math.log1p(math.exp(-abs(z))) + max(ela - e, 0.0)
    scale = 1.0 + shortfall_w * sig
    # a faint pressure on both quality axes breaks plateau ties
    value = e - shortfall_w * soft + 0.02 * (q_bw + q_cpu)
    d_bw = ibar * ds_bw * scale + 0.02 * dclip_bw * eff / bw_den
    d_cpu = ibar * ds_cpu * scale + 0.02 * dclip_cpu / cpu_den
    return value, d_bw, d_cpu


def project_capped_simplex(x: list[float], total: float = 1.0) -> list[float]:
    """Euclidean projection onto {x >= 0, sum(x) <= total}.

    Sort-based (Duchi et al., ICML 2008), on plain lists.
    """
    clipped = [max(v, 0.0) for v in x]
    if sum(clipped) <= total:
        return clipped
    css = 0.0
    theta = 0.0
    for j, u in enumerate(sorted(x, reverse=True), 1):
        css += u
        if u - (css - total) / j > 0.0:
            theta = (css - total) / j
    return [max(v - theta, 0.0) for v in x]


def _ascent_point(x: list[float], g: list[float], step: float) -> list[float]:
    """Projected step along g, normalized by the gradient's largest entry."""
    scale = 1.0 + max(map(abs, g))
    return project_capped_simplex([xi + step * gi / scale for xi, gi in zip(x, g)])


def _max_gap(a: list[float], b: list[float]) -> float:
    return max(abs(u - v) for u, v in zip(a, b))


@dataclass
class SolverReport:
    converged: bool
    iterations: int
    kkt_residual: float
    objective: float


def user_allocate(members: list[AllocMember], bw_budget_hz: float,
                  cpu_budget_cps: float, catalog: VideoCatalog,
                  params: DemandParams = DemandParams(),
                  max_iters: int = 500, tol: float = 1e-4,
                  warm_start: dict[int, tuple[float, float]] | None = None,
                  tol_step: float = 1e-12
                  ) -> tuple[dict[int, tuple[float, float]], SolverReport]:
    """Concave utility maximization over the group budget.

    Projected-gradient ascent on the product of capped simplices with a
    backtracking quadratic line search; returns per-user (bw, cpu) plus a
    convergence report with the projected-gradient KKT residual.
    """
    n = len(members)
    if n == 0:
        return {}, SolverReport(True, 0, 0.0, 0.0)
    if bw_budget_hz <= 0.0 and cpu_budget_cps <= 0.0:
        return ({m.user: (0.0, 0.0) for m in members},
                SolverReport(True, 0, 0.0, 0.0))
    consts = [utility_consts(m, catalog, params) for m in members]
    if n == 1:
        # utilities are strictly increasing: a lone member takes the budget
        v, _, _ = utility_value_grad(consts[0], bw_budget_hz, cpu_budget_cps)
        return ({members[0].user: (bw_budget_hz, cpu_budget_cps)},
                SolverReport(True, 0, 0.0, v))

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
        for c, fb, fc in zip(consts, xb_, xc_):
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
    for it in range(1, max_iters + 1):
        accepted = False
        for _ in range(18):
            nb = _ascent_point(xb, gb, step)
            nc = _ascent_point(xc, gc, step)
            nv, ngb, ngc = eval_at(nb, nc)
            if nv >= value - 1e-15:
                moved = max(_max_gap(nb, xb), _max_gap(nc, xc))
                xb, xc, value, gb, gc = nb, nc, nv, ngb, ngc
                accepted = True
                step = min(step * 1.4, 2.0)
                break
            step *= 0.4
        if not accepted or moved < tol_step:
            break

    eta = 1e-3
    rb = _max_gap(xb, project_capped_simplex(
        [x + eta * g for x, g in zip(xb, gb)])) / eta
    rc = _max_gap(xc, project_capped_simplex(
        [x + eta * g for x, g in zip(xc, gc)])) / eta
    residual = max(rb, rc) / (1.0 + max(max(map(abs, gb)), max(map(abs, gc))))
    converged = residual < tol * 10
    alloc = {m.user: (fb * bw_budget_hz, fc * cpu_budget_cps)
             for m, fb, fc in zip(members, xb, xc)}
    return alloc, SolverReport(converged, it, residual, value)


class Orchestrator:
    """Per-epoch composition: cluster -> group shares -> user-level solver.

    Serves as the per-slot allocation callback for the simulator; replans
    every `epoch_slots` slots and caches the result in between.  Group
    shares come from the policy network unless `forced_shares` is set
    (used by the training environment to inject exploratory actions).
    """

    def __init__(self, models: dict[int, qoe.QoEModel], policy,
                 catalog: VideoCatalog, cfg: ScenarioConfig,
                 params: DemandParams | None = None):
        self.models = models
        self.policy = policy
        self.catalog = catalog
        self.cfg = cfg
        self.params = params or DemandParams(
            headroom=cfg.agent.demand_headroom,
            cpu_headroom=cfg.agent.demand_cpu_headroom,
            arrival_rate_per_min=cfg.arrival_rate_per_min,
            eval_period_s=cfg.playback.eval_period_s,
            margin_mos=cfg.agent.demand_margin_mos)
        self.epoch_slots = cfg.agent.epoch_slots
        self.forced_shares: dict[int, tuple[float, float]] | None = None
        self.cached: dict[int, tuple[float, float]] = {}
        self.last_states: list[GroupState] = []
        self.last_shares: dict[int, tuple[float, float]] = {}
        self._warm: dict[tuple[int, int], dict] = {}
        self._last_cpu: dict[int, float] = {}

    def group_states(self, state) -> list[GroupState]:
        groups = cluster_users(self.models)
        cap = state.cpu_cap if state.cpu_cap > 0 else 1.0
        out = []
        for g in sorted(groups):
            members = groups[g]
            bufs = [state.runtime[u].buffer for u in members]
            quals = [self.catalog.quality_of(
                self.catalog.quality_levels_bps[state.runtime[u].tier])
                for u in members]
            load = sum(self._last_cpu.get(u, 0.0) for u in members) / cap
            one_hot = tuple(1.0 if gg == g else 0.0 for gg in GROUPS)
            out.append(GroupState(g, float(np.mean(bufs)), load,
                                  float(np.mean(quals)), one_hot))
        return out

    def _member(self, state, user: int) -> AllocMember:
        model = self.models[user]
        p = state.profiles[user]
        b, c = netsim.behavior_env_trace(
            p, state.t * state.slot_s, self.cfg.users.max_swipe_rate_per_min,
            self.cfg.users.complexity_increases_with_speed)
        alpha, beta = model.impact_params
        return AllocMember(user, model.structure_index, alpha, beta, p.ela,
                           qoe.impact(b, c, alpha, beta),
                           state.runtime[user].eff_ewma)

    def replan(self, state) -> None:
        states = self.group_states(state)
        self.last_states = states
        if self.forced_shares is not None:
            shares = self.forced_shares
        else:
            shares = group_allocate(states, self.policy,
                                    self.cfg.playback.max_buffer_s)
        self.last_shares = shares
        groups = cluster_users(self.models)
        # group budgets anchor on the slice reservations; the policy's shares
        # redistribute the unreserved slack plus a bounded fraction of the
        # reserved pool, so learned corrections matter even when slices are
        # saturated but never strip a group of most of its reservation
        lam = self.cfg.agent.share_pool_frac
        res_bw = getattr(state, "reserved_bw_detail", {})
        res_cpu = getattr(state, "reserved_cpu_detail", {})
        pool_bw = {}
        for bs, cap in state.bw_caps.items():
            reserved = sum(v for (g, b), v in res_bw.items() if b == bs)
            pool_bw[bs] = max(cap - reserved, 0.0) + lam * reserved
        reserved_cpu_total = sum(res_cpu.values())
        pool_cpu = max(state.cpu_cap - reserved_cpu_total, 0.0) \
            + lam * reserved_cpu_total
        alloc: dict[int, tuple[float, float]] = {}
        for g, members in groups.items():
            share_bw, share_cpu = shares.get(g, (0.0, 0.0))
            cpu_budget_g = (1.0 - lam) * res_cpu.get(g, 0.0) + share_cpu * pool_cpu
            by_bs: dict[int, list[int]] = {}
            for u in members:
                by_bs.setdefault(state.runtime[u].serving_bs, []).append(u)
            for bs, cell_users in by_bs.items():
                bw_budget = ((1.0 - lam) * res_bw.get((g, bs), 0.0)
                             + share_bw * pool_bw.get(bs, 0.0))
                cpu_budget = cpu_budget_g * len(cell_users) / len(members)
                mems = [self._member(state, u) for u in cell_users]
                # replanning every epoch tolerates a coarse inner solve
                cell_alloc, _ = user_allocate(
                    mems, bw_budget, cpu_budget, self.catalog, self.params,
                    max_iters=40, warm_start=self._warm.get((g, bs)),
                    tol_step=2e-4)
                self._warm[(g, bs)] = cell_alloc
                alloc.update(cell_alloc)
        self.cached = alloc
        self._last_cpu = {u: a[1] for u, a in alloc.items()}

    def __call__(self, state, slot: int) -> dict[int, tuple[float, float]]:
        if slot % self.epoch_slots == 0 or not self.cached:
            self.replan(state)
        return self.cached


def epoch_reward(period_samples, models: dict[int, qoe.QoEModel],
                 elas: dict[int, float]) -> tuple[float, dict[int, float]]:
    """Learning feedback for one epoch: mean over groups of the group QoE
    minus twice the mean ELA shortfall.  Also returns per-group mean QoE."""
    groups = cluster_users(models)
    by_user = {ps.user: ps.sample.qoe for ps in period_samples}
    feedback = {}
    rewards = []
    for g, members in groups.items():
        vals = [by_user[u] for u in members if u in by_user]
        if not vals:
            continue
        short = [max(elas[u] - by_user[u], 0.0) for u in members if u in by_user]
        feedback[g] = float(np.mean(vals))
        rewards.append(feedback[g] - SHORTFALL_WEIGHT * float(np.mean(short)))
    return (float(np.mean(rewards)) if rewards else 0.0), feedback


def planning_qoe(member: AllocMember, bw_hz: float, cpu_cps: float,
                 catalog: VideoCatalog,
                 params: DemandParams = DemandParams()) -> float:
    """Predicted interior QoE of one user at an allocation (planning proxy)."""
    c = utility_consts(member, catalog, params)
    s = qoe.MOS_HI
    if c.struct != 1:  # quality term
        q_bw, _ = _cap1((c.eff * bw_hz / c.bw_headroom - c.r_lo) / c.r_span)
        q_cpu, _ = _cap1((cpu_cps / c.cpu_headroom - c.c0) / c.c1)
        s = 1.0 + qoe.QUALITY_SLOPE * _softmin(q_bw, q_cpu)[0]
    if c.struct != 2:  # rebuffer term, gated by the hard min of the two rates
        service = min(c.eff * bw_hz, cpu_cps * c.r_lo / c.c0)
        s -= qoe.REBUFFER_SLOPE * (c.stall_bits / (service + c.stall_floor))
    return member.mean_impact * s

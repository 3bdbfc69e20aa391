"""Time-slotted network simulation: mobility, wireless rates, video playback.

One `SimState` holds everything mutable for a single run.  `run_window`
advances the state across a slicing window, pulling per-user allocations
from an orchestrator callback each slot and enforcing slice reservations.
All randomness flows through one generator so the traffic stream is
byte-identical across schemes: every slot draws shadowing for every
(user, BS) pair plus one arrival uniform and one MOS uniform per user,
regardless of the allocation decisions.

The world step (`advance_slots`) is one scalar kernel on Python floats.
Each slot it
  1. draws the (k, n_bs) shadowing block and the (k, 2) uniform block and
     turns both into lists;
  2. moves every user and attaches it to the BS of least mean path loss
     (`_attach`, which `run_window` also uses at window start);
  3. calls the orchestrator, then per user in id order clips the request to
     what the slice caps have left, and steps the radio rate, the swipe
     arrival, the tier pick, the segment download, playback and the MOS mean.
The truncated-normal MOS map runs once per evaluation period (and at the end
of the call) over the sampled slots since the last map: the uniforms are
drawn per slot as before, and only the records and period samples, which
no orchestrator reads, hold the samples.  Mapping once per call would hold
a whole window's pending rows at once (+2 MB peak on a 12-minute traced run).
Per-user, per-BS and per-tier constants (swipe parameters, complexity, true
alpha/beta, structure, MOS sigma, BS positions, tier qualities and costs)
are built once by `SimState`.

The kernel is scalar because a slot holds 16 users and 2 base stations at
the paper presets, where numpy's per-call overhead outweighs its arithmetic,
and because numpy's `log10`, `sin` and `exp` may differ from `math` in the
last bit, which would move every artifact.  An array step belongs with a
user-count axis far above 24 users.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import qoe
from .errors import ConfigError, DomainError, ValidationError
from .scenario import ChannelConfig, ScenarioConfig, UserProfile


@dataclass(frozen=True)
class ChannelModel:
    path_loss_exponent: float
    ref_loss_db: float  # loss at 1 m
    shadowing_sigma_db: float
    noise_density_dbm_hz: float

    def __post_init__(self):
        if self.path_loss_exponent < 2.0:
            raise ValidationError("path_loss_exponent must be >= 2")
        if self.shadowing_sigma_db < 0.0:
            raise ValidationError("shadowing_sigma_db must be >= 0")

    @classmethod
    def from_config(cls, cc: ChannelConfig) -> "ChannelModel":
        return cls(cc.path_loss_exponent, cc.ref_loss_db,
                   cc.shadowing_sigma_db, cc.noise_density_dbm_hz)


class SlotRecord(NamedTuple):
    t: int
    user: int
    serving_bs: int
    rate_bps: float
    allocated_bw_hz: float
    allocated_compute_cps: float
    buffer_s: float
    rebuffer_period_s: float  # accumulated within the current evaluation period
    quality: float
    behavior: float
    complexity: float
    qoe_sample: float


SLOT_COLUMNS = SlotRecord._fields


def mean_path_loss(distance_m: float, model: ChannelModel) -> float:
    """Deterministic log-distance component of the path loss."""
    return model.ref_loss_db + 10.0 * model.path_loss_exponent * math.log10(distance_m)


def path_loss(distance_m: float, model: ChannelModel, rng: np.random.Generator) -> float:
    """Log-distance path loss with one lognormal shadowing draw, in dB."""
    if distance_m <= 0:
        raise DomainError(f"distance must be > 0, got {distance_m}")
    return mean_path_loss(distance_m, model) + rng.normal(0.0, model.shadowing_sigma_db)


def achievable_rate(bw_hz: float, snr_linear: float) -> float:
    """Shannon rate bw * log2(1 + snr) in bits/second."""
    if bw_hz == 0.0 or snr_linear <= 0.0:
        return 0.0
    return bw_hz * math.log2(1.0 + snr_linear)


def step_playback(buffer_s: float, downloaded_playtime_s: float, slot_s: float,
                  max_buffer_s: float = 30.0) -> tuple[float, float]:
    """Advance playback one slot; returns (buffer', rebuffer_increment)."""
    rebuffer = max(slot_s - buffer_s - downloaded_playtime_s, 0.0)
    new_buffer = min(max(buffer_s + downloaded_playtime_s - slot_s, 0.0), max_buffer_s)
    return new_buffer, rebuffer


def swipe_rate(params: tuple[float, float, float], t_s: float) -> float:
    """Instantaneous swipe/request rate (per minute) of the sinusoid process
    with (mean, amplitude, period_s) parameters."""
    mean, amp, period = params
    return max(mean + amp * math.sin(2.0 * math.pi * t_s / period), 0.0)


def behavior_of_rate(rate_per_min: float, max_swipe_rate_per_min: float) -> float:
    """Behavioral dynamics B of a swipe rate, clamped into [1, 2]."""
    return 1.0 + min(max(rate_per_min / max_swipe_rate_per_min, 0.0), 1.0)


def complexity_of_speed(speed_kmh: float,
                        complexity_increases_with_speed: bool = True) -> float:
    """Environmental complexity C of a walking/driving speed, clamped into [1, 2]."""
    v = speed_kmh
    frac = (v - 2.0) / 38.0 if complexity_increases_with_speed else (40.0 - v) / 38.0
    return 1.0 + min(max(frac, 0.0), 1.0)


def behavior_env_trace(profile: UserProfile, t_s: float,
                       max_swipe_rate_per_min: float = 18.0,
                       complexity_increases_with_speed: bool = True) -> tuple[float, float]:
    """Ground-truth (B, C) at time t; both clamped into [1, 2]."""
    return (behavior_of_rate(swipe_rate(profile.swipe_rate_params, t_s),
                             max_swipe_rate_per_min),
            complexity_of_speed(profile.speed_kmh, complexity_increases_with_speed))


def pick_tier(rate_budget_bps: float, cpu_cps: float, levels_bps, costs_cps) -> int:
    """Highest tier whose bitrate fits the rate budget and whose transcode
    cost fits the compute grant; tier 0 when none does."""
    tier = 0
    for i, bitrate in enumerate(levels_bps):
        if bitrate <= rate_budget_bps and costs_cps[i] <= cpu_cps:
            tier = i
    return tier


class PathWalker:
    """Position lookup along a closed waypoint loop at constant speed."""

    def __init__(self, waypoints, speed_kmh: float):
        self.pts = [(float(x), float(y)) for x, y in waypoints]
        segs = []
        cum = [0.0]
        for (x0, y0), (x1, y1) in zip(self.pts, self.pts[1:]):
            d = math.hypot(x1 - x0, y1 - y0)
            segs.append(d)
            cum.append(cum[-1] + d)
        self.cum = cum
        self.perimeter = cum[-1]
        self.speed_mps = speed_kmh / 3.6

    def position(self, t_s: float) -> tuple[float, float]:
        if self.perimeter == 0.0:
            return self.pts[0]
        s = (self.speed_mps * t_s) % self.perimeter
        # linear scan is fine: loops have 4 segments
        for i in range(len(self.cum) - 1):
            if s <= self.cum[i + 1]:
                seg_len = self.cum[i + 1] - self.cum[i]
                f = (s - self.cum[i]) / seg_len if seg_len > 0 else 0.0
                x0, y0 = self.pts[i]
                x1, y1 = self.pts[i + 1]
                return (x0 + f * (x1 - x0), y0 + f * (y1 - y0))
        return self.pts[-1]


class _UserRuntime:
    __slots__ = ("tier", "seg_fluid", "buffer", "period_rebuffer", "rate_ewma",
                 "eff_ewma", "serving_bs")

    def __init__(self):
        self.tier = 0
        self.seg_fluid = 0.0
        self.buffer = 0.0
        self.period_rebuffer = 0.0
        self.rate_ewma = 0.0
        self.eff_ewma = 1.0
        self.serving_bs = 0


class PeriodSample(NamedTuple):
    t: int
    user: int
    sample: qoe.FactorSample


class _UserConsts(NamedTuple):
    """Per-user constants of the world step, built once per `SimState`."""
    swipe: tuple[float, float, float]  # (mean, amplitude, period_s) per minute
    complexity: float  # C depends on the speed only
    structure: int
    alpha: float  # true impact parameters
    beta: float
    mos_sigma: float


class SimState:
    """Mutable world state for one simulation run."""

    def __init__(self, cfg: ScenarioConfig, profiles: list[UserProfile],
                 group_of: dict[int, int]):
        self.cfg = cfg
        self.profiles = profiles
        self.group_of = dict(group_of)
        self.catalog = cfg.video_catalog()
        self.base_stations = cfg.base_stations()
        self.channel = ChannelModel.from_config(cfg.channel)
        self.edge_capacity = cfg.edge.capacity_cps
        self.slot_s = cfg.slot_s
        self.period_slots = max(int(round(cfg.playback.eval_period_s / cfg.slot_s)), 1)
        self.walkers = [PathWalker(p.waypoints, p.speed_kmh) for p in profiles]
        self.runtime = [_UserRuntime() for _ in profiles]
        self.t = 0
        self.bw_caps: dict[int, float] = {b.id: b.dl_bandwidth_hz for b in self.base_stations}
        self.cpu_cap: float = self.edge_capacity
        self.reserved_pairs: set[tuple[int, int]] | None = None
        self.reserved_bw_detail: dict[tuple[int, int], float] = {}
        self.reserved_cpu_detail: dict[int, float] = {}
        self.period_samples: list[PeriodSample] = []
        self.arrival_log: list[tuple[int, int]] = []  # (slot, user) swipe events
        # grants are clipped to the caps, so the world step counts none; the
        # independent slot-vs-slice check is `harness.capacity_violations`
        self.capacity_violations = 0
        # pre-computed per-BS, per-tier and per-user constants
        self._bs_xy = [b.position for b in self.base_stations]
        self._psd_dbm_hz = [b.tx_power_dbm - 10.0 * math.log10(b.dl_bandwidth_hz)
                            for b in self.base_stations]
        levels = self.catalog.quality_levels_bps
        self._qualities = [self.catalog.quality_of(r) for r in levels]
        self._costs = [self.catalog.compute_cost_cps(r) for r in levels]
        pos_c = cfg.users.complexity_increases_with_speed
        self._users = [
            _UserConsts(p.swipe_rate_params, complexity_of_speed(p.speed_kmh, pos_c),
                        p.structure_index, *p.true_impact_params,
                        math.sqrt(qoe.STRUCTURE_VARIANCE[p.structure_index]))
            for p in profiles]

    # -- slice application ----------------------------------------------------

    def apply_slice(self, slice_cfg) -> None:
        """Install per-BS bandwidth and total compute caps from a slice config."""
        caps = {b.id: 0.0 for b in self.base_stations}
        for (group, bs), bw in slice_cfg.reserved_bw.items():
            if bs not in caps:
                raise ConfigError(f"slice references unknown base station {bs}")
            caps[bs] += bw
        for bs_id, cap in caps.items():
            hw = self.bw_caps_hw(bs_id)
            if cap > hw * (1 + 1e-9):
                raise ConfigError(f"slice bandwidth {cap:.0f} exceeds BS {bs_id} capacity")
        total_cpu = sum(slice_cfg.reserved_cpu.values())
        if total_cpu > self.edge_capacity * (1 + 1e-9):
            raise ConfigError("slice compute exceeds edge capacity")
        self.bw_caps = caps
        self.cpu_cap = min(total_cpu, self.edge_capacity)
        self.reserved_pairs = set(slice_cfg.reserved_bw.keys())
        self.reserved_bw_detail = dict(slice_cfg.reserved_bw)
        self.reserved_cpu_detail = dict(slice_cfg.reserved_cpu)

    def bw_caps_hw(self, bs_id: int) -> float:
        return self.base_stations[bs_id].dl_bandwidth_hz

    def check_coverage(self) -> None:
        if self.reserved_pairs is None:
            return
        for p in self.profiles:
            g = self.group_of[p.id]
            bs = self.runtime[p.id].serving_bs
            if (g, bs) not in self.reserved_pairs:
                raise ConfigError(f"slice omits active pair (group={g}, bs={bs})")


def _attach(state: SimState, t_s: float) -> list[float]:
    """Serve every user from the BS of least mean path loss at time t_s (the
    lowest BS index on ties); returns each user's loss to it, in dB."""
    channel = state.channel
    losses = []
    for walker, rt in zip(state.walkers, state.runtime):
        x, y = walker.position(t_s)
        best, best_loss = 0, math.inf
        for j, (bx, by) in enumerate(state._bs_xy):
            loss = mean_path_loss(max(math.hypot(x - bx, y - by), 1.0), channel)
            if loss < best_loss:
                best, best_loss = j, loss
        rt.serving_bs = best
        losses.append(best_loss)
    return losses


def advance_slots(state: SimState, orchestrator: Callable, n_slots: int,
                  rng: np.random.Generator,
                  records: list[SlotRecord] | None = None,
                  window_slot0: int = 0) -> None:
    """Advance the world n_slots, drawing all stochastic inputs in fixed order.

    Grants are clipped to the slice caps in user-id order.  `records` (when
    given) gets one row per user and slot; `state.period_samples` gets one
    per user at each evaluation-period end.  Both are filled at each period
    end and when the call returns, after the MOS draws of the slots since
    the last fill are mapped at once.
    """
    k = len(state.profiles)
    n_bs = len(state.base_stations)
    slot = state.slot_s
    sigma = state.channel.shadowing_sigma_db
    noise = state.channel.noise_density_dbm_hz
    seg = state.catalog.segment_duration_s
    levels = state.catalog.quality_levels_bps
    costs = state._costs
    qualities = state._qualities
    psd = state._psd_dbm_hz
    max_buf = state.cfg.playback.max_buffer_s
    max_swipe = state.cfg.users.max_swipe_rate_per_min
    abr = state.cfg.playback.abr_safety
    period = state.period_slots
    users = list(zip(state._users, state.runtime))
    # MOS draws awaiting the truncated-normal map, in draw order
    mus: list[float] = []
    sigmas: list[float] = []
    mos_unis: list[float] = []
    pending: list[tuple[tuple, bool]] = []  # (record row, period end)

    for step in range(n_slots):
        t = state.t
        t_s = t * slot
        # fixed-order stochastic inputs (scheme-independent)
        shadow = rng.normal(0.0, 1.0, (k, n_bs)).tolist()
        uni = rng.random((k, 2)).tolist()
        loss = _attach(state, t_s)
        alloc = orchestrator(state, window_slot0 + step)
        bw_left = dict(state.bw_caps)
        cpu_left = state.cpu_cap
        period_end = (t + 1) % period == 0
        sampled = records is not None or period_end

        for i, (uc, rt) in enumerate(users):
            # grant in user-id order from what the slice caps have left
            bw_req, cpu_req = alloc.get(i, (0.0, 0.0))
            bs = rt.serving_bs
            bw = min(bw_req, bw_left[bs])
            cpu = min(cpu_req, cpu_left)
            bw_left[bs] -= bw
            cpu_left -= cpu

            snr_db = psd[bs] - (loss[i] + sigma * shadow[i][bs]) - noise
            snr = 10.0 ** (snr_db / 10.0)
            rate = achievable_rate(bw, snr)
            rt.eff_ewma = 0.9 * rt.eff_ewma + 0.1 * math.log2(1.0 + snr)
            rt.rate_ewma = 0.8 * rt.rate_ewma + 0.2 * rate

            # swipe arrival: abandon current video, fresh startup
            swipe = swipe_rate(uc.swipe, t_s)
            if uni[i][0] < 1.0 - math.exp(-swipe / 60.0 * slot):
                rt.buffer = 0.0
                rt.seg_fluid = 0.0
                rt.tier = pick_tier(abr * rt.rate_ewma, cpu, levels, costs)
                state.arrival_log.append((t, i))

            tier = rt.tier
            f = min(rate / levels[tier], cpu / costs[tier])  # playtime per second
            headroom = max(max_buf - rt.buffer - rt.seg_fluid, 0.0)
            rt.seg_fluid += min(f * slot, slot + seg, headroom)
            completed = math.floor(rt.seg_fluid / seg + 1e-12) * seg
            if completed > 0.0:
                rt.seg_fluid -= completed
                # re-decide at the segment boundary
                rt.tier = pick_tier(abr * rt.rate_ewma, cpu, levels, costs)
            rt.buffer, rebuf = step_playback(rt.buffer, completed, slot, max_buf)
            rt.period_rebuffer += rebuf

            if sampled:
                b = behavior_of_rate(swipe, max_swipe)
                c = uc.complexity
                q = qualities[tier]
                rb = rt.period_rebuffer
                mus.append(qoe.qos_score(uc.structure, rb, q)
                           * qoe.impact(b, c, uc.alpha, uc.beta))
                sigmas.append(uc.mos_sigma)
                mos_unis.append(uni[i][1])
                pending.append(((t, i, bs, rate, bw, cpu, rt.buffer, rb, q, b, c),
                                period_end))
                if period_end:
                    rt.period_rebuffer = 0.0
        state.t += 1
        if pending and (period_end or step == n_slots - 1):
            _emit_samples(state, records, pending, mus, sigmas, mos_unis)


def _emit_samples(state: SimState, records: list[SlotRecord] | None,
                  pending: list[tuple[tuple, bool]], mus: list[float],
                  sigmas: list[float], unis: list[float]) -> None:
    """Map the pending MOS uniforms to truncated-normal samples in one call,
    append the records and period samples they complete, and empty the
    pending lists."""
    # one uniform per user per slot; inverse-CDF keeps the draw count fixed
    draws = qoe.truncated_normal_from_uniform(mus, sigmas, unis).tolist()
    for (row, period_end), mos in zip(pending, draws):
        rec = SlotRecord(*row, mos)
        if records is not None:
            records.append(rec)
        if period_end:
            state.period_samples.append(PeriodSample(rec.t, rec.user, qoe.FactorSample(
                mos, rec.rebuffer_period_s, rec.quality, rec.behavior, rec.complexity)))
    for pending_list in (pending, mus, sigmas, unis):
        pending_list.clear()


def run_window(state: SimState, slice_cfg, orchestrator: Callable,
               rng: np.random.Generator, n_slots: int,
               collect_records: bool = True) -> list[SlotRecord]:
    """Simulate one slicing window under fixed reservations.

    The orchestrator callback is invoked every slot with (state, slot index
    within the window) and returns {user: (bw_hz, cpu_cps)}.  Raises
    ConfigError when the slice omits an active (group, BS) pair.
    """
    state.apply_slice(slice_cfg)
    _attach(state, state.t * state.slot_s)  # coverage check at window start
    state.check_coverage()
    records: list[SlotRecord] | None = [] if collect_records else None
    advance_slots(state, orchestrator, n_slots, rng, records)
    return records if records is not None else []

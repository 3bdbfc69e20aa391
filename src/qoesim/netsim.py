"""Time-slotted network simulation: mobility, wireless rates, video playback.

One `SimState` holds only the world of a single run: its clock, each user's
playback and rate record, and the slice caps.  `SimState.apply_slice`
installs a slicing window's per-BS bandwidth and total compute caps, and
`advance_slots` advances the state under them, pulling per-user allocations
from an orchestrator callback each slot; it returns the period samples (the
users' QoE feedback) that it draws, and keeps none.
All randomness flows through one generator so the traffic stream is
byte-identical across schemes: every slot draws shadowing for every
(user, BS) pair plus one arrival uniform and one MOS uniform per user,
regardless of the allocation decisions.

A user's path and swipe process draw no randomness: the serving BS (least
mean path loss, the lowest BS index on ties), that BS's mean path loss, the
probability that a swipe arrives in the slot and the behavioral dynamics B
are functions of (user, slot) alone, and the environmental complexity C is
a function of the user.  One `UserPaths` table per run holds them, and both
lanes' states and the planners read it: no one else stores a user's cell.
B and C are stored, not derived by each reader, because three readers need
them: the world step's MOS mean, the context emulator's trace and the L1
orchestrator's planning impact.
The evaluation lane re-walks slots that the bootstrap and training lanes
walked before, and the planners read the slots ahead of the world step, so
the table is filled when the run builds it.  Storage stops at the
evaluation span (`ScenarioConfig.eval_slots`), the one range every lane
walks and the evaluation reads in full: training can walk ten times as far
at the paper preset, so past the span the table keeps one block of rows
and refills it as the training lane walks on.

The world step (`advance_slots`) is one scalar kernel on Python floats.
Its inputs are floats as well: the slice caps, and every grant that an
orchestrator returns.  Each orchestrator converts once per replan, where it
decodes its actions or weights: `da1.shares_from_actions` decodes the
policy's share indices as ints, so the L1 budgets, warm starts and grants
are floats, and `bench.ExplorationOrchestrator` and
`bench.PdrlOrchestrator` turn their weight arrays into lists.  An
`np.float64` is a float subclass with the same IEEE arithmetic and repr, so
a leaked one moves no artifact; but every operation it reaches is a numpy
scalar operation, and the `_UserRuntime` fields it reaches stay numpy
scalars for the rest of the run.  At the paper preset (16 users, 600 slots)
a slot took about 31 us with float grants and 43 us with `np.float64` ones.
Each slot it
  1. draws the (k, n_bs) shadowing block and the (k, 2) uniform block and
     turns both into lists;
  2. reads the slot's serving BSs, path losses, swipe-arrival
     probabilities and B values from the path table;
  3. calls the orchestrator, then per user in id order clips the request to
     what the slice caps have left, and steps the radio rate, the swipe
     arrival, the tier pick, the segment download, playback and the MOS mean.
The truncated-normal MOS map runs once per call, when it returns, over
every sampled slot of the call: the uniforms are drawn per slot, and only
the records and period samples, which no orchestrator reads, hold the
samples.  The map is elementwise, so one map per call gives the same bits
as one per period at a fraction of the calls.  Holding a whole window's
pending rows costs 0.4-0.7 MB of peak RSS against a map per period
(full-trace paper-preset runs of `proposed` and `wo-da`, seed 1, with 9- to
15-minute windows, 53-55 MB in all).
Per-user, per-BS and per-tier constants (the table's complexity, the C
term of the true impact factor, true alpha, structure, MOS sigma, tier
qualities and costs) are built once by `SimState`.

The kernel is scalar because a slot holds 16 users and 2 base stations at
the paper presets, where numpy's per-call overhead outweighs its
arithmetic, and because numpy's `log10`, `sin` and `exp` may differ from
`math` in the last bit, which would move every artifact.  An array step
belongs with a user-count axis far above 24 users.  The table's one fill
(`UserPaths._fill`) runs along the slot axis instead, a user column at a
time: numpy does the exact arithmetic and `math`'s transcendentals are
mapped over the elements (`qoe.mapped`), so every row is bit-equal to the
scalar formulas below.  For the same per-call reason the kernel inlines the
playback, rate and QoS-times-impact arithmetic (`qoe.qos_score` times
`qoe.impact`) and writes `min`/`max` as conditionals.  No run calls a
scalar form of the formulas below, so the package keeps none; the tests
hold the kernel and the fill to scalar oracles of them (`tests/oracles.py`)
bit for bit:
  - position at time t: the point at arc length (speed * t) mod perimeter
    along the closed waypoint loop, linear within the first leg that ends
    at or past it;
  - mean path loss at distance d (at least 1 m): ref_loss_db
    + 10 * path_loss_exponent * log10(d); the serving BS is the one of
    least loss, the lowest index on ties;
  - swipe rate (per minute) of a user's (mean, amplitude, period_s)
    sinusoid: max(mean + amplitude * sin(2 pi t / period_s), 0); a swipe
    arrives in a slot with probability 1 - exp(-rate / 60 * slot_s);
  - behavioral dynamics B = 1 + min(max(rate / max_swipe_rate_per_min, 0), 1);
  - achievable rate: bw * log2(1 + snr) bits/s, 0 when bw = 0 or snr <= 0;
  - playback, with D seconds of playtime downloaded in a slot of s seconds:
    rebuffer max(s - buffer - D, 0) and buffer'
    min(max(buffer + D - s, 0), max_buffer_s).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, NamedTuple

import numpy as np

from . import qoe
from .errors import ConfigError
from .scenario import ScenarioConfig, UserProfile


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


def complexity_of_speed(speed_kmh: float,
                        complexity_increases_with_speed: bool) -> float:
    """Environmental complexity C of a walking/driving speed, clamped into [1, 2]."""
    v = speed_kmh
    frac = (v - 2.0) / 38.0 if complexity_increases_with_speed else (40.0 - v) / 38.0
    return 1.0 + min(max(frac, 0.0), 1.0)


def pick_tier(rate_budget_bps: float, cpu_cps: float, levels_bps, costs_cps) -> int:
    """Highest tier whose bitrate fits the rate budget and whose transcode
    cost fits the compute grant; tier 0 when none does.  Both ladders rise
    with the tier (`validate_config`), so the tiers that fit are a prefix:
    the shorter of the two ladders' fitting prefixes.  Conditionals stand in
    for the builtins `min` and `max`, whose calls cost more than the rest."""
    fit = bisect_right(levels_bps, rate_budget_bps)
    cpu_fit = bisect_right(costs_cps, cpu_cps)
    fit = cpu_fit if cpu_fit < fit else fit
    return fit - 1 if fit else 0


class PathWalker:
    """Position lookup along a closed waypoint loop at constant speed."""

    def __init__(self, waypoints, speed_kmh: float):
        self.pts = [(float(x), float(y)) for x, y in waypoints]
        cum = [0.0]
        for (x0, y0), (x1, y1) in zip(self.pts, self.pts[1:]):
            cum.append(cum[-1] + math.hypot(x1 - x0, y1 - y0))
        self.cum = cum
        self.perimeter = cum[-1]
        self.speed_mps = speed_kmh / 3.6

    def positions(self, t_s: np.ndarray) -> np.ndarray:
        """The position (module docstring) at each of the times, as an
        (n, 2) array: `np.remainder` takes the arc length and `searchsorted`
        finds its leg, so every coordinate is bit-equal to the scalar form's."""
        t_s = np.asarray(t_s, dtype=float)
        pts = np.array(self.pts)
        if self.perimeter == 0.0:
            return np.repeat(pts[:1], len(t_s), axis=0)
        cum = np.array(self.cum)
        s = np.remainder(self.speed_mps * t_s, self.perimeter)
        i = np.searchsorted(cum[1:], s)  # the first leg that ends at or past s
        seg_len = cum[i + 1] - cum[i]
        moving = seg_len > 0
        f = np.where(moving, (s - cum[i]) / np.where(moving, seg_len, 1.0), 0.0)
        return pts[i] + f[:, None] * (pts[i + 1] - pts[i])


# The planning horizon: a window is planned at most this many slots ahead of
# the world step.  A training episode plans this far and then steps through
# it, so one block of rows past the span serves one episode.
DYNAMICS_HORIZON_SLOTS = 180


class UserPaths:
    """Each user's path and swipe process, turned into the context that the
    world step, the context emulator and the L1 orchestrator read.

    Per slot and user it holds the serving BS, that BS's mean path loss
    (dB), the probability that a swipe arrives in the slot and the
    behavioral dynamics B of the swipe rate; per user it holds the
    environmental complexity C (`complexity`).  `_fill` derives every row,
    one user column at a time (`_walk_user`).  Rows of the first `span`
    slots are stored, one `(span, users)` array per column, when the run
    builds the table.  Past the span it holds one block of rows, and a read
    that the block does not hold refills it from the read's first slot past
    the span, with at least `DYNAMICS_HORIZON_SLOTS` rows.
    """

    def __init__(self, cfg: ScenarioConfig, profiles: list[UserProfile]):
        self.slot_s = cfg.slot_s
        self.walkers = [PathWalker(p.waypoints, p.speed_kmh) for p in profiles]
        self._swipe = [p.swipe_rate_params for p in profiles]
        self._max_swipe = cfg.users.max_swipe_rate_per_min
        self.complexity = [complexity_of_speed(
            p.speed_kmh, cfg.users.complexity_increases_with_speed) for p in profiles]
        self._bs_xy = [b.position for b in cfg.base_stations()]
        self._ref_loss_db = cfg.channel.ref_loss_db
        self._ten_n = 10.0 * cfg.channel.path_loss_exponent
        self.span = cfg.eval_slots()
        stored = self._fill(0, self.span)
        self.serving_bs, self.loss_db, self.arrival, self.behavior = stored
        # the block past the span: its first slot and its columns, no rows yet
        self._block_t0, self._block = self.span, [col[:0] for col in stored]

    def _fill(self, t0: int, n: int) -> list[np.ndarray]:
        """The serving BS, path loss, arrival probability and B columns of
        slots [t0, t0 + n), one `(n, users)` array each."""
        shape = (n, len(self.walkers))
        cols = [np.empty(shape, dtype) for dtype in (np.int8, float, float, float)]
        t_s = np.arange(t0, t0 + n) * self.slot_s
        for u, walker in enumerate(self.walkers):
            for col, user_col in zip(cols, self._walk_user(u, walker.positions(t_s), t_s)):
                col[:, u] = user_col
        return cols

    def _walk_user(self, u: int, xy: np.ndarray, t_s: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """User u's column at the times t_s, where it stands at xy: the
        mean path loss at 1 m or more, the swipe rate, the arrival
        probability and B of the module docstring, with `math`'s
        transcendentals mapped over the elements (numpy's differ in the
        last bit) and `np.where` for the builtins' `max` and `min`."""
        x, y = xy[:, 0], xy[:, 1]
        best = np.zeros(len(t_s), dtype=np.int8)
        best_loss = np.full(len(t_s), math.inf)
        for j, (bx, by) in enumerate(self._bs_xy):
            d = qoe.mapped(math.hypot, x - bx, y - by)
            loss = self._ref_loss_db + self._ten_n * qoe.mapped(
                math.log10, np.where(1.0 > d, 1.0, d))
            nearer = loss < best_loss  # the lowest BS index keeps a tie
            best = np.where(nearer, j, best)
            best_loss = np.where(nearer, loss, best_loss)
        mean, amp, period = self._swipe[u]  # the swipe rate
        rate = mean + amp * qoe.mapped(math.sin, 2.0 * math.pi * t_s / period)
        rate = np.where(0.0 > rate, 0.0, rate)
        arrival = 1.0 - qoe.mapped(math.exp, -rate / 60.0 * self.slot_s)
        behavior = rate / self._max_swipe  # B
        behavior = np.where(0.0 > behavior, 0.0, behavior)
        return best, best_loss, arrival, 1.0 + np.where(1.0 < behavior, 1.0, behavior)

    def _held(self, t0: int, n: int) -> tuple[list[np.ndarray], int]:
        """The block's columns and slot t0's index in them, refilled so that
        they hold slots [t0, t0 + n); t0 is past the span."""
        i = t0 - self._block_t0
        if i < 0 or i + n > len(self._block[0]):
            self._block_t0, i = t0, 0
            self._block = self._fill(t0, max(n, DYNAMICS_HORIZON_SLOTS))
        return self._block, i

    def row(self, t: int) -> tuple[list[int], list[float], list[float], list[float]]:
        """Slot t's serving BSs, path losses, swipe-arrival probabilities and
        B values, one per user."""
        cols = (self.serving_bs, self.loss_db, self.arrival, self.behavior)
        if t >= self.span:
            cols, t = self._held(t, 1)
        serving, loss, arrival, behavior = cols
        return (serving[t].tolist(), loss[t].tolist(), arrival[t].tolist(),
                behavior[t].tolist())

    def behaviors(self, user: int, t0: int, n: int) -> np.ndarray:
        """The user's B over slots [t0, t0 + n)."""
        end, past = t0 + n, max(t0, self.span)
        parts = [self.behavior[t0:end, user]]
        if end > past:
            cols, i = self._held(past, end - past)
            parts.append(cols[3][i:i + end - past, user])
        return np.concatenate(parts)


class _UserRuntime:
    __slots__ = ("tier", "seg_fluid", "buffer", "period_rebuffer", "rate_ewma",
                 "eff_ewma")

    def __init__(self):
        self.tier = 0
        self.seg_fluid = 0.0
        self.buffer = 0.0
        self.period_rebuffer = 0.0
        self.rate_ewma = 0.0
        self.eff_ewma = 1.0


class PeriodSample(NamedTuple):
    t: int
    user: int
    sample: qoe.FactorSample


class SimState:
    """Mutable world state for one simulation run, on the run's path table."""

    def __init__(self, cfg: ScenarioConfig, profiles: list[UserProfile],
                 paths: UserPaths):
        self.cfg = cfg
        self.profiles = profiles
        self.paths = paths
        self.base_stations = cfg.base_stations()
        self.channel = cfg.channel
        self.slot_s = cfg.slot_s
        self.period_slots = cfg.period_slots()
        self.runtime = [_UserRuntime() for _ in profiles]
        self.t = 0
        # the applied slice config and the per-BS bandwidth and total compute
        # caps it installs (the hardware until a slice is applied)
        self.slice = None
        self.bw_caps = cfg.bw_caps()
        self.cpu_cap: float = cfg.edge.capacity_cps
        # pre-computed per-BS, per-tier and per-user constants
        self._psd_dbm_hz = [b.tx_power_dbm - 10.0 * math.log10(b.dl_bandwidth_hz)
                            for b in self.base_stations]
        levels = cfg.catalog.quality_levels_bps
        self._qualities = [cfg.catalog.quality_of(r) for r in levels]
        self._costs = [cfg.catalog.compute_cost_cps(r) for r in levels]
        # per user, as the kernel unpacks it: C, the C term of the true impact
        # factor, structure, true alpha, MOS sigma and the runtime record
        self._users = [(c, p.true_impact_params[1] * (c - 1.0), p.structure_index,
                        p.true_impact_params[0],
                        math.sqrt(qoe.STRUCTURE_VARIANCE[p.structure_index]), rt)
                       for c, p, rt in zip(paths.complexity, profiles, self.runtime)]

    # -- slice application ----------------------------------------------------

    def apply_slice(self, slice_cfg) -> None:
        """Install a slice config and its per-BS bandwidth and total compute
        caps.  The state keeps the config itself, which is not changed once
        applied."""
        caps = {b.id: 0.0 for b in self.base_stations}
        for (group, bs), bw in slice_cfg.reserved_bw.items():
            if bs not in caps:
                raise ConfigError(f"slice references unknown base station {bs}")
            caps[bs] += bw
        for bs_id, cap in caps.items():
            if cap > self.base_stations[bs_id].dl_bandwidth_hz * (1 + 1e-9):
                raise ConfigError(f"slice bandwidth {cap:.0f} exceeds BS {bs_id} capacity")
        edge = self.cfg.edge.capacity_cps
        total_cpu = sum(slice_cfg.reserved_cpu.values())
        if total_cpu > edge * (1 + 1e-9):
            raise ConfigError("slice compute exceeds edge capacity")
        self.slice = slice_cfg
        self.bw_caps = caps
        self.cpu_cap = min(total_cpu, edge)


def users_by_bs(state: SimState, users) -> dict[int, list[int]]:
    """Group user ids by serving BS in slot `state.t`, the one being stepped,
    keeping the first-seen order of the base stations and of their users."""
    serving = state.paths.row(state.t)[0]
    out: dict[int, list[int]] = {}
    for u in users:
        out.setdefault(serving[u], []).append(u)
    return out


def advance_slots(state: SimState, orchestrator: Callable, n_slots: int,
                  rng: np.random.Generator,
                  records: list[SlotRecord] | None = None) -> list[PeriodSample]:
    """Advance the world n_slots, drawing all stochastic inputs in fixed order,
    and return the period samples drawn: one per user at each
    evaluation-period end, in slot and then user-id order.

    Grants are clipped to the slice caps in user-id order.  `records` (when
    given) gets one row per user and slot.  Records and samples are
    completed when the call returns, after the call's MOS draws are mapped
    at once.
    """
    k = len(state.profiles)
    n_bs = len(state.base_stations)
    slot = state.slot_s
    sigma = state.channel.shadowing_sigma_db
    noise = state.channel.noise_density_dbm_hz
    seg = state.cfg.catalog.segment_duration_s
    levels = state.cfg.catalog.quality_levels_bps
    costs = state._costs
    qualities = state._qualities
    psd = state._psd_dbm_hz
    max_buf = state.cfg.playback.max_buffer_s
    abr = state.cfg.playback.abr_safety
    period = state.period_slots
    paths = state.paths
    log2, floor = math.log2, math.floor
    slot_seg = slot + seg
    r_slope, q_slope = qoe.REBUFFER_SLOPE, qoe.QUALITY_SLOPE
    mos_lo, mos_hi = qoe.MOS_LO, qoe.MOS_HI
    users = state._users
    samples: list[PeriodSample] = []
    # MOS draws awaiting the truncated-normal map, in draw order
    mus: list[float] = []
    sigmas: list[float] = []
    mos_unis: list[float] = []
    pending: list[tuple[tuple, bool]] = []  # (record row, period end)

    for step in range(n_slots):
        t = state.t
        # fixed-order stochastic inputs (scheme-independent)
        shadow = rng.normal(0.0, 1.0, (k, n_bs)).tolist()
        uni = rng.random((k, 2)).tolist()
        serving, loss, arrivals, behaviors = paths.row(t)
        alloc = orchestrator(state, step)
        bw_left = dict(state.bw_caps)
        cpu_left = state.cpu_cap
        period_end = (t + 1) % period == 0
        sampled = records is not None or period_end

        for i, (c, c_term, structure, alpha, mos_sigma, rt) in enumerate(users):
            # `lo if lo > x else x` below is max(x, lo) and `hi if hi < x
            # else x` is min(x, hi), without the builtin's call
            # grant in user-id order from what the slice caps have left
            bw_req, cpu_req = alloc.get(i, (0.0, 0.0))
            bs = serving[i]
            left = bw_left[bs]
            bw = left if left < bw_req else bw_req
            cpu = cpu_left if cpu_left < cpu_req else cpu_req
            bw_left[bs] = left - bw
            cpu_left -= cpu

            snr_db = psd[bs] - (loss[i] + sigma * shadow[i][bs]) - noise
            snr = 10.0 ** (snr_db / 10.0)
            eff = log2(1.0 + snr)
            rate = 0.0 if bw == 0.0 or snr <= 0.0 else bw * eff  # the achievable rate
            rt.eff_ewma = 0.9 * rt.eff_ewma + 0.1 * eff
            rt.rate_ewma = 0.8 * rt.rate_ewma + 0.2 * rate

            # swipe arrival: abandon current video, fresh startup
            if uni[i][0] < arrivals[i]:
                rt.buffer = 0.0
                rt.seg_fluid = 0.0
                rt.tier = pick_tier(abr * rt.rate_ewma, cpu, levels, costs)

            tier = rt.tier
            buffer = rt.buffer
            fluid = rt.seg_fluid
            # segment download at f seconds of playtime per second
            f = rate / levels[tier]
            x = cpu / costs[tier]
            f = x if x < f else f
            x = max_buf - buffer - fluid
            headroom = 0.0 if 0.0 > x else x
            x = f * slot
            x = slot_seg if slot_seg < x else x
            fluid += headroom if headroom < x else x
            completed = floor(fluid / seg + 1e-12) * seg
            if completed > 0.0:
                fluid -= completed
                # re-decide at the segment boundary
                rt.tier = pick_tier(abr * rt.rate_ewma, cpu, levels, costs)
            rt.seg_fluid = fluid
            # playback
            x = slot - buffer - completed
            rt.period_rebuffer += 0.0 if 0.0 > x else x
            x = buffer + completed - slot
            x = 0.0 if 0.0 > x else x
            buffer = rt.buffer = max_buf if max_buf < x else x

            if sampled:
                b = behaviors[i]
                q = qualities[tier]
                rb = rt.period_rebuffer
                # qoe.qos_score * qoe.impact
                if structure == 1:
                    x = 5.0 - r_slope * rb
                elif structure == 2:
                    x = 1.0 + q_slope * q
                else:
                    x = 1.0 + q_slope * q - r_slope * rb
                x = mos_lo if mos_lo > x else x
                mus.append((mos_hi if mos_hi < x else x)
                           * (1.0 / (1.0 + alpha * (b - 1.0) + c_term)))
                sigmas.append(mos_sigma)
                mos_unis.append(uni[i][1])
                pending.append(((t, i, bs, rate, bw, cpu, buffer, rb, q, b, c),
                                period_end))
                if period_end:
                    rt.period_rebuffer = 0.0
        state.t += 1
    if pending:
        # one uniform per user per slot; inverse-CDF keeps the draw count fixed
        draws = qoe.truncated_normal_from_uniform(mus, sigmas, mos_unis).tolist()
        for (row, period_end), mos in zip(pending, draws):
            rec = SlotRecord._make(row + (mos,))
            if records is not None:
                records.append(rec)
            if period_end:
                samples.append(PeriodSample(rec.t, rec.user, qoe.FactorSample(
                    mos, rec.rebuffer_period_s, rec.quality, rec.behavior,
                    rec.complexity)))
    return samples

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoesim import netsim, qoe, scenario
from qoesim.errors import ConfigError, DomainError


def default_channel(sigma=0.0):
    return netsim.ChannelModel(3.0, 30.0, sigma, -167.0)


def full_slice(cfg, groups=(1, 2, 3)):
    """Slice reserving every BS's full band split across groups."""
    n = len(groups)
    return SimpleNamespace(
        reserved_bw={(g, b.id): b.dl_bandwidth_hz / n
                     for g in groups for b in cfg.base_stations()},
        reserved_cpu={g: cfg.edge.capacity_cps / n for g in groups},
    )


def round_robin(state, t):
    per_bs = {}
    for p in state.profiles:
        per_bs.setdefault(state.runtime[p.id].serving_bs, []).append(p.id)
    out = {}
    k = len(state.profiles)
    for bs, uids in per_bs.items():
        for u in uids:
            out[u] = (state.bw_caps[bs] / len(uids), state.cpu_cap / k)
    return out


def make_state(seed=1, **over):
    over.setdefault("preset_mode", "free")
    cfg = scenario.parse_overrides({k: str(v) for k, v in over.items()})
    profiles = scenario.sample_users(cfg, np.random.default_rng(seed))
    groups = {p.id: p.structure_index for p in profiles}
    return cfg, netsim.SimState(cfg, profiles, groups)


class TestPathLoss:
    def test_reference_distance_identity(self):
        m = default_channel()
        assert netsim.path_loss(1.0, m, np.random.default_rng(0)) == 30.0

    def test_log_distance_formula(self):
        m = default_channel()
        assert netsim.path_loss(100.0, m, np.random.default_rng(0)) == pytest.approx(90.0)

    def test_shadowing_std(self):
        m = default_channel(sigma=4.0)
        rng = np.random.default_rng(1)
        draws = np.array([netsim.path_loss(50.0, m, rng) for _ in range(100_000)])
        assert abs(draws.std() - 4.0) < 0.1

    def test_domain_error(self):
        with pytest.raises(DomainError):
            netsim.path_loss(0.0, default_channel(), np.random.default_rng(0))


class TestAchievableRate:
    def test_zero_snr(self):
        assert netsim.achievable_rate(1e6, 0.0) == 0.0

    def test_unit_snr(self):
        assert netsim.achievable_rate(1e6, 1.0) == pytest.approx(1e6)

    def test_zero_bandwidth(self):
        for snr in (0.0, 1.0, 1e6):
            assert netsim.achievable_rate(0.0, snr) == 0.0


class TestStepPlayback:
    def test_steady_state(self):
        assert netsim.step_playback(5.0, 1.0, 1.0) == (5.0, 0.0)

    def test_full_stall(self):
        assert netsim.step_playback(0.0, 0.0, 1.0) == (0.0, 1.0)

    def test_partial_stall(self):
        buf, rebuf = netsim.step_playback(0.4, 0.2, 1.0)
        assert buf == 0.0
        assert rebuf == pytest.approx(0.4)

    def test_buffer_cap(self):
        buf, rebuf = netsim.step_playback(29.5, 3.0, 1.0, max_buffer_s=30.0)
        assert buf == 30.0
        assert rebuf == 0.0


class TestBehaviorEnvTrace:
    def _profile(self, speed, mean, amp=0.0, period=300.0):
        return scenario.UserProfile(
            0, ((0, 0), (10, 0), (0, 0)), speed, (mean, amp, period),
            4.0, 1, (0.5, 0.5))

    def test_lower_bounds(self):
        b, c = netsim.behavior_env_trace(self._profile(2.0, 0.0), 0.0)
        assert (b, c) == (1.0, 1.0)

    def test_upper_bounds(self):
        b, c = netsim.behavior_env_trace(self._profile(40.0, 99.0), 0.0,
                                         max_swipe_rate_per_min=18.0)
        assert (b, c) == (2.0, 2.0)

    def test_speed_midpoint(self):
        _, c = netsim.behavior_env_trace(self._profile(21.0, 5.0), 0.0)
        assert c == pytest.approx(1.5)

    def test_inverted_complexity_flag(self):
        _, c = netsim.behavior_env_trace(self._profile(40.0, 5.0), 0.0,
                                         complexity_increases_with_speed=False)
        assert c == 1.0

    def test_range_over_time(self):
        p = self._profile(25.0, 9.0, amp=3.0, period=120.0)
        for t in np.linspace(0, 600, 61):
            b, c = netsim.behavior_env_trace(p, t)
            assert 1.0 <= b <= 2.0 and 1.0 <= c <= 2.0


class TestRunWindow:
    def test_zero_bandwidth_starves(self):
        cfg, state = make_state(num_users=4)
        slc = SimpleNamespace(
            reserved_bw={(g, b.id): 0.0 for g in (1, 2, 3) for b in cfg.base_stations()},
            reserved_cpu={g: 0.0 for g in (1, 2, 3)})
        recs = netsim.run_window(state, slc, round_robin, np.random.default_rng(3), 60)
        assert all(r.rate_bps == 0.0 for r in recs)
        # rebuffer accumulates monotonically within each evaluation period
        by_user = {}
        for r in recs:
            by_user.setdefault(r.user, []).append(r.rebuffer_period_s)
        period = state.period_slots
        for series in by_user.values():
            for i, (a, b) in enumerate(zip(series, series[1:])):
                if (i + 1) % period != 0:
                    assert b >= a

    def test_determinism(self):
        cfg1, s1 = make_state(num_users=6)
        cfg2, s2 = make_state(num_users=6)
        r1 = netsim.run_window(s1, full_slice(cfg1), round_robin,
                               np.random.default_rng(7), 120)
        r2 = netsim.run_window(s2, full_slice(cfg2), round_robin,
                               np.random.default_rng(7), 120)
        assert r1 == r2

    def test_single_user_abundant_no_rebuffer_after_startup(self):
        cfg, state = make_state(num_users=1, arrival_rate_per_min=1e-6,
                                **{"radio.tx_power_dbm": 46.0})
        recs = netsim.run_window(state, full_slice(cfg), round_robin,
                                 np.random.default_rng(11), 120)
        # startup completes within the first segment download; nothing after
        startup_slots = int(math.ceil(cfg.catalog.segment_duration_s / cfg.slot_s))
        assert all(r.rebuffer_period_s == 0.0 for r in recs[startup_slots:])

    def test_startup_equals_segment_download_time(self):
        # slot shorter than a segment makes the startup stall observable
        cfg, state = make_state(num_users=1, arrival_rate_per_min=1e-6,
                                slot_s=0.25, **{"radio.tx_power_dbm": 46.0,
                                                "playback.eval_period_s": 1000.0})
        recs = netsim.run_window(state, full_slice(cfg), round_robin,
                                 np.random.default_rng(11), 400)
        rate = recs[0].rate_bps
        seg_bits = cfg.catalog.quality_levels_bps[0] * cfg.catalog.segment_duration_s
        expected_startup = seg_bits / rate
        total = recs[-1].rebuffer_period_s
        assert total == pytest.approx(expected_startup, abs=cfg.slot_s)

    def test_conservation_under_greedy_overrequest(self):
        cfg, state = make_state(num_users=8)
        slc = full_slice(cfg)

        def hog(state, t):  # every user demands the whole band and edge
            return {p.id: (1e9, 1e12) for p in state.profiles}

        recs = netsim.run_window(state, slc, hog, np.random.default_rng(5), 100)
        assert state.capacity_violations == 0
        per_slot_bs = {}
        per_slot_cpu = {}
        for r in recs:
            per_slot_bs[(r.t, r.serving_bs)] = per_slot_bs.get((r.t, r.serving_bs), 0.0) \
                + r.allocated_bw_hz
            per_slot_cpu[r.t] = per_slot_cpu.get(r.t, 0.0) + r.allocated_compute_cps
        for (t, bs), used in per_slot_bs.items():
            assert used <= state.bw_caps[bs] * (1 + 1e-9) + 1e-6
        for t, used in per_slot_cpu.items():
            assert used <= state.cpu_cap * (1 + 1e-9) + 1e-3

    def test_equidistant_user_attaches_to_lowest_bs(self):
        cfg = scenario.parse_overrides({})
        x0 = (cfg.radio.bs_x_m[0] + cfg.radio.bs_x_m[1]) / 2.0
        y0 = cfg.radio.bs_y_m[0]
        user = scenario.UserProfile(0, ((x0, y0), (x0, y0 + 100.0), (x0, y0)), 2.0,
                                    (6.0, 0.0, 300.0), 4.0, 1, (0.5, 0.5))
        state = netsim.SimState(cfg, [user], {0: 1})
        recs = netsim.run_window(state, full_slice(cfg), round_robin,
                                 np.random.default_rng(1), 1)
        assert recs[0].serving_bs == 0

    def test_missing_pair_raises(self):
        cfg, state = make_state(num_users=6)
        slc = SimpleNamespace(
            reserved_bw={(1, b.id): b.dl_bandwidth_hz for b in cfg.base_stations()},
            reserved_cpu={1: cfg.edge.capacity_cps})
        with pytest.raises(ConfigError, match="active pair"):
            netsim.run_window(state, slc, round_robin, np.random.default_rng(2), 10)

    def test_record_invariants(self):
        cfg, state = make_state(num_users=6)
        recs = netsim.run_window(state, full_slice(cfg), round_robin,
                                 np.random.default_rng(13), 200)
        for r in recs:
            assert r.rate_bps >= 0 and r.allocated_bw_hz >= 0
            assert r.buffer_s >= 0 and r.rebuffer_period_s >= 0
            assert 0.0 <= r.quality <= 1.0
            assert 1.0 <= r.behavior <= 2.0 and 1.0 <= r.complexity <= 2.0
            assert 1.0 <= r.qoe_sample <= 5.0

    def test_quality_is_normalized_bitrate(self):
        cfg, state = make_state(num_users=4)
        recs = netsim.run_window(state, full_slice(cfg), round_robin,
                                 np.random.default_rng(17), 100)
        cat = cfg.video_catalog()
        valid_q = {cat.quality_of(b) for b in cat.quality_levels_bps}
        assert {round(r.quality, 9) for r in recs} <= {round(q, 9) for q in valid_q}

    def test_period_samples_collected_and_reset(self):
        cfg, state = make_state(num_users=4)
        n_slots = 100
        netsim.run_window(state, full_slice(cfg), round_robin,
                          np.random.default_rng(19), n_slots)
        periods = n_slots // state.period_slots
        assert len(state.period_samples) == periods * 4
        for ps in state.period_samples:
            assert 1.0 <= ps.sample.qoe <= 5.0
            assert ps.sample.r <= cfg.playback.eval_period_s + cfg.slot_s


class TestPathWalker:
    def test_loop_closure_and_speed(self):
        w = netsim.PathWalker(((0, 0), (100, 0), (100, 100), (0, 100), (0, 0)), 36.0)
        assert w.perimeter == 400.0
        assert w.position(0.0) == (0.0, 0.0)
        # 36 km/h = 10 m/s: after 5 s the user sits 50 m along the first edge
        assert w.position(5.0) == (50.0, 0.0)
        # a full lap takes 40 s
        x, y = w.position(40.0)
        assert (x, y) == pytest.approx((0.0, 0.0))


# -- reference world step ------------------------------------------------------
# The world step as it was before the scalar kernel: numpy draws indexed per
# element, a separate grant-clipping pass and one MOS map per sampled slot.
# The kernel must reproduce it bit for bit.

def ref_swipe_rate(profile, t_s):
    mean, amp, period = profile.swipe_rate_params
    return max(mean + amp * math.sin(2.0 * math.pi * t_s / period), 0.0)


def ref_behavior_env_trace(profile, t_s, max_swipe_rate_per_min=18.0,
                           complexity_increases_with_speed=True):
    b = 1.0 + min(max(ref_swipe_rate(profile, t_s) / max_swipe_rate_per_min, 0.0), 1.0)
    v = profile.speed_kmh
    frac = (v - 2.0) / 38.0 if complexity_increases_with_speed else (40.0 - v) / 38.0
    c = 1.0 + min(max(frac, 0.0), 1.0)
    return b, c


def ref_pick_tier(state, user, cpu_cps):
    rt = state.runtime[user]
    budget = state.cfg.playback.abr_safety * rt.rate_ewma
    tier = 0
    for i, bitrate in enumerate(state.catalog.quality_levels_bps):
        if bitrate <= budget and state._costs[i] <= cpu_cps:
            tier = i
    return tier


def ref_enforce_caps(state, alloc):
    bw_left = dict(state.bw_caps)
    cpu_left = state.cpu_cap
    out = {}
    for p in state.profiles:
        bw_req, cpu_req = alloc.get(p.id, (0.0, 0.0))
        bs = state.runtime[p.id].serving_bs
        bw = min(bw_req, bw_left[bs])
        cpu = min(cpu_req, cpu_left)
        bw_left[bs] -= bw
        cpu_left -= cpu
        out[p.id] = (bw, cpu, bs)
    used_bw = {b: 0.0 for b in state.bw_caps}
    used_cpu = 0.0
    for uid, (bw, cpu, bs) in out.items():
        used_bw[bs] += bw
        used_cpu += cpu
    for bs, used in used_bw.items():
        if used > state.bw_caps[bs] * (1 + 1e-9) + 1e-6:
            state.capacity_violations += 1
    if used_cpu > state.cpu_cap * (1 + 1e-9) + 1e-3:
        state.capacity_violations += 1
    return out


def ref_advance_slots(state, orchestrator, n_slots, rng, records=None,
                      window_slot0=0):
    k = len(state.profiles)
    n_bs = len(state.base_stations)
    cat = state.catalog
    slot = state.slot_s
    sigma = state.channel.shadowing_sigma_db
    noise = state.channel.noise_density_dbm_hz
    seg = cat.segment_duration_s
    max_buf = state.cfg.playback.max_buffer_s
    max_swipe = state.cfg.users.max_swipe_rate_per_min
    pos_c = state.cfg.users.complexity_increases_with_speed
    period = state.period_slots
    mos_sigmas = np.array([math.sqrt(qoe.STRUCTURE_VARIANCE[p.structure_index])
                           for p in state.profiles])

    for step in range(n_slots):
        t = state.t
        t_s = t * slot
        shadow = rng.normal(0.0, 1.0, (k, n_bs))
        uni = rng.random((k, 2))

        positions = [w.position(t_s) for w in state.walkers]
        pl = np.empty((k, n_bs))
        for i, p in enumerate(state.profiles):
            x, y = positions[i]
            for j, bs in enumerate(state.base_stations):
                d = max(math.hypot(x - bs.position[0], y - bs.position[1]), 1.0)
                pl[i, j] = netsim.mean_path_loss(d, state.channel)
            state.runtime[i].serving_bs = int(np.argmin(pl[i]))

        alloc = orchestrator(state, window_slot0 + step)
        granted = ref_enforce_caps(state, alloc)

        mus = np.empty(k)
        row_cache = []
        for i, p in enumerate(state.profiles):
            rt = state.runtime[i]
            bw, cpu, bs = granted[i]
            snr_db = (state._psd_dbm_hz[bs] - (pl[i, bs] + sigma * shadow[i, bs])
                      - noise)
            snr = 10.0 ** (snr_db / 10.0)
            eff = math.log2(1.0 + snr)
            rate = netsim.achievable_rate(bw, snr)
            rt.eff_ewma = 0.9 * rt.eff_ewma + 0.1 * eff
            rt.rate_ewma = 0.8 * rt.rate_ewma + 0.2 * rate

            p_arrival = 1.0 - math.exp(-ref_swipe_rate(p, t_s) / 60.0 * slot)
            if uni[i, 0] < p_arrival:
                rt.buffer = 0.0
                rt.seg_fluid = 0.0
                rt.tier = ref_pick_tier(state, i, cpu)
                state.arrival_log.append((t, i))

            bitrate = cat.quality_levels_bps[rt.tier]
            cost = state._costs[rt.tier]
            f = min(rate / bitrate, cpu / cost)
            headroom = max(max_buf - rt.buffer - rt.seg_fluid, 0.0)
            inflow = min(f * slot, slot + seg, headroom)
            rt.seg_fluid += inflow
            completed = math.floor(rt.seg_fluid / seg + 1e-12) * seg
            downloaded = completed
            if completed > 0.0:
                rt.seg_fluid -= completed
                rt.tier = ref_pick_tier(state, i, cpu)
            rt.buffer, rebuf = netsim.step_playback(rt.buffer, downloaded, slot, max_buf)
            rt.period_rebuffer += rebuf

            b, c = ref_behavior_env_trace(p, t_s, max_swipe, pos_c)
            q = cat.quality_of(bitrate)
            mus[i] = (qoe.qos_score(p.structure_index, rt.period_rebuffer, q)
                      * qoe.impact(b, c, *p.true_impact_params))
            row_cache.append((bs, rate, bw, cpu, rt.buffer, rt.period_rebuffer, q, b, c))

        period_end = (t + 1) % period == 0
        if records is not None or period_end:
            samples = qoe.truncated_normal_from_uniform(mus, mos_sigmas, uni[:, 1])
        if records is not None:
            for i in range(k):
                bs, rate, bw, cpu, buf, rb, q, b, c = row_cache[i]
                records.append(netsim.SlotRecord(t, i, bs, rate, bw, cpu, buf, rb, q,
                                                 b, c, float(samples[i])))
        if period_end:
            for i in range(k):
                _, _, _, _, _, rb, q, b, c = row_cache[i]
                state.period_samples.append(netsim.PeriodSample(
                    t, i, qoe.FactorSample(float(samples[i]), rb, q, b, c)))
                state.runtime[i].period_rebuffer = 0.0
        state.t += 1


def _hog(state, t):
    return {p.id: (1e9, 1e12) for p in state.profiles}


class _RandomRequests:
    """Requests up to twice each cap, skipping some users, from its own stream."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def __call__(self, state, t):
        out = {}
        for p in state.profiles:
            u = self.rng.random(3)
            if u[0] < 0.2:
                continue  # absent users get nothing
            bs = state.runtime[p.id].serving_bs
            out[p.id] = (2.0 * u[1] * state.bw_caps[bs], 2.0 * u[2] * state.cpu_cap)
        return out


ORCHESTRATORS = {"round_robin": lambda seed: round_robin,
                 "hog": lambda seed: _hog,
                 "random": _RandomRequests}


def _world_state(state):
    runtime = [tuple(getattr(rt, f) for f in netsim._UserRuntime.__slots__)
               for rt in state.runtime]
    return state.t, runtime, state.period_samples, state.arrival_log


class TestKernelMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 16), num_bs=st.integers(1, 3),
           slot_s=st.sampled_from([0.25, 1.0]), pos_c=st.booleans(),
           orch=st.sampled_from(sorted(ORCHESTRATORS)),
           with_records=st.booleans(), seed=st.integers(0, 2**16),
           calls=st.lists(st.integers(1, 23), min_size=1, max_size=4))
    def test_bit_identical(self, k, num_bs, slot_s, pos_c, orch, with_records,
                           seed, calls):
        over = {"num_users": k, "slot_s": slot_s, "radio.num_bs": num_bs,
                "radio.bs_x_m": "250, 750, 500", "radio.bs_y_m": "500, 500, 900",
                "users.complexity_increases_with_speed": pos_c}
        results = []
        for step in (netsim.advance_slots, ref_advance_slots):
            cfg, state = make_state(seed=seed, **over)
            state.apply_slice(full_slice(cfg))
            orchestrator = ORCHESTRATORS[orch](seed)
            rng = np.random.default_rng(seed)
            records = [] if with_records else None
            slot0 = 0
            for n in calls:  # call lengths need not tile the period
                step(state, orchestrator, n, rng, records, window_slot0=slot0)
                slot0 += n
            results.append((records, _world_state(state), rng.random()))
        assert results[0] == results[1]

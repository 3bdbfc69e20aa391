import ast
import math
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoesim import da1, netsim, qoe, runner, scenario

from oracles import (achievable_rate, behavior_of_rate, env_trace, mean_path_loss,
                     step_playback, swipe_rate, walker_position)
from test_public_names import loaded_names


def default_channel():
    return scenario.ChannelConfig(3.0, 30.0, 0.0, -167.0)


def full_slice(cfg, groups=(1, 2, 3)):
    """Slice reserving every BS's full band split across groups."""
    n = len(groups)
    return SimpleNamespace(
        reserved_bw={(g, b.id): b.dl_bandwidth_hz / n
                     for g in groups for b in cfg.base_stations()},
        reserved_cpu={g: cfg.edge.capacity_cps / n for g in groups},
    )


def round_robin(state, t):
    per_bs = netsim.users_by_bs(state, [p.id for p in state.profiles])
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
    return cfg, netsim.SimState(cfg, profiles, netsim.UserPaths(cfg, profiles))


def run_under_slice(state, slc, orchestrator, rng, n_slots):
    """One slicing window: install the slice, advance, return the records."""
    state.apply_slice(slc)
    recs = []
    netsim.advance_slots(state, orchestrator, n_slots, rng, recs)
    return recs


class TestPathLoss:
    def test_reference_distance_identity(self):
        m = default_channel()
        assert mean_path_loss(1.0, m) == 30.0

    def test_log_distance_formula(self):
        m = default_channel()
        assert mean_path_loss(100.0, m) == pytest.approx(90.0)


class TestAchievableRate:
    def test_zero_snr(self):
        assert achievable_rate(1e6, 0.0) == 0.0

    def test_unit_snr(self):
        assert achievable_rate(1e6, 1.0) == pytest.approx(1e6)

    def test_zero_bandwidth(self):
        for snr in (0.0, 1.0, 1e6):
            assert achievable_rate(0.0, snr) == 0.0


class TestStepPlayback:
    def test_steady_state(self):
        assert step_playback(5.0, 1.0, 1.0) == (5.0, 0.0)

    def test_full_stall(self):
        assert step_playback(0.0, 0.0, 1.0) == (0.0, 1.0)

    def test_partial_stall(self):
        buf, rebuf = step_playback(0.4, 0.2, 1.0)
        assert buf == 0.0
        assert rebuf == pytest.approx(0.4)

    def test_buffer_cap(self):
        buf, rebuf = step_playback(29.5, 3.0, 1.0, max_buffer_s=30.0)
        assert buf == 30.0
        assert rebuf == 0.0


class TestBehaviorEnvTrace:
    def _profile(self, speed, mean, amp=0.0, period=300.0):
        return scenario.UserProfile(
            0, ((0, 0), (10, 0), (0, 0)), speed, (mean, amp, period),
            4.0, 1, (0.5, 0.5))

    def test_lower_bounds(self):
        b, c = env_trace(self._profile(2.0, 0.0), 0.0,
                                         max_swipe_rate_per_min=18.0,
                                         complexity_increases_with_speed=True)
        assert (b, c) == (1.0, 1.0)

    def test_upper_bounds(self):
        b, c = env_trace(self._profile(40.0, 99.0), 0.0,
                                         max_swipe_rate_per_min=18.0,
                                         complexity_increases_with_speed=True)
        assert (b, c) == (2.0, 2.0)

    def test_speed_midpoint(self):
        _, c = env_trace(self._profile(21.0, 5.0), 0.0,
                                         max_swipe_rate_per_min=18.0,
                                         complexity_increases_with_speed=True)
        assert c == pytest.approx(1.5)

    def test_inverted_complexity_flag(self):
        _, c = env_trace(self._profile(40.0, 5.0), 0.0,
                                         max_swipe_rate_per_min=18.0,
                                         complexity_increases_with_speed=False)
        assert c == 1.0

    def test_range_over_time(self):
        p = self._profile(25.0, 9.0, amp=3.0, period=120.0)
        for t in np.linspace(0, 600, 61):
            b, c = env_trace(p, t, max_swipe_rate_per_min=18.0,
                                             complexity_increases_with_speed=True)
            assert 1.0 <= b <= 2.0 and 1.0 <= c <= 2.0


class TestRunWindow:
    def test_zero_bandwidth_starves(self):
        cfg, state = make_state(num_users=4)
        slc = SimpleNamespace(
            reserved_bw={(g, b.id): 0.0 for g in (1, 2, 3) for b in cfg.base_stations()},
            reserved_cpu={g: 0.0 for g in (1, 2, 3)})
        recs = run_under_slice(state, slc, round_robin, np.random.default_rng(3), 60)
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
        r1 = run_under_slice(s1, full_slice(cfg1), round_robin,
                             np.random.default_rng(7), 120)
        r2 = run_under_slice(s2, full_slice(cfg2), round_robin,
                             np.random.default_rng(7), 120)
        assert r1 == r2

    def test_single_user_abundant_no_rebuffer_after_startup(self):
        cfg, state = make_state(num_users=1, arrival_rate_per_min=1e-6,
                                **{"radio.tx_power_dbm": 46.0})
        recs = run_under_slice(state, full_slice(cfg), round_robin,
                               np.random.default_rng(11), 120)
        # startup completes within the first segment download; nothing after
        startup_slots = int(math.ceil(cfg.catalog.segment_duration_s / cfg.slot_s))
        assert all(r.rebuffer_period_s == 0.0 for r in recs[startup_slots:])

    def test_startup_equals_segment_download_time(self):
        # slot shorter than a segment makes the startup stall observable
        cfg, state = make_state(num_users=1, arrival_rate_per_min=1e-6,
                                slot_s=0.25, **{"radio.tx_power_dbm": 46.0,
                                                "playback.eval_period_s": 1000.0})
        recs = run_under_slice(state, full_slice(cfg), round_robin,
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

        recs = run_under_slice(state, slc, hog, np.random.default_rng(5), 100)
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
        state = netsim.SimState(cfg, [user], netsim.UserPaths(cfg, [user]))
        recs = run_under_slice(state, full_slice(cfg), round_robin,
                               np.random.default_rng(1), 1)
        assert recs[0].serving_bs == 0

    def test_record_invariants(self):
        cfg, state = make_state(num_users=6)
        recs = run_under_slice(state, full_slice(cfg), round_robin,
                               np.random.default_rng(13), 200)
        for r in recs:
            assert r.rate_bps >= 0 and r.allocated_bw_hz >= 0
            assert r.buffer_s >= 0 and r.rebuffer_period_s >= 0
            assert 0.0 <= r.quality <= 1.0
            assert 1.0 <= r.behavior <= 2.0 and 1.0 <= r.complexity <= 2.0
            assert 1.0 <= r.qoe_sample <= 5.0

    def test_quality_is_normalized_bitrate(self):
        cfg, state = make_state(num_users=4)
        recs = run_under_slice(state, full_slice(cfg), round_robin,
                               np.random.default_rng(17), 100)
        cat = cfg.catalog
        valid_q = {cat.quality_of(b) for b in cat.quality_levels_bps}
        assert {round(r.quality, 9) for r in recs} <= {round(q, 9) for q in valid_q}

    def test_period_samples_collected_and_reset(self):
        cfg, state = make_state(num_users=4)
        n_slots = 100
        state.apply_slice(full_slice(cfg))
        samples = netsim.advance_slots(state, round_robin, n_slots,
                                       np.random.default_rng(19))
        periods = n_slots // state.period_slots
        assert len(samples) == periods * 4
        for ps in samples:
            assert 1.0 <= ps.sample.qoe <= 5.0
            assert ps.sample.r <= cfg.playback.eval_period_s + cfg.slot_s

    def test_split_call_returns_the_samples_of_one_call(self):
        # 30 slots end an evaluation period, so the split falls on a boundary
        returned = []
        for calls in ((60,), (30, 30)):
            cfg, state = make_state(num_users=5)
            state.apply_slice(full_slice(cfg))
            assert 30 % state.period_slots == 0
            rng = np.random.default_rng(23)
            per_call = []
            for n in calls:
                start = state.t
                samples = netsim.advance_slots(state, round_robin, n, rng)
                ends = [t for t in range(start, state.t)
                        if (t + 1) % state.period_slots == 0]
                assert [(ps.t, ps.user) for ps in samples] == [
                    (t, u) for t in ends for u in range(5)]
                per_call.append(samples)
            returned.append([ps for samples in per_call for ps in samples])
        assert returned[0] == returned[1]


class TestPathWalker:
    def test_loop_closure_and_speed(self):
        w = netsim.PathWalker(((0, 0), (100, 0), (100, 100), (0, 100), (0, 0)), 36.0)
        assert w.perimeter == 400.0
        assert walker_position(w, 0.0) == (0.0, 0.0)
        # 36 km/h = 10 m/s: after 5 s the user sits 50 m along the first edge
        assert walker_position(w, 5.0) == (50.0, 0.0)
        # a full lap takes 40 s
        x, y = walker_position(w, 40.0)
        assert (x, y) == pytest.approx((0.0, 0.0))

    # waypoints on a coarse grid, so that legs repeat a point (zero length)
    # and a loop can collapse to one point (zero perimeter)
    @settings(max_examples=60, deadline=None)
    @given(pts=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                        min_size=1, max_size=7),
           scale=st.sampled_from([1.0, 37.5, 0.1]),
           speed=st.floats(2.0, 40.0), slot_s=st.sampled_from([0.25, 1.0, 0.7]),
           start=st.integers(0, 25_000), n=st.integers(0, 200))
    def test_positions_bit_equal_to_position(self, pts, scale, speed, slot_s,
                                             start, n):
        w = netsim.PathWalker([(x * scale, y * scale) for x, y in pts], speed)
        t_s = (start + np.arange(n)) * slot_s
        want = np.array([walker_position(w, t) for t in t_s.tolist()]).reshape(n, 2)
        got = w.positions(t_s)
        assert got.shape == (n, 2)
        assert got.tobytes() == want.tobytes()

    def test_positions_of_a_single_point_loop(self):
        w = netsim.PathWalker([(3.0, -2.0)], 10.0)
        assert w.perimeter == 0.0
        assert w.positions(np.arange(3.0)).tolist() == [[3.0, -2.0]] * 3


def ref_walk(cfg, profiles, t):
    """Slot t's row from the scalar oracles: each user attaches to the BS of
    least `mean_path_loss` at a distance of at least 1 m (the lowest BS
    index on ties), and its `swipe_rate` gives the swipe-arrival probability
    and B."""
    t_s = t * cfg.slot_s
    row = ([], [], [], [])
    for p in profiles:
        x, y = walker_position(netsim.PathWalker(p.waypoints, p.speed_kmh), t_s)
        losses = [mean_path_loss(max(math.hypot(x - bx, y - by), 1.0), cfg.channel)
                  for bx, by in (b.position for b in cfg.base_stations())]
        best = losses.index(min(losses))
        rate = swipe_rate(p.swipe_rate_params, t_s)
        for col, value in zip(row, (
                best, losses[best], 1.0 - math.exp(-rate / 60.0 * cfg.slot_s),
                behavior_of_rate(rate, cfg.users.max_swipe_rate_per_min))):
            col.append(value)
    return row


def assert_row_is_walk(got, want):
    """A row (four per-user columns) equals `ref_walk`'s, bit for bit."""
    assert list(got[0]) == want[0]
    for col, want_col in zip(got[1:], want[1:]):
        assert np.asarray(col).tobytes() == np.array(want_col).tobytes()


def assert_stored_rows_are_walks(cfg, profiles, paths):
    """Every stored row equals `ref_walk`'s, bit for bit."""
    assert paths.span > 0
    for t in range(paths.span):
        assert_row_is_walk((paths.serving_bs[t].tolist(), paths.loss_db[t],
                            paths.arrival[t], paths.behavior[t]),
                           ref_walk(cfg, profiles, t))


def held_bytes(paths):
    """Bytes of the arrays that the table holds, alone or in a tuple or list."""
    held = 0
    for value in vars(paths).values():
        for item in value if isinstance(value, (tuple, list)) else (value,):
            if isinstance(item, np.ndarray):
                held += item.nbytes
    return held


class TestUserPaths:
    @pytest.mark.parametrize("seed", [1, 2, 5, 11])
    @pytest.mark.parametrize("num_bs, slot_s", [(2, 1.0), (3, 0.25)])
    def test_every_stored_row_is_its_walk(self, seed, num_bs, slot_s):
        cfg, state = make_state(seed=seed, num_users=9, sim_duration_s=150,
                                slot_s=slot_s, **{"radio.num_bs": num_bs,
                                                  "radio.bs_x_m": "250, 750, 500",
                                                  "radio.bs_y_m": "500, 500, 900"})
        assert_stored_rows_are_walks(cfg, state.profiles, state.paths)

    def test_every_stored_row_is_its_walk_at_the_edges(self):
        cfg = scenario.parse_overrides({"sim_duration_s": "200"})
        (bx, by), (cx, cy) = (b.position for b in cfg.base_stations())
        mid = ((bx + cx) / 2.0, (by + cy) / 2.0)
        swipe = (6.0, 2.0, 300.0)

        def user(i, waypoints, speed=2.0, params=swipe):
            return scenario.UserProfile(i, waypoints, speed, params, 4.0, 1, (0.5, 0.5))

        users = [
            # crosses BS 0 at walking pace: within 1 m of it (the distance
            # clamp) for a few slots
            user(0, ((bx - 3.0, by), (bx + 3.0, by), (bx - 3.0, by))),
            user(1, ((bx, by),)),  # a single-point loop on BS 0, at 0 m
            user(2, (mid,)),  # equidistant from both BSs: the tie goes to BS 0
            user(3, (mid, (mid[0], mid[1] + 100.0), mid), speed=40.0),
            # swipe amplitude above the mean: the rate is clamped at 0;
            # the -0.0 mean gives builtin max's -0.0 at t = 0
            user(4, ((cx, cy + 10.0),), params=(2.0, 5.0, 60.0)),
            user(5, ((cx + 0.5, cy),), params=(-0.0, -3.0, 45.0)),
            # a rate above the maximum swipe rate: B is clamped at 2
            user(6, ((cx, cy - 40.0), (cx, cy + 40.0), (cx, cy - 40.0)),
                 params=(25.0, 20.0, 90.0)),
        ]
        paths = netsim.UserPaths(cfg, users)
        assert_stored_rows_are_walks(cfg, users, paths)
        assert paths.serving_bs[:, :4].tolist() == [[0] * 4] * paths.span
        # a clamped distance of 1 m loses the reference loss, log10(1) = 0
        assert (paths.loss_db[:, 0] == cfg.channel.ref_loss_db).sum() > 1
        assert (paths.loss_db[:, 1] == cfg.channel.ref_loss_db).all()
        assert paths.arrival[:, 4].min() == 0.0
        assert paths.behavior[:, 6].max() == 2.0

    def test_rows_match_a_fresh_walk_on_each_side_of_the_span(self):
        cfg, state = make_state(num_users=5, sim_duration_s=20)
        paths = state.paths
        assert paths.span == 20
        rows = [paths.row(t) for t in (25, 3, 19, 20, 0)]
        assert rows == [ref_walk(cfg, state.profiles, t) for t in (25, 3, 19, 20, 0)]
        for u in range(5):
            assert paths.behaviors(u, 12, 15).tolist() == [
                ref_walk(cfg, state.profiles, t)[3][u] for t in range(12, 27)]

    @pytest.mark.parametrize("num_bs, slot_s", [(2, 1.0), (3, 0.25)])
    def test_past_span_reads_are_walks(self, num_bs, slot_s):
        cfg, state = make_state(seed=3, num_users=5, sim_duration_s=20, slot_s=slot_s,
                                **{"radio.num_bs": num_bs,
                                   "radio.bs_x_m": "250, 750, 500",
                                   "radio.bs_y_m": "500, 500, 900"})
        paths = state.paths
        span, block = paths.span, 180
        walks = {}

        def walk(t):
            if t not in walks:
                walks[t] = ref_walk(cfg, state.profiles, t)
            return walks[t]

        def check_behaviors(u, t0, n):
            want = [walk(t)[3][u] for t in range(t0, t0 + n)]
            assert paths.behaviors(u, t0, n).tobytes() == np.array(want).tobytes()

        # rows at the span and at the first block's edges, then past it,
        # back into an earlier block and far past the span
        for t in (span, span + block - 1, span + block, span + 5, span - 1,
                  span + 10 * block + 7, span + 2 * block - 1, span + 2 * block + 1):
            assert_row_is_walk(paths.row(t), walk(t))
        # reads that straddle the span or a block edge, and reads longer
        # than a block
        for u, t0, n in ((0, span - 3, 10), (1, span + 2 * block - 2, 5),
                         (2, span + 2 * block - 2, 5), (3, span - 15, 2 * block + 60),
                         (4, span + 3 * block + 11, 2 * block + 1), (0, 0, span + 1)):
            check_behaviors(u, t0, n)
        # a training episode's reads: plan 180 slots ahead, then step the
        # episode (720 slots at 0.25 s, beyond one block)
        episode = int(180 / slot_s)
        for t0 in (span + 7, span + 7 + episode):
            for u in range(5):
                check_behaviors(u, t0, block)
            for t in range(t0, t0 + episode, 7):
                assert_row_is_walk(paths.row(t), walk(t))

    @settings(max_examples=30, deadline=None)
    @given(slot_s=st.sampled_from([0.25, 1.0]),
           reads=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 900),
                                    st.integers(0, 400)), min_size=1, max_size=8))
    def test_reads_in_any_order_are_walks(self, slot_s, reads):
        cfg, state = make_state(seed=3, num_users=5, sim_duration_s=20, slot_s=slot_s)
        paths = state.paths
        for u, t0, n in reads:  # n = 0 reads slot t0's row
            if n:
                want = [ref_walk(cfg, state.profiles, t)[3][u] for t in range(t0, t0 + n)]
                assert paths.behaviors(u, t0, n).tobytes() == np.array(want).tobytes()
            else:
                assert_row_is_walk(paths.row(t0), ref_walk(cfg, state.profiles, t0))

    def test_behaviors_bit_equal_to_the_swipe_rate_on_each_side_of_the_span(self):
        cfg, state = make_state(num_users=6, sim_duration_s=20)
        paths = state.paths
        max_swipe = cfg.users.max_swipe_rate_per_min
        for p in state.profiles:
            want = [behavior_of_rate(swipe_rate(
                p.swipe_rate_params, t * cfg.slot_s), max_swipe) for t in range(8, 35)]
            got = paths.behaviors(p.id, 8, 27)
            assert got.tobytes() == np.array(want).tobytes()

    def test_stored_size_is_span_times_users_times_25_bytes(self):
        cfg, state = make_state(num_users=7, sim_duration_s=30)
        paths = state.paths
        paths.row(100)
        paths.behaviors(3, 25, 50)
        assert paths.span == 30
        stored = sum(col.nbytes for col in (paths.serving_bs, paths.loss_db,
                                            paths.arrival, paths.behavior))
        assert stored == 30 * 7 * 25
        # past the span the table holds at most one block of 180 rows
        for k in range(10):
            paths.row(30 + 180 * k + 7)
            paths.behaviors(k % 7, 30 + 180 * k + 100, 150)
            assert held_bytes(paths) <= (30 + 180) * 7 * 25


def test_one_source_for_the_paths():
    # the world step, the context emulator and the orchestrator read each
    # user's serving BS, path loss, swipe-arrival probability, B and C from
    # the run's path table
    for module in (da1, runner):
        tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
        walks = {"swipe_rate", "behavior_env_trace", "position"}
        assert sorted(loaded_names(tree) & walks) == []
    src = pathlib.Path(netsim.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in src.glob("*.py")}
    assert [m for m, tree in trees.items()
            if m != "netsim" and "complexity_of_speed" in loaded_names(tree)] == []
    # the scalar oracles live in the tests alone, and each is in use there
    here = pathlib.Path(__file__).parent
    oracles = {node.name for node in ast.parse(
        (here / "oracles.py").read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert sorted(oracles & defined) == []
    imported = {alias.name for path in here.glob("test_*.py")
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and node.module == "oracles"
                for alias in node.names}
    assert sorted(oracles - imported) == []
    tree = ast.parse(pathlib.Path(netsim.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    assert "_attach" not in functions
    # the fill is the one derivation of a row
    assert "_walk" not in functions and "_swipe_context" not in functions
    assert "exp" not in loaded_names(functions["advance_slots"])
    # the table is the one per-user store of the serving BS, and what the
    # step measured is returned, not kept on the state
    assert "serving_bs" not in netsim._UserRuntime.__slots__
    cfg, state = make_state(num_users=2)
    assert not hasattr(state, "period_samples")
    tree = ast.parse(pathlib.Path(runner.__file__).read_text(encoding="utf-8"))
    cell_reads = {ast.unparse(node) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("serving_bs", "row")}
    assert cell_reads == {"self.paths.row"}


# -- reference world step ------------------------------------------------------
# The world step as it was before the scalar kernel: numpy draws indexed per
# element, a separate grant-clipping pass and one MOS map per sampled slot.
# The kernel must reproduce it bit for bit.

def loop_pick_tier(rate_budget_bps, cpu_cps, levels_bps, costs_cps):
    """`netsim.pick_tier` as a scan: the last tier that fits both grants."""
    tier = 0
    for i, bitrate in enumerate(levels_bps):
        if bitrate <= rate_budget_bps and costs_cps[i] <= cpu_cps:
            tier = i
    return tier


def ref_pick_tier(state, user, cpu_cps):
    rt = state.runtime[user]
    budget = state.cfg.playback.abr_safety * rt.rate_ewma
    return loop_pick_tier(budget, cpu_cps, state.cfg.catalog.quality_levels_bps,
                          state._costs)


@st.composite
def tier_ladders(draw):
    """A catalog's bitrate and transcode-cost ladders, as `validate_config`
    admits them: strictly increasing positive bitrates, c0 and c1 > 0."""
    levels = tuple(sorted(draw(st.sets(st.floats(1.0, 1e8), min_size=2, max_size=8))))
    cat = scenario.CatalogConfig(
        quality_levels_bps=levels, compute_cost_c0_cps=draw(st.floats(1e-3, 1e10)),
        compute_cost_c1_cps=draw(st.floats(1e-3, 1e10)))
    return levels, [cat.compute_cost_cps(r) for r in levels]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), ladders=tier_ladders())
def test_pick_tier_matches_the_loop_form(data, ladders):
    levels, costs = ladders
    # grants on a rung, between rungs and outside the ladder
    budget = data.draw(st.one_of(st.sampled_from(levels), st.floats(allow_nan=False)))
    cpu = data.draw(st.one_of(st.sampled_from(costs), st.floats(allow_nan=False)))
    assert netsim.pick_tier(budget, cpu, levels, costs) == \
        loop_pick_tier(budget, cpu, levels, costs)


def ref_enforce_caps(state, alloc, serving):
    bw_left = dict(state.bw_caps)
    cpu_left = state.cpu_cap
    out = {}
    for p in state.profiles:
        bw_req, cpu_req = alloc.get(p.id, (0.0, 0.0))
        bs = serving[p.id]
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


def ref_advance_slots(state, orchestrator, n_slots, rng, records=None):
    k = len(state.profiles)
    n_bs = len(state.base_stations)
    cat = state.cfg.catalog
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
    period_samples = []

    for step in range(n_slots):
        t = state.t
        t_s = t * slot
        shadow = rng.normal(0.0, 1.0, (k, n_bs))
        uni = rng.random((k, 2))

        positions = [walker_position(w, t_s) for w in state.paths.walkers]
        pl = np.empty((k, n_bs))
        serving = []  # this step's own cells, not the path table's
        for i, p in enumerate(state.profiles):
            x, y = positions[i]
            for j, bs in enumerate(state.base_stations):
                d = max(math.hypot(x - bs.position[0], y - bs.position[1]), 1.0)
                pl[i, j] = mean_path_loss(d, state.channel)
            serving.append(int(np.argmin(pl[i])))

        alloc = orchestrator(state, step)
        granted = ref_enforce_caps(state, alloc, serving)

        mus = np.empty(k)
        row_cache = []
        for i, p in enumerate(state.profiles):
            rt = state.runtime[i]
            bw, cpu, bs = granted[i]
            snr_db = (state._psd_dbm_hz[bs] - (pl[i, bs] + sigma * shadow[i, bs])
                      - noise)
            snr = 10.0 ** (snr_db / 10.0)
            eff = math.log2(1.0 + snr)
            rate = achievable_rate(bw, snr)
            rt.eff_ewma = 0.9 * rt.eff_ewma + 0.1 * eff
            rt.rate_ewma = 0.8 * rt.rate_ewma + 0.2 * rate

            rate_per_min = swipe_rate(p.swipe_rate_params, t_s)
            p_arrival = 1.0 - math.exp(-rate_per_min / 60.0 * slot)
            if uni[i, 0] < p_arrival:
                rt.buffer = 0.0
                rt.seg_fluid = 0.0
                rt.tier = ref_pick_tier(state, i, cpu)

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
            rt.buffer, rebuf = step_playback(rt.buffer, downloaded, slot, max_buf)
            rt.period_rebuffer += rebuf

            b, c = env_trace(p, t_s, max_swipe, pos_c)
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
                period_samples.append(netsim.PeriodSample(
                    t, i, qoe.FactorSample(float(samples[i]), rb, q, b, c)))
                state.runtime[i].period_rebuffer = 0.0
        state.t += 1
    return period_samples


def _hog(state, t):
    return {p.id: (1e9, 1e12) for p in state.profiles}


class _RandomRequests:
    """Requests up to twice each cap, skipping some users, from its own stream."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def __call__(self, state, t):
        out = {}
        serving = state.paths.row(state.t)[0]
        for p in state.profiles:
            u = self.rng.random(3)
            if u[0] < 0.2:
                continue  # absent users get nothing
            bs = serving[p.id]
            out[p.id] = (2.0 * u[1] * state.bw_caps[bs], 2.0 * u[2] * state.cpu_cap)
        return out


ORCHESTRATORS = {"round_robin": lambda seed: round_robin,
                 "hog": lambda seed: _hog,
                 "random": _RandomRequests}


def _world_state(state):
    runtime = [tuple(getattr(rt, f) for f in netsim._UserRuntime.__slots__)
               for rt in state.runtime]
    return state.t, runtime


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
            # call lengths need not tile the period
            samples = [step(state, orchestrator, n, rng, records) for n in calls]
            results.append((records, samples, _world_state(state), rng.random()))
        assert results[0] == results[1]

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(4, 16), slot_s=st.sampled_from([0.25, 1.0]),
           seed=st.integers(0, 2**16), first=st.integers(0, 60),
           calls=st.lists(st.integers(1, 23), min_size=1, max_size=4))
    def test_table_filled_by_another_state(self, k, slot_s, seed, first, calls):
        # a short span (10 s), so that the walks run past the stored rows
        over = {"num_users": k, "slot_s": slot_s, "sim_duration_s": 10,
                "radio.num_bs": 3, "radio.bs_x_m": "250, 750, 500",
                "radio.bs_y_m": "500, 500, 900"}
        results = []
        for step, warm in ((netsim.advance_slots, False), (netsim.advance_slots, True),
                           (ref_advance_slots, False)):
            cfg, state = make_state(seed=seed, **over)
            if warm:  # another state on the same table walks first
                other = netsim.SimState(cfg, state.profiles, state.paths)
                other.apply_slice(full_slice(cfg))
                netsim.advance_slots(other, _hog, first,
                                     np.random.default_rng(seed + 1))
            state.apply_slice(full_slice(cfg))
            orchestrator = _RandomRequests(seed)
            rng = np.random.default_rng(seed)
            records = []
            # the last call ends past the span
            samples = [step(state, orchestrator, n, rng, records)
                       for n in [*calls, max(state.paths.span + 1 - sum(calls), 1)]]
            results.append((records, samples, _world_state(state), rng.random()))
        assert state.t > state.paths.span
        assert results[0] == results[1] == results[2]

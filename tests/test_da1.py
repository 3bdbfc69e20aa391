import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoesim import da1, learn, netsim, qoe, scenario
from qoesim.errors import ShapeMismatch

from oracles import env_trace

CFG = scenario.ScenarioConfig()
CAT = CFG.catalog


def planning_cfg(headroom=1.3, cpu_headroom=1.0, margin_mos=0.0):
    """The default config at 6 arrivals a minute and 10-second periods,
    with these demand headrooms and noise margin."""
    return dataclasses.replace(
        CFG, arrival_rate_per_min=6.0,
        playback=dataclasses.replace(CFG.playback, eval_period_s=10.0),
        agent=dataclasses.replace(CFG.agent, demand_headroom=headroom,
                                  demand_cpu_headroom=cpu_headroom,
                                  demand_margin_mos=margin_mos))


# the planning config the expected values below were worked out with
PLAN = planning_cfg()


def profile(seed=0):
    return scenario.sample_users(CFG, np.random.default_rng(seed))[0]


def member(user=0, struct=2, ela=4.0, ibar=0.8, eff=2.0):
    """One planned user's constants under the test's demand parameters."""
    return da1.utility_consts(user, struct, ela, ibar, eff, PLAN)


def emulate(p, horizon, rng, noise, t0_slot=0, cfg=CFG):
    """`da1.emulate_context` for the one user `p` on the config's slots (the
    default config's are one second long), swipe ceiling and complexity
    (rising with speed)."""
    return da1.emulate_context(p, netsim.UserPaths(cfg, [p]), horizon, rng,
                               t0_slot=t0_slot, noise=noise)


def solve(mems, bw, cpu, warm_start=None):
    """`da1.user_allocate` run to a tight solve."""
    return da1.user_allocate(mems, bw, cpu, max_iters=500,
                             warm_start=warm_start, tol_step=1e-12)


def group_orch(groups, policy=None, rng=None):
    """An orchestrator over one user per entry of `groups` (a user's group
    is its model structure), and a world state for its state vector.
    Buffers, tiers and last compute grants are drawn from `rng`, or sit
    mid-range without one."""
    models = {u: qoe.QoEModel(g, (0.5, 0.5), 0.1, 30) for u, g in enumerate(groups)}
    orch = da1.Orchestrator(models, policy, PLAN)
    cap = CFG.edge.capacity_cps
    n_tiers = len(CAT.quality_levels_bps)
    if rng is None:
        runtime = [SimpleNamespace(buffer=10.0, tier=n_tiers // 2) for _ in groups]
        orch.cached = {u: (0.0, 0.3 * cap) for u in models}
    else:
        runtime = [SimpleNamespace(buffer=rng.uniform(0, 30),
                                   tier=int(rng.integers(n_tiers))) for _ in groups]
        orch.cached = {u: (0.0, rng.random() * cap / len(groups)) for u in models}
    return orch, SimpleNamespace(runtime=runtime, cpu_cap=cap)


def group_shares(groups, policy=None, rng=None):
    """Per-group (bandwidth, compute) shares of the orchestrator's actions."""
    orch, state = group_orch(groups, policy, rng)
    return da1.shares_from_actions(orch.actions(state), sorted(set(groups)))


class TestEmulateContext:
    def test_zero_noise_matches_analytic_process(self):
        p = profile(1)
        traj = emulate(p, 50, np.random.default_rng(0), noise=0.0)
        for i in range(50):
            b, c = env_trace(p, float(i), CFG.users.max_swipe_rate_per_min, True)
            assert traj[i, 0] == b and traj[i, 1] == c

    def test_horizon_one_consistent_with_netsim(self):
        p = profile(2)
        traj = emulate(p, 1, np.random.default_rng(0), t0_slot=17, noise=0.0)
        assert tuple(traj[0]) == env_trace(p, 17.0, CFG.users.max_swipe_rate_per_min,
                                           True)

    @pytest.mark.parametrize("t0", [0, 45, 100], ids=["stored", "across", "past"])
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_bit_equal_to_the_slot_by_slot_trace(self, t0, noise):
        # the path table stores 60 slots here: a horizon from t0 = 45 runs past
        # them, and one from t0 = 100 lies wholly beyond
        cfg = dataclasses.replace(CFG, sim_duration_s=60.0)
        max_swipe = cfg.users.max_swipe_rate_per_min
        for seed in range(8):
            p = profile(seed)
            want = np.array([env_trace(p, (t0 + i) * cfg.slot_s, max_swipe, True)
                             for i in range(30)], dtype=float).reshape(30, 2)
            rng = np.random.default_rng(seed)
            if noise > 0.0:
                want += rng.uniform(-noise, noise, want.shape)
                np.clip(want, 1.0, 2.0, out=want)
            rng_got = np.random.default_rng(seed)
            got = emulate(p, 30, rng_got, noise=noise, t0_slot=t0, cfg=cfg)
            assert got.tobytes() == want.tobytes()
            assert rng_got.random() == rng.random()

    def test_noise_bounded_and_small_error(self):
        p = profile(3)
        noise = 0.05
        errs = []
        for seed in range(100):
            traj = emulate(p, 30, np.random.default_rng(seed), noise=noise)
            assert traj.min() >= 1.0 and traj.max() <= 2.0
            truth = emulate(p, 30, np.random.default_rng(0), noise=0.0)
            errs.append(np.abs(traj - truth).mean())
        assert np.mean(errs) < noise


class TestPredictDemand:
    def _demand(self, struct, ela, ibar_ctx=1.0, eff=2.0, alpha=0.0, beta=0.0):
        model = qoe.QoEModel(struct, (alpha, beta), 0.1, 100)
        i_bar = da1.mean_impact(model, np.full((60, 2), ibar_ctx))
        return da1.predict_demand(struct, ela, i_bar, eff, PLAN, user=-1)

    def test_mos_floor_gives_min_tier(self):
        d = self._demand(2, 1.0)
        assert d.feasible
        assert d.compute_cps == CAT.compute_cost_cps(CAT.min_bitrate)
        assert d.bandwidth_hz == pytest.approx(1.3 * CAT.min_bitrate / 2.0)

    def test_structure2_neutral_ela3_needs_1p75mbps(self):
        d = self._demand(2, 3.0)
        # Q* = 0.5 -> bitrate >= 1.75 Mbps; lowest tier above is 2.0 Mbps
        tier = d.bandwidth_hz * 2.0 / 1.3
        assert tier == pytest.approx(2e6)
        assert tier >= 1.75e6
        assert d.compute_cps == pytest.approx(CAT.compute_cost_cps(2e6))

    def test_exhaustive_tier_scan_oracle(self):
        # independent route: evaluate predicted window QoE per tier directly
        rng = np.random.default_rng(4)
        for _ in range(30):
            struct = int(rng.integers(1, 4))
            model = qoe.QoEModel(struct, (rng.uniform(0, 1), rng.uniform(0, 1)), 0.1, 50)
            traj = rng.uniform(1, 2, (40, 2))
            ela = rng.uniform(3, 5)
            ibar = da1.mean_impact(model, traj)
            d = da1.predict_demand(struct, ela, ibar, 2.0, PLAN, user=-1)
            achievable = []
            for r in CAT.quality_levels_bps:
                e = qoe.qos_score(struct, 0.0, CAT.quality_of(r)) * ibar
                achievable.append((r, e))
            ok_tiers = [r for r, e in achievable if e >= ela - 1e-9]
            if ok_tiers:
                assert d.feasible
                # demanded compute identifies the chosen tier: cheapest feasible
                assert d.compute_cps == pytest.approx(CAT.compute_cost_cps(min(ok_tiers)))
            else:
                assert not d.feasible
                assert d.compute_cps == pytest.approx(CAT.compute_cost_cps(CAT.max_bitrate))

    def test_unreachable_ela_flags_infeasible(self):
        d = self._demand(2, 4.0, ibar_ctx=2.0, alpha=1.0, beta=1.0)  # I = 1/3
        assert not d.feasible
        assert d.compute_cps == pytest.approx(CAT.compute_cost_cps(CAT.max_bitrate))

    def test_monotone_in_ela_and_impact(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            struct = int(rng.integers(1, 4))
            alpha, beta = rng.uniform(0.2, 1.0, 2)
            model = qoe.QoEModel(struct, (alpha, beta), 0.1, 50)
            traj = rng.uniform(1, 2, (30, 2))
            elas = np.sort(rng.uniform(1, 5, 4))
            ibar = da1.mean_impact(model, traj)
            bws = [da1.predict_demand(struct, e, ibar, 2.0, PLAN,
                                      user=-1).bandwidth_hz for e in elas]
            assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(bws, bws[1:]))
            # shrinking the impact factor (harsher context) never lowers demand
            harsher = np.clip(traj + 0.4, 1, 2)
            d_soft = da1.predict_demand(struct, 4.0, ibar, 2.0, PLAN, user=-1)
            d_hard = da1.predict_demand(struct, 4.0, da1.mean_impact(model, harsher),
                                        2.0, PLAN, user=-1)
            assert d_hard.bandwidth_hz >= d_soft.bandwidth_hz - 1e-9


class TestClusterUsers:
    def test_single_structure(self):
        models = {i: qoe.QoEModel(1, (0.1, 0.1), 0.1, 30) for i in range(4)}
        assert da1.cluster_users(models) == {1: [0, 1, 2, 3]}

    def test_mixed_partition(self):
        structs = {1: 1, 2: 2, 3: 3, 4: 1}
        models = {u: qoe.QoEModel(s, (0.1, 0.1), 0.1, 30) for u, s in structs.items()}
        assert da1.cluster_users(models) == {1: [1, 4], 2: [2], 3: [3]}

    def test_empty(self):
        assert da1.cluster_users({}) == {}

    def test_partition_property(self):
        rng = np.random.default_rng(6)
        models = {u: qoe.QoEModel(int(rng.integers(1, 4)), (0.1, 0.1), 0.1, 30)
                  for u in range(40)}
        groups = da1.cluster_users(models)
        seen = [u for members in groups.values() for u in members]
        assert sorted(seen) == sorted(models)


class TestGroupAllocate:
    """The group level: the orchestrator's actions decoded to group shares."""

    def test_single_group_full_shares(self):
        assert group_shares([2]) == {2: (1.0, 1.0)}

    def test_zero_policy_equal_shares(self):
        net = learn.BdqNetwork(18, (8,), 6, da1.SHARE_LEVELS, rng=None)
        shares = group_shares([1, 2, 3], net)
        for g in (1, 2, 3):
            assert shares[g] == (pytest.approx(1 / 3), pytest.approx(1 / 3))

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(7)
        net = learn.BdqNetwork(18, (16,), 6, da1.SHARE_LEVELS, rng=rng)
        for _ in range(20):
            groups = [g for g in (1, 2, 3) if rng.random() < 0.8] or [1]
            groups *= int(rng.integers(1, 3))  # one or two users per group
            shares = group_shares(groups, net, rng)
            for res in (0, 1):
                assert sum(s[res] for s in shares.values()) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        net = learn.BdqNetwork(7, (8,), 6, 11, rng=None)
        with pytest.raises(ShapeMismatch):
            group_shares([1], net)

    def test_absent_group_block_is_zero(self):
        width = da1.GROUP_STATE_FEATURES
        orch, state = group_orch([3, 1, 3], rng=np.random.default_rng(11))
        vec = orch.state_vector(state)
        assert vec.shape == (len(da1.GROUPS) * width,)
        assert vec[width:2 * width].tolist() == [0.0] * width  # group 2
        assert vec[3:width].tolist() == [1.0, 0.0, 0.0]
        assert vec[2 * width + 3:].tolist() == [0.0, 0.0, 1.0]
        assert vec[:3].any() and vec[2 * width:2 * width + 3].any()

    def test_trained_policy_prefers_dominant_group(self):
        # synthetic two-group game: group 2's shares are twice as valuable
        class ShareEnv:
            def __init__(self):
                orch, state = group_orch([1, 2])
                self.vec = orch.state_vector(state)

            def reset(self):
                return self.vec

            def step(self, actions):
                shares = da1.shares_from_actions(actions, [1, 2])
                reward = sum(2.0 * shares[2][r] + 0.5 * shares[1][r] for r in (0, 1))
                return self.vec, reward, True

        rng = np.random.default_rng(8)
        hp = learn.Hyperparams(episodes=800, max_steps=1, lr=0.02,
                               gamma=0.0, eps_start=1.0, eps_end=0.05,
                               eps_decay_steps=600, batch_size=32,
                               replay_capacity=10_000, target_sync=50)
        net = learn.BdqNetwork(18, (32,), 6, da1.SHARE_LEVELS, rng=rng)
        learn.train_episodes(ShareEnv(), net, hp, rng)
        shares = group_shares([1, 2], net)
        assert shares[2][0] > shares[1][0]
        assert shares[2][1] > shares[1][1]


class TestUserAllocate:
    def test_single_user_gets_everything(self):
        alloc, rep = solve([member()], 4e6, 8e8)
        assert alloc[0] == (pytest.approx(4e6), pytest.approx(8e8))
        assert rep.converged

    def test_identical_users_split_equally(self):
        mems = [member(user=i) for i in range(2)]
        alloc, rep = solve(mems, 6e6, 1e9)
        assert alloc[0][0] == pytest.approx(alloc[1][0], abs=1e-6 * 6e6)
        assert alloc[0][1] == pytest.approx(alloc[1][1], abs=1e-6 * 1e9)

    def test_budgets_and_nonnegativity(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            mems = [member(user=i, struct=int(rng.integers(1, 4)),
                           ela=rng.uniform(3, 5), ibar=rng.uniform(0.4, 1.0),
                           eff=rng.uniform(0.3, 6.0)) for i in range(n)]
            bw, cpu = rng.uniform(1e5, 2e7), rng.uniform(1e8, 5e9)
            alloc, rep = solve(mems, bw, cpu)
            assert sum(a[0] for a in alloc.values()) <= bw * (1 + 1e-9)
            assert sum(a[1] for a in alloc.values()) <= cpu * (1 + 1e-9)
            assert all(a[0] >= 0 and a[1] >= 0 for a in alloc.values())
            if rep.converged:
                assert rep.kkt_residual < 1e-3

    def test_grid_search_oracle_two_users(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            mems = [member(user=i, struct=int(rng.integers(1, 4)),
                           ela=rng.uniform(3, 5), ibar=rng.uniform(0.4, 1.0),
                           eff=rng.uniform(0.5, 4.0)) for i in range(2)]
            bw, cpu = rng.uniform(5e5, 1e7), rng.uniform(2e8, 2e9)
            alloc, rep = solve(mems, bw, cpu)
            c0, c1 = mems
            best = -np.inf
            fracs = np.linspace(0, 1, 101)
            for fb in fracs:
                for fc in fracs:
                    val = (da1.utility_value_grad(c0, fb * bw, fc * cpu)[0]
                           + da1.utility_value_grad(c1, (1 - fb) * bw,
                                                    (1 - fc) * cpu)[0])
                    best = max(best, val)
            assert rep.objective >= best - 1e-3 * abs(best)

    def test_zero_budget(self):
        alloc, rep = solve([member()], 0.0, 0.0)
        assert alloc[0] == (0.0, 0.0)
        assert rep.converged

    def test_warm_start_converges_fast(self):
        mems = [member(user=i, ela=3 + i * 0.5) for i in range(3)]
        alloc, cold = solve(mems, 5e6, 1e9)
        _, warm = solve(mems, 5e6, 1e9, warm_start=alloc)
        assert warm.iterations <= max(cold.iterations // 2, 10)
        assert warm.objective >= cold.objective - 1e-9


# --- numpy reference of the planning utility and the projection ---------------
# The array formulation the scalar kernel replaced; kept here as an
# independent route to the same objective.

def _ref_softplus(x, tau):
    return tau * (np.log1p(np.exp(-np.abs(x / tau))) + np.maximum(x / tau, 0.0))


def _ref_smooth_cap1(x, tau=da1._CORNER_TAU):
    val = 1.0 - _ref_softplus(1.0 - x, tau)
    z = np.clip((1.0 - x) / tau, -60, 60)
    return val, 1.0 / (1.0 + np.exp(-z))


def _ref_smooth_min(a, b, tau=da1._CORNER_TAU):
    lo = np.minimum(a, b)
    wa = np.exp(-(a - lo) / tau)
    wb = np.exp(-(b - lo) / tau)
    tot = wa + wb
    return lo - tau * np.log(0.5 * tot), wa / tot, wb / tot


def ref_value_grad(members, bw, cpu):
    """Per-user utilities and (bw, cpu) gradients over arrays of the
    members' `UtilityConsts` fields."""
    (_, struct, ibar, ela, shortfall_w, eff, r_lo, r_span, c0, c1, hb, hc,
     stall_bits, stall_floor) = map(np.array, zip(*members))
    is_q, has_stall = struct != 1, struct != 2

    q_bw, dclip_bw = _ref_smooth_cap1((eff * bw / hb - r_lo) / r_span)
    q_cpu, dclip_cpu = _ref_smooth_cap1((cpu / hc - c0) / c1)
    q_join, w_bw, w_cpu = _ref_smooth_min(q_bw, q_cpu)
    dq_bw = w_bw * dclip_bw * eff / (hb * r_span)
    dq_cpu = w_cpu * dclip_cpu / (hc * c1)
    service, v_bw, v_cpu = _ref_smooth_min(eff * bw / r_lo, cpu * r_lo / c0 / r_lo)
    denom = service * r_lo + stall_floor
    stall = stall_bits / denom
    dserv = -stall_bits / denom ** 2
    dstall_bw = dserv * v_bw * eff
    dstall_cpu = dserv * v_cpu * r_lo / c0

    s = np.where(struct == 1, qoe.MOS_HI, 1.0 + qoe.QUALITY_SLOPE * q_join)
    ds_bw = np.where(is_q, qoe.QUALITY_SLOPE * dq_bw, 0.0)
    ds_cpu = np.where(is_q, qoe.QUALITY_SLOPE * dq_cpu, 0.0)
    s = s - np.where(has_stall, qoe.REBUFFER_SLOPE * stall, 0.0)
    ds_bw = ds_bw - np.where(has_stall, qoe.REBUFFER_SLOPE * dstall_bw, 0.0)
    ds_cpu = ds_cpu - np.where(has_stall, qoe.REBUFFER_SLOPE * dstall_cpu, 0.0)

    e = ibar * s
    z = (ela - e) / da1._HINGE_TAU
    sig = 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))
    soft = da1._HINGE_TAU * np.log1p(np.exp(-np.abs(z))) + np.maximum(ela - e, 0.0)
    util = e - shortfall_w * soft + 0.02 * (q_bw + q_cpu)
    scale = 1.0 + shortfall_w * sig
    gb = ibar * ds_bw * scale + 0.02 * dclip_bw * eff / (hb * r_span)
    gc = ibar * ds_cpu * scale + 0.02 * dclip_cpu / (hc * c1)
    return util, gb, gc


def ref_project_capped_simplex(x):
    x = np.asarray(x, dtype=float)
    clipped = np.maximum(x, 0.0)
    if clipped.sum() <= 1.0:
        return clipped
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, x.size + 1)
    rho = ind[u - css / ind > 0][-1]
    return np.maximum(x - css[rho - 1] / rho, 0.0)


params_st = st.builds(planning_cfg, headroom=st.floats(1.0, 2.0),
                      cpu_headroom=st.floats(1.0, 2.0),
                      margin_mos=st.floats(0.0, 0.5))
member_args_st = st.fixed_dictionaries(dict(
    user=st.just(0),
    structure_index=st.integers(1, 3),
    ela=st.floats(3.0, 5.0),
    mean_impact=st.floats(0.2, 1.0),
    eff_bps_per_hz=st.floats(1e-4, 8.0)))
members_st = st.lists(st.builds(lambda kw, cfg: da1.utility_consts(**kw, cfg=cfg),
                                member_args_st, params_st),
    min_size=1, max_size=7)
bw_st = st.floats(0.0, 3e7)
cpu_st = st.floats(0.0, 6e9)


def ref_utility_value_grad(c, bw, cpu):
    """The kernel as it was before `_cap1` and `_softmin` were inlined."""
    (_, struct, ibar, ela, shortfall_w, eff, r_lo, r_span, c0, c1,
     bw_headroom, cpu_headroom, stall_bits, stall_floor) = c
    bw_den = bw_headroom * r_span
    cpu_den = cpu_headroom * c1
    q_bw, dclip_bw = da1._cap1((eff * bw / bw_headroom - r_lo) / r_span)
    q_cpu, dclip_cpu = da1._cap1((cpu / cpu_headroom - c0) / c1)
    s = qoe.MOS_HI
    ds_bw = ds_cpu = 0.0
    if struct != 1:
        q_join, w_bw, w_cpu = da1._softmin(q_bw, q_cpu)
        s = 1.0 + qoe.QUALITY_SLOPE * q_join
        ds_bw = qoe.QUALITY_SLOPE * (w_bw * dclip_bw * eff / bw_den)
        ds_cpu = qoe.QUALITY_SLOPE * (w_cpu * dclip_cpu / cpu_den)
    if struct != 2:
        service, v_bw, v_cpu = da1._softmin(eff * bw / r_lo, cpu * r_lo / c0 / r_lo)
        denom = service * r_lo + stall_floor
        dserv = -stall_bits / (denom * denom)
        s -= qoe.REBUFFER_SLOPE * (stall_bits / denom)
        ds_bw -= qoe.REBUFFER_SLOPE * (dserv * v_bw * eff)
        ds_cpu -= qoe.REBUFFER_SLOPE * (dserv * v_cpu * r_lo / c0)
    e = ibar * s
    z = (ela - e) / da1._HINGE_TAU
    sig = 1.0 / (1.0 + math.exp(-min(max(z, -60.0), 60.0)))
    soft = da1._HINGE_TAU * math.log1p(math.exp(-abs(z))) + max(ela - e, 0.0)
    scale = 1.0 + shortfall_w * sig
    value = e - shortfall_w * soft + 0.02 * (q_bw + q_cpu)
    d_bw = ibar * ds_bw * scale + 0.02 * dclip_bw * eff / bw_den
    d_cpu = ibar * ds_cpu * scale + 0.02 * dclip_cpu / cpu_den
    return value, d_bw, d_cpu


class TestUtilityKernel:
    @settings(max_examples=200, deadline=None)
    @given(member_args_st, params_st)
    def test_consts_of_one_user(self, kw, cfg):
        # the constants that the numpy reference takes as given
        c = da1.utility_consts(**kw, cfg=cfg)
        ibar = kw["mean_impact"]
        ela = kw["ela"] + cfg.agent.demand_margin_mos
        arrivals = cfg.arrival_rate_per_min / 60.0 * cfg.playback.eval_period_s
        stall_bits = arrivals * CAT.segment_duration_s * CAT.min_bitrate
        assert c == (kw["user"], kw["structure_index"], ibar, ela,
                     da1.SHORTFALL_WEIGHT if ela <= qoe.MOS_HI * ibar + 1e-9 else 0.0,
                     max(kw["eff_bps_per_hz"], 1e-3), CAT.min_bitrate,
                     CAT.max_bitrate - CAT.min_bitrate, CAT.compute_cost_c0_cps,
                     CAT.compute_cost_c1_cps, cfg.agent.demand_headroom,
                     cfg.agent.demand_cpu_headroom, stall_bits,
                     stall_bits / cfg.playback.eval_period_s)

    @settings(max_examples=600, deadline=None)
    @given(members_st, st.sampled_from(["raw", "corner", "tie"]), st.data())
    def test_bit_identical_to_helper_kernel(self, mems, mode, data):
        c = mems[0]
        if mode == "raw":  # anywhere, including the saturated ends
            bw = data.draw(bw_st | st.sampled_from([0.0, 1e-300, 1e12]))
            cpu = data.draw(cpu_st | st.sampled_from([0.0, 1e-300, 1e15]))
        elif mode == "corner":  # both quality supports near their rounded cap
            bw = ((data.draw(st.floats(0.8, 1.2)) * c.r_span + c.r_lo)
                  * c.bw_headroom / c.eff)
            cpu = (data.draw(st.floats(0.8, 1.2)) * c.c1 + c.c0) * c.cpu_headroom
        else:  # radio and transcoder service rates near a tie
            bw = data.draw(bw_st)
            cpu = max(c.c0 * (c.eff * bw / c.r_lo + data.draw(st.floats(-0.1, 0.1))), 0.0)
        assert da1.utility_value_grad(c, bw, cpu) == ref_utility_value_grad(c, bw, cpu)

    @settings(max_examples=300, deadline=None)
    @given(members_st, st.data())
    def test_matches_numpy_reference(self, mems, data):
        bws = data.draw(st.lists(bw_st, min_size=len(mems), max_size=len(mems)))
        cpus = data.draw(st.lists(cpu_st, min_size=len(mems), max_size=len(mems)))
        util, gb, gc = ref_value_grad(mems, np.array(bws), np.array(cpus))
        for i, c in enumerate(mems):
            got = da1.utility_value_grad(c, bws[i], cpus[i])
            for a, b in zip(got, (util[i], gb[i], gc[i])):
                assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(members_st, bw_st, cpu_st)
    def test_gradient_matches_central_differences(self, mems, bw, cpu):
        c = mems[0]
        _, d_bw, d_cpu = da1.utility_value_grad(c, bw, cpu)
        # steps of 1e-5 in normalized quality units; the corner rounding
        # (tau = 0.02) keeps the third derivative small at that scale
        unit_bw = c.eff / (c.bw_headroom * c.r_span)
        unit_cpu = 1.0 / (c.cpu_headroom * c.c1)
        h_bw, h_cpu = 1e-5 / unit_bw, 1e-5 / unit_cpu
        fd_bw = (da1.utility_value_grad(c, bw + h_bw, cpu)[0]
                 - da1.utility_value_grad(c, bw - h_bw, cpu)[0]) / (2 * h_bw)
        fd_cpu = (da1.utility_value_grad(c, bw, cpu + h_cpu)[0]
                  - da1.utility_value_grad(c, bw, cpu - h_cpu)[0]) / (2 * h_cpu)
        assert fd_bw == pytest.approx(d_bw, rel=1e-4, abs=1e-6 * unit_bw)
        assert fd_cpu == pytest.approx(d_cpu, rel=1e-4, abs=1e-6 * unit_cpu)

    @settings(max_examples=200, deadline=None)
    @given(members_st, bw_st, cpu_st)
    def test_planning_qoe_matches_reference_terms(self, mems, bw, cpu):
        # planning QoE: same quality support, hard min of the stall service
        c = mems[0]
        q_bw = _ref_smooth_cap1(np.array((c.eff * bw / c.bw_headroom - c.r_lo) / c.r_span))[0]
        q_cpu = _ref_smooth_cap1(np.array((cpu / c.cpu_headroom - c.c0) / c.c1))[0]
        q_join = float(_ref_smooth_min(q_bw, q_cpu)[0])
        stall = c.stall_bits / (min(c.eff * bw, cpu * c.r_lo / c.c0) + c.stall_floor)
        s = {1: qoe.MOS_HI - qoe.REBUFFER_SLOPE * stall,
             2: 1.0 + qoe.QUALITY_SLOPE * q_join,
             3: 1.0 + qoe.QUALITY_SLOPE * q_join - qoe.REBUFFER_SLOPE * stall}
        assert math.isclose(da1.planning_qoe(c, bw, cpu),
                             c.ibar * s[c.struct], rel_tol=1e-12)


class TestProjectCappedSimplex:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=9))
    def test_matches_numpy_reference(self, x):
        got = da1.project_capped_simplex(x)
        assert got == pytest.approx(list(ref_project_capped_simplex(x)),
                                    rel=1e-12, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=9))
    def test_feasible_and_idempotent(self, x):
        p = da1.project_capped_simplex(x)
        assert min(p) >= 0.0 and sum(p) <= 1.0 + 1e-12
        assert da1.project_capped_simplex(p) == pytest.approx(p, abs=1e-12)

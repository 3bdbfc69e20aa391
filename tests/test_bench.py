import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoesim import bench, da1, da2, learn, netsim, qoe, scenario
from qoesim.bench import SchemeId
from qoesim.errors import ShapeMismatch

from test_da1 import PLAN

CFG = scenario.ScenarioConfig()


def still_users_state(xs, bw_caps, cpu_cap):
    """A state whose user u stands still at (xs[u], 500): next to BS 0 (at
    x = 250) or BS 1 (at x = 750).  The state's caps are bw_caps and cpu_cap."""
    cfg = scenario.ScenarioConfig(num_users=len(xs), preset_mode="free",
                                  sim_duration_s=10.0)
    profiles = [scenario.UserProfile(u, ((x, 500.0), (x, 500.0)), 2.0,
                                     (6.0, 1.0, 300.0), 4.0, 3, (0.5, 0.5))
                for u, x in enumerate(xs)]
    state = netsim.SimState(cfg, profiles, netsim.UserPaths(cfg, profiles))
    state.bw_caps = dict(enumerate(bw_caps))
    state.cpu_cap = cpu_cap
    return state


class TestRoundRobinAllocate:
    def test_equal_division(self):
        state = still_users_state([240.0, 260.0, 740.0, 760.0, 255.0], (9e6, 8e6), 10e9)
        assert netsim.users_by_bs(state, range(5)) == {0: [0, 1, 4], 1: [2, 3]}
        out = bench.RoundRobinOrchestrator()(state, 0)
        assert out == {0: (3e6, 2e9), 1: (3e6, 2e9), 4: (3e6, 2e9),
                       2: (4e6, 2e9), 3: (4e6, 2e9)}

    def test_single_user_full_budget(self):
        state = still_users_state([250.0, 260.0, 750.0], (8e6, 5e6), 9e9)
        out = bench.RoundRobinOrchestrator()(state, 0)
        assert out[2] == (5e6, 3e9)

    def test_permutation_equivariance(self):
        state = still_users_state([740.0, 240.0, 260.0, 760.0], (9e6, 8e6), 6e9)
        a = bench.RoundRobinOrchestrator()(state, 0)
        state.profiles = state.profiles[::-1]
        b = bench.RoundRobinOrchestrator()(state, 0)
        assert a == b


class TestSchemeId:
    def test_exhaustive_values(self):
        assert {s.value for s in SchemeId} == {"proposed", "wo-da", "pdrl-l1",
                                               "hsla-l2"}

    def test_every_scheme_has_a_spec(self):
        assert set(bench.SPECS) == set(SchemeId)
        assert bench.SPECS[SchemeId.HSLA_L2] is bench.HSLA_L2

    def test_a_policy_orchestrator_trains(self):
        assert [bench.SPECS[s].learned for s in SchemeId] == [True, False, True, True]


class TestWoDaDemands:
    def test_homogeneous_population_matches_per_user_model(self):
        # users identical to the generic model: per-user prediction and the
        # generic-model demand agree exactly
        mean = 0.5 * (CFG.users.impact_min + CFG.users.impact_max)
        model = qoe.QoEModel(3, (mean, mean), 0.5, 0)
        i_bar = da1.mean_impact(model, np.full((10, 2), 1.5))
        elas = {u: 3.4 for u in range(4)}
        # the rule reads neither the users' impacts nor their own
        # efficiencies, only the efficiencies' mean (2.0)
        generic = bench.wo_da_demands(
            dict.fromkeys(elas, model), elas, dict.fromkeys(elas, 1.0),
            dict(zip(elas, (1.0, 3.0, 1.5, 2.5))), PLAN)
        for u in elas:
            mine = da1.predict_demand(3, elas[u], i_bar, 2.0, PLAN, user=u)
            assert generic[u].bandwidth_hz == pytest.approx(mine.bandwidth_hz)
            assert generic[u].compute_cps == pytest.approx(mine.compute_cps)
            assert generic[u].feasible == mine.feasible


def one_user(rule, model, ela, trajectory, eff_bps_per_hz):
    """A demand rule's demand for one user (id -1) whose window-mean impact
    is the model's over the trajectory."""
    return rule({-1: model}, {-1: ela}, {-1: da1.mean_impact(model, trajectory)},
                {-1: eff_bps_per_hz}, PLAN)[-1]


class TestHslaDemand:
    def test_neutral_context_equals_proposed(self):
        # with B = C = 1 the impact factor is 1, so QoS-only and QoE-based
        # demand estimation coincide
        model = qoe.QoEModel(2, (0.7, 0.4), 0.2, 100)
        traj = np.ones((20, 2))
        for ela in (3.0, 3.7, 4.4):
            mine = one_user(bench.ela_demands, model, ela, traj, 2.0)
            sla = one_user(bench.hsla_demands, model, ela, traj, 2.0)
            assert sla.bandwidth_hz == pytest.approx(mine.bandwidth_hz)
            assert sla.compute_cps == pytest.approx(mine.compute_cps)

    def test_harsh_context_under_reserves(self):
        # I = 1/3: the QoE-aware route wants max quality, the SLA route only
        # covers the bare QoS threshold
        model = qoe.QoEModel(2, (1.0, 1.0), 0.2, 100)
        traj = np.full((20, 2), 2.0)
        mine = one_user(bench.ela_demands, model, 4.0, traj, 2.0)
        sla = one_user(bench.hsla_demands, model, 4.0, traj, 2.0)
        assert not mine.feasible
        assert sla.feasible
        assert sla.compute_cps < mine.compute_cps
        assert sla.bandwidth_hz < mine.bandwidth_hz


# The demand rules as they were when `da1.predict_demand` took a model and
# a trace: the reference that the impact-taking rules are held to.
def _old_predict_demand(model, ela, trajectory, eff, cfg, user):
    return da1.predict_demand(model.structure_index, ela,
                              da1.mean_impact(model, trajectory), eff, cfg, user=user)


def _old_ela_demands(models, elas, traces, effs, cfg):
    return {u: _old_predict_demand(models[u], elas[u], traces[u], effs[u], cfg, user=u)
            for u in elas}


def _old_wo_da_demands(models, elas, traces, effs, cfg):
    mean_eff = float(np.mean(list(effs.values())))
    return _old_ela_demands(models, elas, dict.fromkeys(elas, np.full((8, 2), 1.5)),
                            dict.fromkeys(elas, mean_eff), cfg)


def _old_hsla_demands(models, elas, traces, effs, cfg):
    qos_only = {u: dataclasses.replace(m, impact_params=(0.0, 0.0))
                for u, m in models.items()}
    return _old_ela_demands(qos_only, elas, traces, effs, cfg)


unit_st = st.floats(1.0, 2.0)
user_st = st.tuples(
    st.builds(qoe.QoEModel, st.integers(1, 3),
              st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
              st.just(0.2), st.just(50)),
    st.floats(1.0, 5.0),                                # ELA
    st.lists(st.tuples(unit_st, unit_st), min_size=1, max_size=40),  # (B, C)
    st.floats(0.0, 8.0))                                # efficiency


def demand_bits(demands):
    return {u: (d.user, d.bandwidth_hz.hex(), d.compute_cps.hex(), d.feasible)
            for u, d in demands.items()}


@pytest.mark.parametrize("rule, reference", [
    (bench.ela_demands, _old_ela_demands),
    (bench.wo_da_demands, _old_wo_da_demands),
    (bench.hsla_demands, _old_hsla_demands)], ids=lambda f: f.__name__)
@settings(max_examples=150, deadline=None)
@given(users=st.lists(user_st, min_size=1, max_size=6))
def test_demand_rule_matches_its_trace_reference(rule, reference, users):
    # each rule reads the window-mean impacts; its reference derives them
    # from a model and a trace, as the rules once did
    models = {u: m for u, (m, _, _, _) in enumerate(users)}
    elas = {u: ela for u, (_, ela, _, _) in enumerate(users)}
    traces = {u: np.array(tr) for u, (_, _, tr, _) in enumerate(users)}
    effs = {u: eff for u, (_, _, _, eff) in enumerate(users)}
    i_bars = {u: da1.mean_impact(models[u], traces[u]) for u in models}
    assert (demand_bits(rule(models, elas, i_bars, effs, PLAN))
            == demand_bits(reference(models, elas, traces, effs, PLAN)))


def mixed_models(k):
    return {u: qoe.QoEModel(1 + u % 3, (0.5, 0.5), 0.2, 50) for u in range(k)}


def world(k):
    cfg = scenario.parse_overrides({"num_users": str(k), "preset_mode": "free"})
    profiles = scenario.sample_users(cfg, np.random.default_rng(0))
    return cfg, netsim.SimState(cfg, profiles, netsim.UserPaths(cfg, profiles))


class TestPdrlOrchestrator:
    def test_zero_policy_uniform_shares(self):
        k = 6
        cfg, state = world(k)
        orch = bench.PdrlOrchestrator(mixed_models(k), None, cfg)
        alloc = orch(state, 0)
        by_bs = {}
        for u, bs in enumerate(state.paths.row(state.t)[0]):
            by_bs.setdefault(bs, []).append(u)
        for bs, users in by_bs.items():
            expect = state.bw_caps[bs] / len(users)
            for u in users:
                assert alloc[u][0] == pytest.approx(expect)
        for u in range(k):
            assert alloc[u][1] == pytest.approx(state.cpu_cap / k)

    def test_shape_mismatch_on_user_count_change(self):
        k = 6
        cfg, _ = world(k)
        rng = np.random.default_rng(1)
        policy = learn.BdqNetwork(bench.PDRL_USER_FEATURES * 4, (8,), 8,
                                  da1.SHARE_LEVELS, rng=rng)
        with pytest.raises(ShapeMismatch):
            bench.PdrlOrchestrator(mixed_models(k), policy, cfg)

    def test_shape_mismatch_on_action_count(self):
        # a checkpoint with more share levels would decode to shares above 1
        k = 6
        cfg, _ = world(k)
        policy = learn.BdqNetwork(bench.PDRL_USER_FEATURES * k, (8,), 2 * k,
                                  da1.SHARE_LEVELS + 1, rng=np.random.default_rng(1))
        with pytest.raises(ShapeMismatch):
            bench.PdrlOrchestrator(mixed_models(k), policy, cfg)

    def test_reward_definition_shared_with_proposed(self, monkeypatch):
        # both learned schemes train in one environment, which scores every
        # epoch with da1.epoch_reward
        from qoesim import runner
        rewards = []
        real = da1.epoch_reward

        def spy(*args):
            out = real(*args)
            rewards.append(out)
            return out

        monkeypatch.setattr(da1, "epoch_reward", spy)
        cfg = scenario.parse_overrides({"agent.bootstrap_minutes": "2",
                                        "train.epochs": "18"})  # one episode
        for scheme in (SchemeId.PROPOSED, SchemeId.PDRL_L1):
            rewards.clear()
            sr = runner.SchemeRun(cfg, scheme, 1)
            rng = np.random.default_rng(0)
            state, samples = sr.bootstrap(rng)
            sr.fit_models(samples)
            sr.train_policies(state, rng)
            assert len(rewards) == 18
            assert sr.reward_curve == [float(np.mean(rewards))]


class TestLearnedOrchestrators:
    def _orchestrator(self, scheme, policy, cfg, models):
        return bench.SPECS[scheme].orchestrator(models, policy, cfg)

    @pytest.mark.parametrize("users", [16, 24])
    @pytest.mark.parametrize("orch", [da1.Orchestrator, bench.PdrlOrchestrator],
                             ids=lambda o: o.__name__)
    def test_a_new_policy_fits_its_orchestrator(self, orch, users):
        cfg = scenario.parse_overrides({"num_users": str(users)})
        policy = orch.new_policy(cfg, np.random.default_rng(0))
        orch.check_policy(policy, cfg)
        assert policy.hidden == (cfg.train.hidden_width,) * orch.hidden_layers

    @pytest.mark.parametrize("scheme", [SchemeId.PROPOSED, SchemeId.PDRL_L1],
                             ids=lambda s: s.value)
    def test_forcing_the_greedy_actions_replans_as_the_policy(self, scheme):
        k = 6
        cfg, state = world(k)
        groups = da1.GROUPS  # mixed_models(6) has users in all three
        state.apply_slice(da2.SliceConfig(
            {(g, b.id): b.dl_bandwidth_hz / len(groups)
             for g in groups for b in state.base_stations},
            {g: cfg.edge.capacity_cps / len(groups) for g in groups}, "greedy"))
        # a few slots in, so buffers and tiers differ between users
        netsim.advance_slots(state, bench.RoundRobinOrchestrator(), 7,
                             np.random.default_rng(3))
        forced = self._orchestrator(scheme, None, cfg, mixed_models(k))
        vec = forced.state_vector(state)
        policy = learn.BdqNetwork(vec.size, (16,), forced.num_branches,
                                  da1.SHARE_LEVELS, rng=np.random.default_rng(4))
        actions = learn.greedy_actions(policy, vec)
        assert len(set(actions.tolist())) > 1  # not the all-equal decode
        by_policy = self._orchestrator(scheme, policy, cfg, mixed_models(k))
        forced.force(actions)
        alloc = forced(state, 0)
        assert alloc and alloc == by_policy(state, 0)


class TestGenericModel:
    def test_population_mean_params(self):
        m = bench.generic_model(CFG)
        assert m.structure_index == 3
        assert m.impact_params == (0.6, 0.6)

import ast
import dataclasses
import pathlib

import numpy as np
import pytest

from qoesim import bench, da1, da2, harness, learn, netsim, runner, scenario
from qoesim.bench import SchemeId

from test_public_names import loaded_names
from test_qoe import model_bytes, ref_pick

FAST = {"sim_duration_s": "360", "agent.bootstrap_minutes": "4",
        "catalog.segment_duration_s": "0.5"}


def fast_cfg(**extra):
    over = dict(FAST)
    over.update({k: str(v) for k, v in extra.items()})
    return scenario.parse_overrides(over)


@pytest.fixture(scope="module")
def proposed_run():
    return runner.SchemeRun(fast_cfg(**{"train.epochs": 20}), SchemeId.PROPOSED, 3).execute()


@pytest.fixture(scope="module")
def four_window_run():
    cfg = fast_cfg(sim_duration_s=720, **{"slicing.window_minutes": "3, 3, 3, 3, 3",
                                          "train.epochs": 0})
    return runner.SchemeRun(cfg, SchemeId.PROPOSED, 3).execute()


class TestSchemeRun:
    def test_deterministic_results(self):
        cfg = fast_cfg(**{"train.epochs": 30})
        r1 = runner.SchemeRun(cfg, SchemeId.PROPOSED, 1).execute()
        r2 = runner.SchemeRun(cfg, SchemeId.PROPOSED, 1).execute()
        assert r1.slot_records == r2.slot_records
        assert [w.demands for w in r1.windows] == [w.demands for w in r2.windows]
        assert [w.slice for w in r1.windows] == [w.slice for w in r2.windows]
        assert [w.samples for w in r1.windows] == [w.samples for w in r2.windows]

    @pytest.mark.parametrize("scheme", [SchemeId.PROPOSED, SchemeId.PDRL_L1],
                             ids=lambda s: s.value)
    def test_bdq_updates_deterministic(self, scheme, monkeypatch):
        # a batch of 8 fills within 30 epochs, so the BDQ update runs
        calls = []
        backward = learn.backward

        def counted(*args):
            calls.append(args)
            return backward(*args)

        monkeypatch.setattr(learn, "backward", counted)
        cfg = fast_cfg(**{"train.batch_size": 8, "train.epochs": 30})
        runs = [runner.SchemeRun(cfg, scheme, 1, collect_slots=False) for _ in range(2)]
        curves = [sr.execute().reward_curve for sr in runs]
        assert len(calls) > 0
        assert curves[0] == curves[1]
        for p, q in zip(runs[0].policy.params(), runs[1].policy.params()):
            assert p.tobytes() == q.tobytes()

    def test_no_capacity_violations_any_scheme(self):
        cfg = fast_cfg(**{"train.epochs": 20})
        for scheme in SchemeId:
            res = runner.SchemeRun(cfg, scheme, 2).execute()
            assert res.slot_records
            assert harness.capacity_violations(res) == 0

    def test_slot_conservation_against_slices(self, proposed_run):
        # per (window, slot, bs): allocated bw never exceeds the summed
        # reservations of the window's slice; per slot, nor does compute
        assert proposed_run.slot_records
        assert harness.capacity_violations(proposed_run) == 0

    @pytest.mark.parametrize("field", ["allocated_bw_hz", "allocated_compute_cps"])
    def test_capacity_check_counts_a_tampered_record(self, proposed_run, field):
        cfg = fast_cfg()
        over = {"allocated_bw_hz": 2.0 * cfg.radio.dl_bandwidth_hz,
                "allocated_compute_cps": 2.0 * cfg.edge.capacity_cps}[field]
        recs = list(proposed_run.slot_records)
        recs[len(recs) // 2] = recs[len(recs) // 2]._replace(**{field: over})
        tampered = dataclasses.replace(proposed_run, slot_records=recs)
        assert harness.capacity_violations(tampered) == 1

    @pytest.mark.parametrize("field", ["reserved_bw", "reserved_cpu"])
    def test_capacity_check_counts_a_lowered_reservation(self, four_window_run,
                                                         field):
        # zero the second window's reservations: each of its (slot, BS)
        # bandwidth sums, or each of its slots' compute sums, that grants
        # anything is over the slice
        run = four_window_run
        assert len(run.windows) == 4
        w = run.windows[1]
        slc = dataclasses.replace(
            w.slice, **{field: dict.fromkeys(getattr(w.slice, field), 0.0)})
        windows = list(run.windows)
        windows[1] = dataclasses.replace(w, slice=slc)
        tampered = dataclasses.replace(run, windows=windows)
        inside = [r for r in run.slot_records if w.start_slot <= r.t < w.end_slot]
        if field == "reserved_bw":
            granting = {(r.t, r.serving_bs) for r in inside if r.allocated_bw_hz > 0.0}
        else:
            granting = {r.t for r in inside if r.allocated_compute_cps > 0.0}
        assert granting
        assert harness.capacity_violations(tampered) == len(granting)
        assert harness.capacity_violations(run) == 0

    def test_wo_da_fixed_window(self):
        cfg = fast_cfg()
        res = runner.SchemeRun(cfg, SchemeId.WITHOUT_DA, 1, collect_slots=False).execute()
        assert all(w.window_minutes == cfg.slicing.wo_da_window_min
                   for w in res.windows)
        assert all(w.slice.mechanism == "greedy" for w in res.windows)

    def test_windows_tile_the_evaluation(self):
        cfg = fast_cfg(**{"train.epochs": 0})
        res = runner.SchemeRun(cfg, SchemeId.PROPOSED, 1, collect_slots=False).execute()
        total = int(cfg.sim_duration_s / cfg.slot_s)
        assert res.windows[0].start_slot == 0
        for a, b in zip(res.windows, res.windows[1:]):
            assert a.end_slot == b.start_slot
        assert res.windows[-1].end_slot >= total

    @pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
    def test_one_context_trace_per_window(self, scheme, monkeypatch):
        # the window length and the slices are planned on the same trace
        cfg = fast_cfg(sim_duration_s=720,
                       **{"slicing.window_minutes": "3, 3, 3, 3, 3", "train.epochs": 0})
        sr = runner.SchemeRun(cfg, scheme, 1, collect_slots=False)
        sr.fit_models(sr.bootstrap(np.random.default_rng(1))[1])
        calls = []
        emulate = da1.emulate_context

        def counted(*args, **kw):
            calls.append(args[0].id)
            return emulate(*args, **kw)

        monkeypatch.setattr(da1, "emulate_context", counted)
        res = sr.evaluate()
        assert len(res.windows) > 1
        assert calls == list(range(cfg.num_users)) * len(res.windows)

    def test_each_window_is_planned_in_the_cells_of_its_first_slot(self, monkeypatch):
        cfg = fast_cfg(sim_duration_s=720,
                       **{"slicing.window_minutes": "3, 3, 3, 3, 3", "train.epochs": 0})
        sr = runner.SchemeRun(cfg, SchemeId.PROPOSED, 1, collect_slots=False)
        sr.fit_models(sr.bootstrap(np.random.default_rng(1))[1])
        starts, cells = [], []
        plan, slice_window = sr.plan_window, da2.slice_window

        def spy_plan(state, horizon, emu_rng):
            starts.append(state.t)
            return plan(state, horizon, emu_rng)

        def spy_slice_window(members, *args):
            cells.append([bs for _, (_, bs), _ in members])
            return slice_window(members, *args)

        monkeypatch.setattr(sr, "plan_window", spy_plan)
        monkeypatch.setattr(da2, "slice_window", spy_slice_window)
        res = sr.evaluate()
        first = sr.paths.row(0)[0]
        if len(res.windows) < 2 or 1 not in first:
            pytest.fail("the run must span windows and start a user at BS 1")
        assert cells == [sr.paths.row(t)[0] for t in starts]

    def test_demand_rows_cover_all_users(self):
        cfg = fast_cfg(**{"train.epochs": 20})
        res = runner.SchemeRun(cfg, SchemeId.HSLA_L2, 1, collect_slots=False).execute()
        for w in res.windows:
            assert set(w.demands) == set(range(cfg.num_users))
            assert all(d.user == u for u, d in w.demands.items())

    def test_policy_checkpoint_roundtrip(self, tmp_path):
        from qoesim import harness
        cfg = fast_cfg()
        out = tmp_path / "o"
        path = tmp_path / "policy.json"
        harness.run_experiment(cfg, SchemeId.PROPOSED, [1], str(out),
                               trace_level="aggregate", train_epochs=30,
                               policy_out=str(path))
        assert path.exists()
        s2 = harness.run_experiment(cfg, SchemeId.PROPOSED, [1],
                                    str(tmp_path / "o2"),
                                    trace_level="aggregate",
                                    policy=learn.load_network(str(path)))
        assert s2["per_seed"][0]["qoe_samples"] > 0

    def test_policy_in_loads_without_training(self, tmp_path):
        # a policy file is used even when training is off
        cfg = fast_cfg(**{"train.epochs": 0})
        k = cfg.num_users
        net = learn.BdqNetwork(bench.PDRL_USER_FEATURES * k, (8, 8, 8), 2 * k,
                               da1.SHARE_LEVELS, rng=np.random.default_rng(0))
        path = str(tmp_path / "policy.json")
        learn.save_network(net, path)
        sr = runner.SchemeRun(cfg, SchemeId.PDRL_L1, 3, collect_slots=False,
                              policy=learn.load_network(path))
        assert sr.execute().windows
        assert sr.policy is not None
        for p, q in zip(sr.policy.params(), net.params()):
            assert np.array_equal(p, q)

    def test_slice_curves_build_each_users_constants_once(self, monkeypatch):
        # a user's planning curve reads the constants its slice gain built,
        # and the demand rule and the constants read one window-mean impact
        cfg = fast_cfg(**{"train.epochs": 0})
        sr = runner.SchemeRun(cfg, SchemeId.PROPOSED, 1, collect_slots=False)
        state, samples = sr.bootstrap(np.random.default_rng(1))
        sr.fit_models(samples)
        consts, impacts = [], []
        real_consts, real_impact = da1.utility_consts, da1.mean_impact

        def counted_consts(user, *args):
            consts.append(user)
            return real_consts(user, *args)

        def counted_impact(model, trajectory):
            impacts.append(model)
            return real_impact(model, trajectory)

        monkeypatch.setattr(da1, "utility_consts", counted_consts)
        monkeypatch.setattr(da1, "mean_impact", counted_impact)
        sr.plan_window(state, 60, np.random.default_rng(2))
        assert sorted(consts) == list(range(cfg.num_users))
        assert impacts == [sr.models[u] for u in range(cfg.num_users)]

    def test_training_episodes_are_planned_by_plan_window(self, monkeypatch):
        cfg = fast_cfg(**{"train.epochs": 0})
        sr = runner.SchemeRun(cfg, SchemeId.PROPOSED, 1, collect_slots=False)
        state, samples = sr.bootstrap(np.random.default_rng(1))
        sr.fit_models(samples)
        env = runner._TrainEnv(sr, state, np.random.default_rng(2),
                               np.random.default_rng(3), episode_epochs=1)
        planned = []
        plan = sr.plan_window

        def spy_plan(state, horizon, emu_rng):
            out = plan(state, horizon, emu_rng)
            planned.append((state, out[1]))
            return out

        monkeypatch.setattr(sr, "plan_window", spy_plan)
        env.reset()
        # the episode's one plan is of the training-lane state, and its
        # slice is the one installed
        assert len(planned) == 1
        assert planned[0][0] is state
        assert state.slice is planned[0][1]

    @pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
    def test_the_scalar_kernels_get_python_floats(self, scheme, monkeypatch):
        # np.float64 is a float subclass with the same arithmetic, so a leak
        # moves no artifact; it only slows every operation it reaches
        got = []
        states = []
        advance, allocate = netsim.advance_slots, da1.user_allocate

        def spy_advance(state, orchestrator, n_slots, rng, records=None):
            def spy_orchestrator(state, slot):
                alloc = orchestrator(state, slot)
                got.extend(("grant", x) for grant in alloc.values() for x in grant)
                return alloc

            states.append(state)
            return advance(state, spy_orchestrator, n_slots, rng, records)

        def spy_allocate(members, bw_budget_hz, cpu_budget_cps, max_iters,
                         warm_start, tol_step):
            got.extend([("budget", bw_budget_hz), ("budget", cpu_budget_cps)])
            got.extend(("warm start", x) for grant in (warm_start or {}).values()
                       for x in grant)
            return allocate(members, bw_budget_hz, cpu_budget_cps, max_iters,
                            warm_start, tol_step)

        monkeypatch.setattr(netsim, "advance_slots", spy_advance)
        monkeypatch.setattr(da1, "user_allocate", spy_allocate)
        runner.SchemeRun(fast_cfg(**{"train.batch_size": 8, "train.epochs": 30}), scheme, 1,
                         collect_slots=False).execute()
        kinds = {kind for kind, _ in got}
        assert kinds == ({"grant", "budget", "warm start"}
                         if bench.SPECS[scheme].orchestrator is da1.Orchestrator
                         else {"grant"})
        assert [(kind, type(x)) for kind, x in got if type(x) is not float] == []
        fields = [f for f in netsim._UserRuntime.__slots__ if f != "tier"]
        assert len(states) > 1
        assert [(f, type(getattr(rt, f))) for s in states for rt in s.runtime
                for f in fields if type(getattr(rt, f)) is not float] == []


class TestModelFits:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("scheme", [SchemeId.PROPOSED, SchemeId.HSLA_L2],
                             ids=lambda s: s.value)
    def test_each_user_gets_its_serial_reference_pick(self, scheme, seed):
        cfg = fast_cfg(**{"train.epochs": 0})
        sr = runner.SchemeRun(cfg, scheme, seed, collect_slots=False)
        samples = sr.bootstrap(np.random.default_rng(seed))[1]
        sr.fit_models(samples)
        assert sorted(sr.models) == [p.id for p in sr.profiles]
        for p in sr.profiles:
            own = [ps.sample for ps in samples if ps.user == p.id]
            want = ref_pick(own, 200) or bench.generic_model(cfg)
            assert model_bytes(sr.models[p.id]) == model_bytes(want)

    def test_a_windows_refits_are_one_call_in_user_order(self, monkeypatch):
        cfg = fast_cfg(**{"train.epochs": 0})
        sr = runner.SchemeRun(cfg, SchemeId.PROPOSED, 1, collect_slots=False)
        samples = sr.bootstrap(np.random.default_rng(1))[1]
        sr.fit_models(samples)
        before = dict(sr.models)
        drifted = {4, 1, 9}
        assert len({id(m) for m in before.values()}) == len(before)
        monkeypatch.setattr(runner.qoe, "should_update", lambda old, recent, tol:
                            any(sr.models[u] is old for u in drifted))
        calls = []
        fit = runner.qoe.fit_best_structure

        def spy(sets):
            calls.append(sets)
            return fit(sets)

        monkeypatch.setattr(runner.qoe, "fit_best_structure", spy)
        sr._maybe_refit(samples)
        windows = [[ps.sample for ps in samples if ps.user == u][-cfg.agent.refit_window:]
                   for u in (1, 4, 9)]
        assert calls == [windows]
        for u, window in zip((1, 4, 9), windows):
            assert sr.models[u] == fit([window])[0]
        assert all(sr.models[u] is before[u] for u in before if u not in drifted)


class TestSchemeSpec:
    """An ablation is a spec built with `dataclasses.replace`; the run reads
    only the spec, so no part of the package is patched."""

    def ablation_run(self, **choices):
        cfg = fast_cfg(sim_duration_s=720, **{"slicing.window_minutes": "3, 3, 3, 3, 3",
                                              "train.epochs": 0})
        spec = dataclasses.replace(bench.PROPOSED, **choices)
        return cfg, runner.SchemeRun(cfg, spec, 3, collect_slots=False).execute()

    def test_greedy_only(self, four_window_run):
        _, res = self.ablation_run(game=False)
        assert "game" in {w.slice.mechanism for w in four_window_run.windows}
        assert {w.slice.mechanism for w in res.windows} == {"greedy"}

    def test_fixed_window(self, four_window_run):
        cfg, res = self.ablation_run(adaptive_window=False)
        assert {w.window_minutes for w in four_window_run.windows} == {3.0}
        assert {w.window_minutes for w in res.windows} == {cfg.slicing.wo_da_window_min}

    def test_runner_names_no_scheme(self):
        # a branch on which scheme runs would load the id or a member's name
        tree = ast.parse(pathlib.Path(runner.__file__).read_text(encoding="utf-8"))
        scheme_names = {"SchemeId"} | {s.name for s in SchemeId}
        assert sorted(loaded_names(tree) & scheme_names) == []

    def test_runner_leaves_the_slice_policy_to_da2(self):
        # a window's slice is one da2.slice_window call
        tree = ast.parse(pathlib.Path(runner.__file__).read_text(encoding="utf-8"))
        slicers = {"abstract_demand", "greedy_slice", "best_response_adjust"}
        assert sorted(loaded_names(tree) & slicers) == []


@pytest.mark.parametrize("scheme, depth", [(SchemeId.PROPOSED, 2),
                                           (SchemeId.HSLA_L2, 2),
                                           (SchemeId.PDRL_L1, 3)],
                         ids=lambda v: getattr(v, "value", str(v)))
def test_trained_policy_has_the_orchestrators_shape(scheme, depth):
    # the orchestrator owns its policy's shape: training builds the policy
    # the evaluation then reads
    cfg = fast_cfg(**{"agent.bootstrap_minutes": 2, "train.epochs": 18})  # one episode
    sr = runner.SchemeRun(cfg, scheme, 1, collect_slots=False)
    rng = np.random.default_rng(0)
    state, samples = sr.bootstrap(rng)
    sr.fit_models(samples)
    sr.train_policies(state, rng)
    assert sr.policy.hidden == (cfg.train.hidden_width,) * depth
    orch = sr.make_orchestrator()
    assert orch.policy is sr.policy
    inputs, branches = orch.layout(cfg)
    assert (sr.policy.input_dim, sr.policy.num_branches,
            sr.policy.actions_per_branch) == (inputs, branches, da1.SHARE_LEVELS)
    assert orch.state_vector(state).size == inputs

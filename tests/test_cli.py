import json
import re

import numpy as np
import pytest

from qoesim import bench, cli, da1, learn, scenario


class TestSetOverrides:
    @pytest.mark.parametrize("cmd", ["run", "sweep"])
    @pytest.mark.parametrize("items,msg", [
        (["foo"], "--set expects key=value, got 'foo'"),
        # a key set twice is refused, not read last-wins
        (["num_users=16", " num_users = 24"], "--set sets num_users twice, got '16' and '24'"),
    ], ids=["no-equals", "repeated-key"])
    def test_malformed_set_names_the_item(self, cmd, items, msg, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a run started")
        monkeypatch.setattr(cli.harness, "run_experiment", fail)
        sets = [arg for item in items for arg in ("--set", item)]
        with pytest.raises(SystemExit, match=re.escape(msg)):
            cli.main([cmd, *sets, "--out", str(tmp_path)])
        assert not list(tmp_path.iterdir())

    def test_sweep_user_count_wins_over_set(self, tmp_path, monkeypatch):
        seen = []

        def fake_run(cfg, scheme, seeds, out, **kw):
            seen.append(cfg.num_users)
            return {"pooled": {"mean_ela_ratio": 0.0}}

        monkeypatch.setattr(cli.harness, "run_experiment", fake_run)
        assert cli.main(["sweep", "--k", "16,18", "--schemes", "wo-da",
                         "--set", " num_users = 20", "--out", str(tmp_path)]) == 0
        assert seen == [16, 18]


class TestArgumentErrors:
    @pytest.mark.parametrize("cmd", ["run", "sweep"])
    @pytest.mark.parametrize("seeds", ["3..1", ",", ""])
    def test_seeds_naming_no_seed_exit_naming_the_flag(self, cmd, seeds, tmp_path):
        with pytest.raises(SystemExit, match="--seeds names no seed"):
            cli.main([cmd, "--seeds", seeds, "--out", str(tmp_path)])
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("seeds", ["x..3", "1,two", "1.5"])
    def test_non_integer_seeds_exit_naming_the_flag(self, seeds, tmp_path):
        with pytest.raises(SystemExit, match="--seeds expects integers"):
            cli.main(["run", "--seeds", seeds, "--out", str(tmp_path)])
        assert not list(tmp_path.iterdir())

    def test_seed_range_and_list(self):
        assert cli.parse_ints("2..4", "--seeds", "seed") == [2, 3, 4]
        assert cli.parse_ints("5,1,", "--seeds", "seed") == [5, 1]

    @pytest.mark.parametrize("k,msg", [
        ("16,x", "--k expects integers as a..b or a,b,c, got '16,x'"),
        ("", "--k names no user count, got ''"),
        ("16,18,16,18", "--k repeats the user count 16, got '16,18,16,18'"),
    ])
    def test_bad_user_counts_exit_naming_the_flag(self, k, msg, tmp_path):
        with pytest.raises(SystemExit, match=re.escape(msg)):
            cli.main(["sweep", "--k", k, "--out", str(tmp_path)])
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("cmd,flag", [("run", "--scheme"), ("sweep", "--schemes")])
    def test_unknown_scheme_lists_the_valid_ones(self, cmd, flag, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main([cmd, flag, "proposed,bogus", "--out", str(tmp_path)])
        msg = str(exc.value)
        assert msg.startswith(f"{flag}: unknown scheme 'bogus'")
        assert all(name in msg for name in cli.SCHEMES)
        assert not list(tmp_path.iterdir())


class TestConfigErrors:
    @pytest.mark.parametrize("argv,msg", [
        (["run", "--set", "num_users=17"], "invalid config: num_users: 17 not in"),
        (["run", "--set", "agent.epoch_slots=ten"],
         "invalid config: agent.epoch_slots: expected integer, got 'ten'"),
        (["run", "--set", "agent.epoch_slot=10"],
         "invalid config: unknown config key: agent.epoch_slot"),
        (["sweep", "--k", "16,17"], "invalid config: num_users: 17 not in"),
        (["sweep", "--set", "edge.capacity_cps=0"],
         "invalid config: edge.capacity_cps must be > 0"),
    ], ids=["out-of-preset", "not-an-integer", "unknown-key", "sweep-k", "sweep-set"])
    def test_invalid_config_exits_naming_the_field(self, argv, msg, tmp_path):
        with pytest.raises(SystemExit, match=re.escape(msg)):
            cli.main(argv + ["--out", str(tmp_path / "out")])
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("cmd", ["run", "sweep"])
    def test_missing_scenario_file_exits_naming_it(self, cmd, tmp_path):
        path = str(tmp_path / "absent.cfg")
        with pytest.raises(SystemExit, match=re.escape(f"--scenario: cannot read {path!r}")):
            cli.main([cmd, "--scenario", path, "--out", str(tmp_path / "out")])
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("text,msg", [
        ("agent.refit_window 7\n", "invalid config: line 1: expected 'key = value'"),
        ("num_users = 16\nnum_users = 24\n",
         "invalid config: line 2: num_users is already set on line 1"),
    ], ids=["no-equals", "repeated-key"])
    def test_malformed_scenario_line_exits_naming_the_line(self, tmp_path, text, msg):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(SystemExit, match=re.escape(msg)):
            cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


class TestPolicyFlags:
    @pytest.fixture(autouse=True)
    def no_runs(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a run started")
        monkeypatch.setattr(cli.harness, "run_experiment", fail)

    def checkpoint(self, tmp_path, drop=None, shape=(4, 2, 3)):
        """A saved (inputs, branches, actions) policy; the default shape fits
        no scheme."""
        inputs, branches, actions = shape
        net = learn.BdqNetwork(inputs, (5,), branches, actions,
                               rng=np.random.default_rng(0))
        path = tmp_path / "policy.json"
        learn.save_network(net, str(path))
        if drop is not None:
            doc = json.loads(path.read_text())
            del doc[drop]
            path.write_text(json.dumps(doc))
        return str(path)

    def test_missing_checkpoint_exits_naming_the_flag(self, tmp_path):
        path = str(tmp_path / "missing.json")
        with pytest.raises(SystemExit, match=re.escape(f"--policy-in: cannot load {path!r}: No such file")):
            cli.main(["run", "--policy-in", path, "--out", str(tmp_path / "out")])
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("text,named", [("not json", "--policy-in"),
                                            ("[1, 2]", "--policy-in"),
                                            (None, "'hidden'")])
    def test_malformed_checkpoint_exits_naming_the_flag(self, tmp_path, text, named):
        path = self.checkpoint(tmp_path, drop="hidden")
        if text is not None:
            (tmp_path / "policy.json").write_text(text)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--policy-in", path, "--out", str(tmp_path / "out")])
        msg = str(exc.value)
        assert msg.startswith(f"--policy-in: cannot load {path!r}: ")
        assert named in msg and "\n" not in msg
        assert not (tmp_path / "out").exists()

    PROPOSED_SHAPE = (*da1.Orchestrator.layout(scenario.ScenarioConfig()), da1.SHARE_LEVELS)

    def test_a_valid_checkpoint_reaches_the_run(self, tmp_path):
        with pytest.raises(AssertionError, match="a run started"):
            cli.main(["run", "--policy-in", self.checkpoint(tmp_path, shape=self.PROPOSED_SHAPE),
                      "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("schemes,shape,unfit,want", [
        ("proposed", (4, 2, 3), "proposed", PROPOSED_SHAPE),
        # fits proposed, listed first, but not pdrl-l1 at 16 users
        ("proposed,pdrl-l1", PROPOSED_SHAPE, "pdrl-l1",
         (bench.PDRL_USER_FEATURES * 16, 32, da1.SHARE_LEVELS)),
    ])
    def test_a_checkpoint_of_another_shape_exits_before_the_first_run(
            self, tmp_path, schemes, shape, unfit, want):
        path = self.checkpoint(tmp_path, shape=shape)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--scheme", schemes, "--policy-in", path,
                      "--out", str(tmp_path / "out")])
        msg = str(exc.value)
        assert msg.startswith(f"--policy-in: {path!r} does not fit scheme {unfit}: ")
        assert f"{shape}" in msg and f"{want}" in msg
        assert "\n" not in msg and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("schemes,seeds", [("proposed", "1,2"),
                                               ("proposed,pdrl-l1", "1")])
    def test_policy_out_takes_one_scheme_and_one_seed(self, tmp_path, schemes, seeds):
        with pytest.raises(SystemExit, match="--policy-out saves one policy"):
            cli.main(["run", "--scheme", schemes, "--seeds", seeds,
                      "--policy-out", str(tmp_path / "p.json"),
                      "--out", str(tmp_path / "out")])
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--policy-in", "--policy-out"])
    def test_a_scheme_that_trains_no_policy_exits_naming_the_flag(self, tmp_path, flag):
        path = self.checkpoint(tmp_path)
        with pytest.raises(SystemExit, match=re.escape(f"{flag}: scheme wo-da trains no policy")):
            cli.main(["run", "--scheme", "proposed,wo-da", "--seeds", "1", flag, path,
                      "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()


def test_a_policy_file_is_loaded_once_for_every_seed(tmp_path, monkeypatch):
    # cli loads and checks the checkpoint; each seed's run evaluates that net
    inputs, branches = da1.Orchestrator.layout(scenario.ScenarioConfig())
    path = str(tmp_path / "p.json")
    learn.save_network(learn.BdqNetwork(inputs, (8,), branches, da1.SHARE_LEVELS,
                                        rng=np.random.default_rng(0)), path)
    loads = []
    load = learn.load_network

    def counted(p):
        loads.append(p)
        return load(p)

    monkeypatch.setattr(learn, "load_network", counted)
    monkeypatch.setenv("SIMCTL_THREADS", "1")
    assert cli.main(["run", "--scheme", "proposed", "--seeds", "1,2", "--policy-in", path,
                     "--set", "sim_duration_s=360", "--set", "agent.bootstrap_minutes=4",
                     "--trace-level", "aggregate", "--out", str(tmp_path / "out")]) == 0
    assert loads == [path]


class TestReport:
    @pytest.mark.parametrize("text,why", [
        ("{not json", "is not JSON: Expecting property name"),
        ('{"scheme": "proposed"}', "breaks the summary schema at the top level: "),
    ], ids=["not-json", "schema"])
    def test_a_bad_summary_exits_naming_the_file(self, tmp_path, text, why):
        path = tmp_path / "summary_proposed.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            cli.main(["report", str(tmp_path)])
        msg = str(exc.value)
        assert msg.startswith(f"report: {str(path)!r} {why}")
        assert "\n" not in msg
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

import pytest

from qoesim import cli


class TestSetOverrides:
    @pytest.mark.parametrize("cmd", ["run", "sweep"])
    def test_malformed_set_names_the_item(self, cmd, tmp_path):
        with pytest.raises(SystemExit, match="--set expects key=value, got 'foo'"):
            cli.main([cmd, "--set", "foo", "--out", str(tmp_path)])
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

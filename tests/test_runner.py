import dataclasses

import numpy as np
import pytest

from qoesim import harness, runner, scenario
from qoesim.bench import SchemeId

FAST = {"sim_duration_s": "360", "agent.bootstrap_minutes": "4",
        "catalog.segment_duration_s": "0.5"}


def fast_cfg(**extra):
    over = dict(FAST)
    over.update({k: str(v) for k, v in extra.items()})
    return scenario.parse_overrides(over)


@pytest.fixture(scope="module")
def proposed_run():
    return runner.run_scheme(fast_cfg(), SchemeId.PROPOSED, 3, train_epochs=20)


class TestSchemeRun:
    def test_deterministic_results(self):
        cfg = fast_cfg()
        r1 = runner.run_scheme(cfg, SchemeId.PROPOSED, 1, train_epochs=30)
        r2 = runner.run_scheme(cfg, SchemeId.PROPOSED, 1, train_epochs=30)
        assert r1.slot_records == r2.slot_records
        assert r1.demand_rows == r2.demand_rows
        assert r1.slice_rows == r2.slice_rows
        assert [w.user_mean_qoe for w in r1.windows] == \
            [w.user_mean_qoe for w in r2.windows]

    def test_no_capacity_violations_any_scheme(self):
        cfg = fast_cfg()
        for scheme in SchemeId:
            res = runner.run_scheme(cfg, scheme, 2, collect_slots=False,
                                    train_epochs=20)
            assert res.capacity_violations == 0

    def test_slot_conservation_against_slices(self, proposed_run):
        # per (window, slot, bs): allocated bw never exceeds the summed
        # reservations recorded in the slice rows; per slot, nor does compute
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

    def test_wo_da_fixed_window(self):
        cfg = fast_cfg()
        res = runner.run_scheme(cfg, SchemeId.WITHOUT_DA, 1, collect_slots=False)
        assert all(w.window_minutes == cfg.slicing.wo_da_window_min
                   for w in res.windows)
        assert all(w.mechanism == "greedy" for w in res.windows)

    def test_windows_tile_the_evaluation(self):
        cfg = fast_cfg()
        res = runner.run_scheme(cfg, SchemeId.PROPOSED, 1, collect_slots=False,
                                train_epochs=0)
        total = int(cfg.sim_duration_s / cfg.slot_s)
        assert res.windows[0].start_slot == 0
        for a, b in zip(res.windows, res.windows[1:]):
            assert a.end_slot == b.start_slot
        assert res.windows[-1].end_slot >= total

    def test_demand_rows_cover_all_users(self):
        cfg = fast_cfg()
        res = runner.run_scheme(cfg, SchemeId.HSLA_L2, 1, collect_slots=False,
                                train_epochs=20)
        for w in res.windows:
            users = {r[1] for r in res.demand_rows if r[0] == w.index}
            assert users == set(range(cfg.num_users))

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
                                    policy_in=str(path))
        assert s2["per_seed"][0]["qoe_samples"] > 0

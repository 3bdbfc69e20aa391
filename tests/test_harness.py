import csv
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qoesim import harness, netsim, runner, scenario
from qoesim.bench import SchemeId
from qoesim.errors import ConfigError, EmptyInput, EmptyWindow, TooFewSamples

FAST = {"sim_duration_s": "360", "agent.bootstrap_minutes": "4",
        "catalog.segment_duration_s": "0.5"}


def fast_cfg(**extra):
    over = dict(FAST)
    over.update({k: str(v) for k, v in extra.items()})
    return scenario.parse_overrides(over)


def recompute_window_ratios(slots_csv: str, windows_csv: str,
                            elas: dict[int, float],
                            period_slots: int) -> list[tuple[float, float]]:
    """Redundant-path check: rebuild each window's ELA ratio from the raw
    slot trace and pair it with the value in windows.csv."""
    with open(windows_csv, newline="", encoding="utf-8") as fh:
        windows = [(int(r["window"]), int(r["start_slot"]), int(r["end_slot"]),
                    float(r["ela_ratio"])) for r in csv.DictReader(fh)]
    by_window_user: dict[int, dict[int, list[float]]] = {}
    with open(slots_csv, newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            t = int(r["t"])
            if (t + 1) % period_slots != 0:
                continue
            for idx, start, end, _ in windows:
                if start <= t < end:
                    by_window_user.setdefault(idx, {}).setdefault(
                        int(r["user"]), []).append(float(r["qoe_sample"]))
                    break
    out = []
    for idx, start, end, stored in windows:
        means = {u: float(np.mean(v)) for u, v in by_window_user[idx].items()}
        out.append((harness.ela_ratio(means, elas), stored))
    return out


class TestElaRatio:
    def test_all_above(self):
        assert harness.ela_ratio({0: 4.0, 1: 4.5}, {0: 3.0, 1: 3.1}) == 1.0

    def test_none_above(self):
        assert harness.ela_ratio({0: 2.0, 1: 2.5}, {0: 3.0, 1: 3.1}) == 0.0

    def test_three_of_four(self):
        means = {0: 4.0, 1: 4.0, 2: 4.0, 3: 2.0}
        elas = {0: 3.0, 1: 3.0, 2: 3.0, 3: 3.0}
        assert harness.ela_ratio(means, elas) == 0.75

    def test_empty_window(self):
        with pytest.raises(EmptyWindow):
            harness.ela_ratio({}, {0: 3.0})


class TestCdfPoints:
    def test_singleton(self):
        assert harness.cdf_points([0.5]) == [(0.5, 1.0)]

    def test_two_values(self):
        assert harness.cdf_points([0.4, 0.2]) == [(0.2, 0.5), (0.4, 1.0)]

    def test_duplicates_collapse(self):
        assert harness.cdf_points([1, 1, 2]) == [(1.0, 2 / 3), (2.0, 1.0)]

    def test_dkw_uniform(self):
        rng = np.random.default_rng(0)
        pts = harness.cdf_points(rng.random(1000))
        worst = max(abs(f - v) for v, f in pts)
        assert worst < 0.06

    def test_empty(self):
        with pytest.raises(EmptyInput):
            harness.cdf_points([])


class TestBoxStats:
    def test_symmetric_set(self):
        b = harness.box_stats([1, 2, 3, 4, 5])
        assert (b.median, b.q1, b.q3) == (3.0, 2.0, 4.0)
        assert b.whisker_lo == 1.0 and b.whisker_hi == 5.0
        assert b.outliers == 0

    def test_constant_data(self):
        b = harness.box_stats([2.2] * 10)
        assert b.median == b.q1 == b.q3 == 2.2
        assert b.whisker_lo == b.whisker_hi == 2.2

    def test_against_reference_implementation(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(3, 0.8, 101)
        b = harness.box_stats(vals)
        q1, med, q3 = np.percentile(vals, [25, 50, 75])
        assert (b.q1, b.median, b.q3) == pytest.approx((q1, med, q3))
        iqr = q3 - q1
        inside = vals[(vals >= q1 - 1.5 * iqr) & (vals <= q3 + 1.5 * iqr)]
        assert b.whisker_lo == inside.min() and b.whisker_hi == inside.max()
        assert b.outliers == vals.size - inside.size
        assert b.whisker_lo <= b.q1 <= b.median <= b.q3 <= b.whisker_hi

    def test_outlier_count(self):
        # zero IQR puts both extremes outside the whiskers
        b = harness.box_stats([1, 2, 2, 2, 2, 2, 2, 30])
        assert b.outliers == 2
        b2 = harness.box_stats(list(range(10)) + [100])
        assert b2.outliers == 1

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            harness.box_stats([1, 2, 3])


class TestRunExperiment:
    def test_summary_schema_and_artifacts(self, tmp_path):
        cfg = fast_cfg()
        summary = harness.run_experiment(cfg, SchemeId.WITHOUT_DA, [1],
                                         str(tmp_path))
        harness.validate_summary(summary)  # already validated on emit; explicit
        for name in ("slots_wo-da_seed1.csv", "demands_wo-da_seed1.csv",
                     "slices_wo-da_seed1.csv", "windows_wo-da_seed1.csv",
                     "summary_wo-da.json"):
            assert (tmp_path / name).exists()
        on_disk = json.loads((tmp_path / "summary_wo-da.json").read_text())
        assert on_disk == json.loads(json.dumps(summary))

    def test_windows_ratio_recomputed_from_slots(self, tmp_path):
        cfg = fast_cfg()
        sr = runner.SchemeRun(cfg, SchemeId.WITHOUT_DA, 2)
        res = sr.execute()
        harness.emit_run(str(tmp_path), SchemeId.WITHOUT_DA.value, res, sr.elas)
        period = int(cfg.playback.eval_period_s / cfg.slot_s)
        pairs = recompute_window_ratios(
            str(tmp_path / "slots_wo-da_seed2.csv"),
            str(tmp_path / "windows_wo-da_seed2.csv"), sr.elas, period)
        assert pairs
        for recomputed, stored in pairs:
            assert recomputed == pytest.approx(stored)

    def test_policy_out_rejects_several_seeds(self, tmp_path):
        # one file cannot hold one policy per seed
        with pytest.raises(ConfigError, match="policy_out"):
            harness.run_experiment(fast_cfg(), SchemeId.PROPOSED, [1, 2],
                                   str(tmp_path), policy_out=str(tmp_path / "p.json"))
        assert not (tmp_path / "p.json").exists()

    def test_aggregate_trace_level_skips_slots(self, tmp_path):
        cfg = fast_cfg()
        harness.run_experiment(cfg, SchemeId.WITHOUT_DA, [1], str(tmp_path),
                               trace_level="aggregate")
        assert not (tmp_path / "slots_wo-da_seed1.csv").exists()
        assert (tmp_path / "windows_wo-da_seed1.csv").exists()

    @pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
    def test_trace_level_changes_only_the_slot_file(self, tmp_path, scheme):
        # the slot records are collected or not; nothing else may move
        cfg = fast_cfg()
        for level in ("full", "aggregate"):
            harness.run_experiment(cfg, scheme, [1], str(tmp_path / level),
                                   trace_level=level, train_epochs=20)
        names = [f"{stem}_{scheme.value}_seed1.csv"
                 for stem in ("demands", "slices", "windows")]
        names.append(f"summary_{scheme.value}.json")
        for name in names:
            full = (tmp_path / "full" / name).read_bytes()
            assert full == (tmp_path / "aggregate" / name).read_bytes(), name
        assert (tmp_path / "full" / f"slots_{scheme.value}_seed1.csv").exists()
        assert not (tmp_path / "aggregate" / f"slots_{scheme.value}_seed1.csv").exists()


    def test_empty_seed_list_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="at least one seed"):
            harness.run_experiment(fast_cfg(), SchemeId.WITHOUT_DA, [], str(tmp_path))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["two", "1.5", " "])
    def test_malformed_thread_cap_names_the_variable(self, value, monkeypatch):
        monkeypatch.setenv("SIMCTL_THREADS", value)
        with pytest.raises(ConfigError, match="SIMCTL_THREADS"):
            harness._worker_count(4)


# float-column values: the edges of the %.10g format, numpy scalars, and
# ints, which `_fmt` writes in full (so |int| >= 1e10 has no exponent)
_SLOT_FLOATS = (st.floats(allow_nan=True, allow_infinity=True)
                | st.sampled_from([-0.0, float("nan"), 1e-300, 1e15, 5e-324])
                | st.floats(allow_nan=True).map(np.float64)
                | st.integers(-10**12, 10**12)
                | st.sampled_from([10**10, -10**10, 12345678901, True]))
_SLOT_INTS = st.integers(0, 10**6) | st.integers(0, 50).map(np.int64)


class TestSlotWriter:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[_SLOT_INTS] * 3, *[_SLOT_FLOATS] * 9)
                    .map(lambda row: netsim.SlotRecord(*row)), max_size=20))
    @example([netsim.SlotRecord(1, 2, 0, -0.0, float("nan"), 1e-300, 1e15,
                                np.float64(0.1), 10**10, -12345678901, 3, 2.5)])
    def test_bytes_equal_csv_writer(self, tmp_path_factory, rows):
        d = tmp_path_factory.mktemp("slots")
        harness._write_csv(str(d / "ref.csv"), harness.SLOTS_HEADER, rows)
        harness._write_slots(str(d / "got.csv"), rows)
        assert (d / "got.csv").read_bytes() == (d / "ref.csv").read_bytes()


class _RecordingLane:
    """A generator that logs each call's method, arguments and values."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def draw(*args, **kw):
            out = method(*args, **kw)
            self.draws.append((name, args, kw, np.asarray(out).tobytes()))
            return out
        return draw


def eval_lane_draws(monkeypatch, sr: runner.SchemeRun) -> list:
    """Run `sr` and return every draw made on its evaluation lane.  The
    generator's final state alone can miss a shifted stream: the normal
    sampler's rejection steps can bring it back into step."""
    lanes = []
    real = runner._lane

    def recording(seed, key):
        rng = real(seed, key)
        if key == runner._LANE_EVAL:
            rng = _RecordingLane(rng)
            lanes.append(rng)
        return rng

    monkeypatch.setattr(runner, "_lane", recording)
    sr.execute()
    (lane,) = lanes
    return lane.draws


class TestLaneIsolation:
    def test_training_budget_does_not_change_eval_traffic(self, monkeypatch):
        # the evaluation lane draws pure traffic randomness: the same draws
        # whether the policy trained for 0 or 60 epochs
        cfg = fast_cfg()
        draws = [eval_lane_draws(monkeypatch, runner.SchemeRun(
            cfg, SchemeId.PROPOSED, 3, collect_slots=False, train_epochs=epochs))
            for epochs in (0, 60)]
        assert draws[0] and draws[0] == draws[1]

    def test_schemes_share_identical_traffic_streams(self, monkeypatch):
        cfg = fast_cfg()
        draws = {scheme: eval_lane_draws(monkeypatch, runner.SchemeRun(
            cfg, scheme, 4, collect_slots=False, train_epochs=0))
            for scheme in (SchemeId.PROPOSED, SchemeId.WITHOUT_DA, SchemeId.HSLA_L2)}
        assert draws[SchemeId.PROPOSED]
        assert draws[SchemeId.PROPOSED] == draws[SchemeId.WITHOUT_DA]
        assert draws[SchemeId.PROPOSED] == draws[SchemeId.HSLA_L2]


class TestDeterminism:
    def test_byte_identical_artifacts(self, tmp_path):
        cfg = fast_cfg()
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            harness.run_experiment(cfg, SchemeId.WITHOUT_DA, [5], str(d))
        for name in os.listdir(d1):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

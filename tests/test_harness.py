import csv
import json
import os
import re

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qoesim import harness, netsim, runner, scenario
from qoesim.bench import SchemeId
from qoesim.errors import ConfigError, EmptyInput, EmptyWindow, TooFewSamples, ValidationError

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


class TestValidateSummary:
    @pytest.fixture(scope="class")
    def summary(self, tmp_path_factory):
        return harness.run_experiment(fast_cfg(), SchemeId.WITHOUT_DA, [1],
                                      str(tmp_path_factory.mktemp("run")),
                                      trace_level="aggregate")

    def test_the_schema_is_checked_once(self, summary, monkeypatch):
        checked = []
        cls = jsonschema.validators.validator_for(harness.load_schema())
        real = cls.check_schema

        def counted(schema, *args, **kwargs):
            checked.append(schema)
            return real(schema, *args, **kwargs)

        monkeypatch.setattr(cls, "check_schema", counted)
        harness._summary_validator.cache_clear()
        harness.validate_summary(summary)
        harness.validate_summary(summary)
        assert checked == [harness.load_schema()]

    @pytest.mark.parametrize("path,value", [
        (("scheme",), "bogus"),
        (("config_hash",), "not-a-hash"),
        (("per_seed", 0), {"seed": 1}),
        (("per_seed", 0, "window_ratios"), []),
        (("pooled", "qoe_box", "median"), 6.0),
    ])
    def test_a_broken_summary_raises_what_jsonschema_raises(self, summary, path, value):
        broken = json.loads(json.dumps(summary))
        *outer, last = path
        node = broken
        for key in outer:
            node = node[key]
        node[last] = value
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(broken, harness.load_schema())
        with pytest.raises(jsonschema.ValidationError) as got:
            harness.validate_summary(broken)
        assert (got.value.message, list(got.value.absolute_path)) == (
            want.value.message, list(want.value.absolute_path))


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

    def test_config_hash_names_the_epoch_budget(self, tmp_path):
        # the summary hashes the config that ran, its training budget included
        hashes = []
        for epochs in (0, 20):
            summary = harness.run_experiment(fast_cfg(), SchemeId.PROPOSED, [1],
                                             str(tmp_path / str(epochs)),
                                             trace_level="aggregate", train_epochs=epochs)
            ran = fast_cfg(**{"train.epochs": epochs})
            assert summary["config_hash"] == scenario.config_hash(ran)
            hashes.append(summary["config_hash"])
        assert hashes[0] != hashes[1]

    def test_a_negative_epoch_budget_is_refused(self, tmp_path):
        with pytest.raises(ValidationError, match="train.epochs must be >= 0"):
            harness.run_experiment(fast_cfg(), SchemeId.PROPOSED, [1], str(tmp_path / "o"),
                                   train_epochs=-1)
        assert not list(tmp_path.iterdir())

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


def fmt(x) -> str:
    """The reference formatting of one CSV value: bools as 1 or 0, floats
    at 10 significant digits, the rest by `str`.  With `csv.writer` it
    defines the bytes that the line formats must write."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def write_with_csv_writer(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([fmt(v) for v in row])


FORMATS = {"slots": (harness.SLOTS_HEADER, harness.SLOTS_LINE),
           "demands": (harness.DEMANDS_HEADER, harness.DEMANDS_LINE),
           "slices": (harness.SLICES_HEADER, harness.SLICES_LINE),
           "windows": (harness.WINDOWS_HEADER, harness.WINDOWS_LINE)}
# the types each conversion of a line format takes, and characters that
# `csv.writer` would quote a str for
CONVERSION_TYPES = {"d": (int, bool), "g": (float, np.float64), "s": (str,)}
QUOTED = set(',"\r\n')


def conversions(line: str) -> list[str]:
    """The conversion letters of a %-format line, in order."""
    return re.findall(r"%[^a-z%]*([a-z])", line)


_VALUES = {
    "d": st.integers(-10**12, 10**12) | st.booleans(),
    "g": (st.floats(allow_nan=True, allow_infinity=True)
          | st.floats(allow_nan=True, allow_infinity=True).map(np.float64)),
    "s": st.sampled_from(["greedy", "game"])
         | st.text(st.characters(blacklist_categories=("Cs",),
                                 blacklist_characters="".join(QUOTED))),
}


@st.composite
def csv_rows(draw):
    """A file's stem and rows of the types that its line format takes."""
    stem = draw(st.sampled_from(sorted(FORMATS)))
    values = [_VALUES[c] for c in conversions(FORMATS[stem][1])]
    return stem, draw(st.lists(st.tuples(*values), max_size=20))


_EDGE_FLOATS = [float("nan"), float("inf"), -0.0, 5e-324, 1e-300,
                1.7976931348623157e308, 1e15, 12345678901.0]
_EDGES = {"d": [0, -7, 10**12, True, False], "s": ["greedy", "game", ""],
          "g": _EDGE_FLOATS + [-x for x in _EDGE_FLOATS]
          + [np.float64(x) for x in _EDGE_FLOATS]}


def edge_rows(stem: str) -> tuple[str, list[tuple]]:
    """Rows of the file's format that take each edge value in turn."""
    kinds = conversions(FORMATS[stem][1])
    return stem, [tuple(_EDGES[c][i % len(_EDGES[c])] for c in kinds)
                  for i in range(len(_EDGES["g"]))]


class TestRowWriter:
    @settings(max_examples=200, deadline=None)
    @given(case=csv_rows())
    @example(case=edge_rows("slots"))
    @example(case=edge_rows("demands"))
    @example(case=edge_rows("slices"))
    @example(case=edge_rows("windows"))
    def test_bytes_equal_csv_writer(self, tmp_path_factory, case):
        stem, rows = case
        header, line = FORMATS[stem]
        d = tmp_path_factory.mktemp("rows")
        write_with_csv_writer(str(d / "ref.csv"), header, rows)
        harness._write_rows(str(d / "got.csv"), header, line, rows)
        assert (d / "got.csv").read_bytes() == (d / "ref.csv").read_bytes()

    @pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
    def test_every_row_has_its_line_formats_types(self, tmp_path, monkeypatch, scheme):
        # the formats render only these types as `fmt` does: an int of ten
        # or more digits in a float column, say, would take an exponent
        handed: dict[str, list] = {}
        real = harness._write_rows

        def recording(path, header, line, rows):
            handed[line] = list(rows)
            real(path, header, line, handed[line])

        monkeypatch.setattr(harness, "_write_rows", recording)
        harness.run_experiment(fast_cfg(), scheme, [1], str(tmp_path), train_epochs=20)
        assert sorted(handed) == sorted(line for _, line in FORMATS.values())
        for line, rows in handed.items():
            types = [CONVERSION_TYPES[c] for c in conversions(line)]
            assert rows, line
            for row in rows:
                assert len(row) == len(types), (line, row)
                assert all(type(v) in ok for v, ok in zip(row, types)), (line, row)
                assert not any(QUOTED & set(v) for v in row if isinstance(v, str)), row


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
        draws = [eval_lane_draws(monkeypatch, runner.SchemeRun(
            fast_cfg(**{"train.epochs": epochs}), SchemeId.PROPOSED, 3, collect_slots=False))
            for epochs in (0, 60)]
        assert draws[0] and draws[0] == draws[1]

    def test_schemes_share_identical_traffic_streams(self, monkeypatch):
        cfg = fast_cfg(**{"train.epochs": 0})
        draws = {scheme: eval_lane_draws(monkeypatch, runner.SchemeRun(
            cfg, scheme, 4, collect_slots=False))
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

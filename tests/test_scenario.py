import ast
import dataclasses
import math
import pathlib
import re
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoesim import scenario
from qoesim.errors import ParseError, ValidationError


def leaf_fields(cls, prefix=""):
    """Dotted paths and types of a config class's non-dataclass fields."""
    out = []
    for name, t in typing.get_type_hints(cls).items():
        if dataclasses.is_dataclass(t):
            out += leaf_fields(t, f"{prefix}{name}.")
        else:
            out.append((prefix + name, t))
    return out


# the float and tuple-of-float fields of the config
FLOAT_LEAVES = [key for key, t in leaf_fields(scenario.ScenarioConfig)
                if t is float or float in getattr(t, "__args__", ())]


def with_leaf(cfg, key, value):
    """`cfg` with one leaf set to `value`; a tuple leaf gets it in its
    first entry."""
    block, _, name = key.rpartition(".")
    owner = getattr(cfg, block) if block else cfg
    old = getattr(owner, name)
    owner = dataclasses.replace(owner, **{
        name: (value, *old[1:]) if isinstance(old, tuple) else value})
    return dataclasses.replace(cfg, **{block: owner}) if block else owner


def load_text(tmp_path, text, overrides=None):
    p = tmp_path / "scn.cfg"
    p.write_text(text)
    return scenario.load_scenario(str(p), overrides)


class TestLoadScenario:
    def test_minimal_file_fills_defaults(self, tmp_path):
        cfg = load_text(tmp_path, "agent.refit_window = 7\n")
        assert cfg.agent.refit_window == 7
        assert cfg.num_users == 16
        assert cfg.arrival_rate_per_min == 6.0
        assert cfg.edge.capacity_cps == 10e9

    def test_empty_file_equals_default_preset(self, tmp_path):
        cfg = load_text(tmp_path, "# nothing here\n\n")
        assert cfg == scenario.ScenarioConfig()

    def test_speed_bound_violation(self, tmp_path):
        with pytest.raises(ValidationError, match="speed"):
            load_text(tmp_path, "users.speed_max_kmh = 50\n")

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown"):
            load_text(tmp_path, "users.speed_limit = 10\n")

    @pytest.mark.parametrize("text,msg", [
        ("agent.refit_window 7\n", "line 1: expected 'key = value'"),
        # a key set twice is refused, not read last-wins
        ("num_users = 16\n# again\nnum_users=24\n",
         "line 3: num_users is already set on line 1"),
    ], ids=["no-equals", "repeated-key"])
    def test_malformed_line(self, tmp_path, text, msg):
        with pytest.raises(ParseError, match=re.escape(msg)):
            load_text(tmp_path, text)

    def test_overrides_win(self, tmp_path):
        cfg = load_text(tmp_path, "num_users = 16\n", {"num_users": "20"})
        assert cfg.num_users == 20

    def test_paper_mode_restricts_user_counts(self, tmp_path):
        with pytest.raises(ValidationError, match="num_users"):
            load_text(tmp_path, "num_users = 17\n")
        cfg = load_text(tmp_path, "num_users = 17\npreset_mode = free\n")
        assert cfg.num_users == 17

    @pytest.mark.parametrize("key,value", [
        ("catalog.quality_levels_bps", "1000000"),
        ("catalog.quality_levels_bps", "0, 1000000"),
        ("catalog.compute_cost_c0_cps", "0"),
        ("catalog.compute_cost_c1_cps", "0"),
        ("agent.demand_headroom", "0"),
        ("agent.demand_cpu_headroom", "0"),
        ("slicing.quantum_bw_hz", "0"),
        ("slicing.quantum_bw_hz", "-1e6"),
        ("slicing.quantum_cpu_cps", "0"),
        ("train.batch_size", "0"),
        ("train.batch_size", "-4"),
        ("train.replay_capacity", "63"),
        ("train.target_sync", "0"),
        ("train.target_sync", "-1"),
        ("train.hidden_width", "0"),
        ("train.epochs", "-1"),
        ("edge.capacity_cps", "0"),
        ("slicing.window_minutes", "3"),
        ("slicing.window_minutes", "15, 12, 9, 6, 3, 1"),
        ("slicing.window_minutes", "15, 12, 0, -6, 3"),
        ("slicing.window_minutes", "15, 12, 9, 6, 0"),
        ("slicing.wo_da_window_min", "0"),
        ("slicing.wo_da_window_min", "-9"),
        ("agent.share_pool_frac", "-0.5"),
        ("agent.share_pool_frac", "1.5"),
        ("users.swipe_mean_min_per_min", "10"),
        ("users.swipe_mean_max_per_min", "2"),
        ("users.swipe_amp_min_per_min", "4"),
        ("users.swipe_period_max_s", "100"),
        ("users.swipe_period_min_s", "0"),
        ("region.width_m", "419"),
        ("region.height_m", "419"),
        ("sim_duration_s", "725"),
        ("sim_duration_s", "0.5"),
        ("playback.max_buffer_s", "0"),
        ("catalog.quality_levels_bps", "1000000, 1000000"),
        ("catalog.segment_duration_s", "0"),
        ("radio.dl_bandwidth_hz", "0"),
        ("radio.tx_power_dbm", "inf"),
        ("agent.refit_window", "0"),
        ("channel.shadowing_sigma_db", "nan"),
        ("channel.shadowing_sigma_db", "inf"),
        ("channel.noise_density_dbm_hz", "nan"),
        ("channel.noise_density_dbm_hz", "-inf"),
        ("playback.abr_safety", "nan"),
        ("playback.abr_safety", "-inf"),
        ("radio.bs_x_m", "250, nan"),
        ("radio.bs_x_m", "-inf, 750"),
        ("users.speed_min_kmh", "1"),
        ("users.speed_max_kmh", "41"),
        ("users.ela_min", "2"),
        ("users.ela_max", "6"),
        ("users.impact_min", "-1"),
        ("users.impact_max", "0.1"),
        # values that would otherwise run to the end unnoticed
        ("agent.bootstrap_minutes", "-1"),
        ("agent.bootstrap_minutes", "0"),
        ("agent.context_noise", "-0.5"),
        ("playback.abr_safety", "0"),
        ("playback.abr_safety", "-1"),
        ("radio.tx_power_dbm", "-300"),
        ("train.gamma", "1.5"),
        ("train.eps_start", "3"),
        ("train.lr", "-0.1"),
        ("agent.refit_tolerance", "-1"),
        ("slicing.price_mos_per_quantum", "-1"),
        ("agent.demand_margin_mos", "-10"),
    ])
    def test_rejects_field(self, key, value):
        cfg = scenario.parse_overrides({key: value})
        with pytest.raises(ValidationError, match=re.escape(key)):
            scenario.validate_config(cfg)

    def test_rejects_a_bs_index_past_int8(self):
        # the path table stores each user's serving BS as an int8
        coords = ", ".join(["500"] * 128)
        cfg = scenario.parse_overrides({"radio.num_bs": "128", "radio.bs_x_m": coords,
                                        "radio.bs_y_m": coords})
        with pytest.raises(ValidationError, match=re.escape("radio.num_bs")):
            scenario.validate_config(cfg)
        scenario.validate_config(dataclasses.replace(
            cfg, radio=dataclasses.replace(cfg.radio, num_bs=127)))

    def test_rejects_too_few_evaluation_samples(self):
        # one user over three periods would leave the summary's box
        # statistics three QoE samples; a fourth period gives them four
        cfg = scenario.parse_overrides({"preset_mode": "free", "num_users": "1",
                                        "sim_duration_s": "30"})
        with pytest.raises(ValidationError, match="sim_duration_s and num_users"):
            scenario.validate_config(cfg)
        scenario.validate_config(dataclasses.replace(cfg, sim_duration_s=40.0))

    @pytest.mark.parametrize("key", FLOAT_LEAVES)
    def test_rejects_nan_naming_the_field(self, key):
        with pytest.raises(ValidationError, match=re.escape(key)):
            scenario.validate_config(with_leaf(scenario.ScenarioConfig(), key, math.nan))

    def test_rejects_a_bootstrap_shorter_than_two_periods(self):
        # a user's QoE model is fitted from two period samples or more
        # (qoe._unfittable); 15 s is one 15-s period, 30 s two
        cfg = scenario.parse_overrides({"agent.bootstrap_minutes": "0.25",
                                        "playback.eval_period_s": "15"})
        with pytest.raises(ValidationError, match=re.escape("agent.bootstrap_minutes")):
            scenario.validate_config(cfg)
        scenario.validate_config(dataclasses.replace(
            cfg, agent=dataclasses.replace(cfg.agent, bootstrap_minutes=0.5)))

    def test_roundtrip(self, tmp_path):
        cfg = scenario.validate_config(scenario.ScenarioConfig())
        text = scenario.serialize_config(cfg)
        assert load_text(tmp_path, text) == cfg

    def test_roundtrip_nondefault(self, tmp_path):
        cfg = scenario.parse_overrides({
            "num_users": "24", "radio.tx_power_dbm": "18.5",
            "users.complexity_increases_with_speed": "false",
            "catalog.quality_levels_bps": "500000, 1500000, 3000000",
        })
        assert load_text(tmp_path, scenario.serialize_config(cfg)) == cfg

    def test_config_hash_stable(self):
        c1, c2 = scenario.ScenarioConfig(), scenario.ScenarioConfig()
        assert scenario.config_hash(c1) == scenario.config_hash(c2)
        c3 = scenario.parse_overrides({"agent.refit_window": "9"})
        assert scenario.config_hash(c3) != scenario.config_hash(c1)


def values_past(bound, t):
    """The values of type `t` (int or float) just outside each finite end
    of an interval bound: an open end itself, else the next value out."""
    out = []
    for end, outward, is_open in ((bound.lo, -math.inf, bound.text[0] == "("),
                                  (bound.hi, math.inf, bound.text[-1] == ")")):
        if math.isfinite(end):
            if is_open:
                out.append(t(end))
            elif t is int:
                out.append(int(end) + (1 if outward > 0 else -1))
            else:
                out.append(math.nextafter(end, outward))
    return out


LEAF_TYPES = dict(leaf_fields(scenario.ScenarioConfig))


class TestDeclaredBounds:
    def test_every_leaf_declares_a_bound(self):
        leaves = list(scenario._leaves(scenario.ScenarioConfig()))
        assert len(leaves) == len(LEAF_TYPES)
        assert [key for key, _, bound in leaves if bound is None] == []

    @pytest.mark.parametrize("key", sorted(LEAF_TYPES))
    def test_a_value_just_past_each_end_names_the_field(self, key):
        cfg = scenario.ScenarioConfig()
        bound = {k: b for k, _, b in scenario._leaves(cfg)}[key]
        t = LEAF_TYPES[key]
        t = t.__args__[0] if typing.get_origin(t) is tuple else t
        past = [None] if isinstance(bound, tuple) else values_past(bound, t)
        for x in past:
            assert x not in bound
            with pytest.raises(ValidationError, match=re.escape(key)) as exc:
                scenario.validate_config(with_leaf(cfg, key, x))
            assert str(bound) in str(exc.value)


class TestConfigFieldsRead:
    def test_every_leaf_field_is_read(self):
        # a config field that no package code reads as an attribute is a
        # knob that changes nothing but the config hash
        src = pathlib.Path(scenario.__file__).parent
        read = {node.attr for path in src.rglob("*.py")
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        unread = [key for key, _ in leaf_fields(scenario.ScenarioConfig)
                  if key.rpartition(".")[2] not in read]
        assert unread == []


def field_values(t):
    """Finite values of one config field's type."""
    if t is bool:
        return st.booleans()
    if t is int:
        return st.integers(-10**12, 10**12)
    if t is float:
        return st.floats(allow_nan=False, allow_infinity=False)
    if t is str:  # no spaces, comment marks or line breaks in the file syntax
        return st.text("abcdefghijklmnopqrstuvwxyz_-", max_size=12)
    elem, *rest = t.__args__
    if rest == [Ellipsis]:
        return st.lists(field_values(elem), max_size=6).map(tuple)
    return st.tuples(*(field_values(a) for a in t.__args__))


@st.composite
def configs(draw):
    cfg = scenario.ScenarioConfig()
    top = {}
    for name, t in typing.get_type_hints(scenario.ScenarioConfig).items():
        if dataclasses.is_dataclass(t):
            block = {n: draw(field_values(bt))
                     for n, bt in typing.get_type_hints(t).items()}
            top[name] = dataclasses.replace(getattr(cfg, name), **block)
        else:
            top[name] = draw(field_values(t))
    return dataclasses.replace(cfg, **top)


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(configs())
    def test_serialize_then_parse_gives_the_config(self, cfg):
        text = scenario.serialize_config(cfg)
        assert scenario.parse_overrides(scenario.parse_scenario_text(text)) == cfg


class TestSampleUsers:
    def test_deterministic_under_seed(self):
        cfg = scenario.ScenarioConfig()
        p1 = scenario.sample_users(cfg, np.random.default_rng(1))
        p2 = scenario.sample_users(cfg, np.random.default_rng(1))
        assert p1 == p2

    def test_structure_round_robin_counts(self):
        cfg = scenario.ScenarioConfig()
        profiles = scenario.sample_users(cfg, np.random.default_rng(2))
        counts = {s: sum(p.structure_index == s for p in profiles) for s in (1, 2, 3)}
        assert counts == {1: 6, 2: 5, 3: 5}

    def test_ela_distribution_mean(self):
        cfg = scenario.parse_overrides({"num_users": "10000", "preset_mode": "free"})
        profiles = scenario.sample_users(cfg, np.random.default_rng(3))
        elas = [p.ela for p in profiles]
        assert abs(np.mean(elas) - 4.0) < 0.02

    def test_profile_invariants_over_seeds(self):
        # the default config and the valid configs whose ranges are one point
        for over in ({}, {"users.speed_min_kmh": "2", "users.speed_max_kmh": "2"},
                     {"users.speed_min_kmh": "40", "users.speed_max_kmh": "40"},
                     {"users.ela_min": "3", "users.ela_max": "3"},
                     {"users.ela_min": "5", "users.ela_max": "5"},
                     {"users.impact_min": "0", "users.impact_max": "0"}):
            cfg = scenario.validate_config(scenario.parse_overrides(over))
            u = cfg.users
            w, h = cfg.region.width_m, cfg.region.height_m
            for seed in range(25):
                for p in scenario.sample_users(cfg, np.random.default_rng(seed)):
                    assert u.speed_min_kmh <= p.speed_kmh <= u.speed_max_kmh
                    assert u.ela_min <= p.ela <= u.ela_max
                    assert p.structure_index in (1, 2, 3)
                    assert all(u.impact_min <= v <= u.impact_max
                               for v in p.true_impact_params)
                    assert len(p.waypoints) == 5
                    assert all(0 <= x <= w and 0 <= y <= h for x, y in p.waypoints)
                    assert p.waypoints[0] == p.waypoints[-1]

    def test_smallest_valid_region_holds_every_loop(self):
        side = "420"
        cfg = scenario.validate_config(scenario.parse_overrides(
            {"region.width_m": side, "region.height_m": side}))
        for seed in range(40):
            for p in scenario.sample_users(cfg, np.random.default_rng(seed)):
                assert all(0 <= x <= 420 and 0 <= y <= 420 for x, y in p.waypoints)


class TestDomainTypes:
    def test_catalog_quality_mapping(self):
        cat = scenario.ScenarioConfig().catalog
        assert cat.quality_of(500e3) == 0.0
        assert cat.quality_of(3e6) == 1.0
        assert cat.quality_of(1.75e6) == pytest.approx(0.5)

    def test_eval_slots_is_the_one_slot_count_of_the_evaluation(self):
        cfg = scenario.parse_overrides({"sim_duration_s": "720", "slot_s": "0.25"})
        assert cfg.eval_slots() == 2880
        # every other reader of the duration asks eval_slots for the count
        src = pathlib.Path(scenario.__file__).parent
        for path in src.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                        and getattr(node.left, "attr", None) == "sim_duration_s"):
                    assert getattr(node.left.value, "id", None) == "self", path.stem


# the functions that may raise ValidationError: config invariants live in
# validate_config
VALIDATORS = {"scenario.validate_config", "scenario.parse_overrides"}


def raised_name(exc: ast.expr | None) -> str | None:
    """The name of a raised class or of the class a raise calls."""
    node = exc.func if isinstance(exc, ast.Call) else exc
    return getattr(node, "id", getattr(node, "attr", None))


def validation_raisers(tree: ast.AST, prefix: str) -> set[str]:
    """Dotted paths of the functions and methods under `tree` that raise
    ValidationError themselves."""
    out = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            path = f"{prefix}.{node.name}"
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(sub, ast.Raise) and raised_name(sub.exc) == "ValidationError"
                    for sub in ast.walk(node)):
                out.add(path)
            out |= validation_raisers(node, path)
    return out


class TestConfigChecksInOnePlace:
    def test_only_the_validators_raise_validation_error(self):
        src = pathlib.Path(scenario.__file__).parent
        raisers = set()
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            raisers |= validation_raisers(tree, path.stem)
        assert sorted(raisers - VALIDATORS) == []
        # an allowance that no longer raises goes
        assert VALIDATORS <= raisers

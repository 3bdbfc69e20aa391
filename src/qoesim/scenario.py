"""Domain entities and experiment configuration.

Configs are dataclass trees with the video-streaming case-study values as
defaults.  Files use a flat hierarchical key-value syntax, one dotted path
per line (`channel.shadowing_sigma_db = 4.0`); the same paths work as CLI
overrides via `--set`.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import typing
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ParseError, ValidationError
from .qoe import STRUCTURES

PAPER_USER_COUNTS = (16, 18, 20, 22, 24)
# a patrol loop's half-sides (metres) and its margin inside the region
_LOOP_HALF_MIN_M = 60.0
_LOOP_HALF_MAX_M = 200.0
_LOOP_MARGIN_M = 10.0
_MIN_REGION_SIDE_M = 2.0 * (_LOOP_HALF_MAX_M + _LOOP_MARGIN_M)

# Free-space reference loss at 1 m for a 700 MHz carrier: 20*log10(4*pi/lambda).
_REF_LOSS_700MHZ_DB = 20.0 * math.log10(4.0 * math.pi * 700e6 / 299792458.0)


@dataclass(frozen=True)
class BaseStation:
    id: int
    position: tuple[float, float]  # meters
    dl_bandwidth_hz: float
    tx_power_dbm: float


@dataclass(frozen=True)
class UserProfile:
    id: int
    waypoints: tuple[tuple[float, float], ...]  # closed loop, meters
    speed_kmh: float
    swipe_rate_params: tuple[float, float, float]  # (mean, amplitude, period_s), rate per minute
    ela: float
    structure_index: int
    true_impact_params: tuple[float, float]


# --- config blocks -----------------------------------------------------------

@dataclass(frozen=True)
class RadioConfig:
    num_bs: int = 2
    bs_x_m: tuple[float, ...] = (250.0, 750.0)
    bs_y_m: tuple[float, ...] = (500.0, 500.0)
    dl_bandwidth_hz: float = 20e6
    tx_power_dbm: float = 12.0


@dataclass(frozen=True)
class EdgeConfig:
    capacity_cps: float = 10e9  # cycles per second


@dataclass(frozen=True)
class CatalogConfig:
    quality_levels_bps: tuple[float, ...] = (500e3, 1e6, 1.5e6, 2e6, 2.5e6, 3e6)
    segment_duration_s: float = 1.0
    # transcode cost in cycles per video-second: c0 + c1 * normalized quality
    compute_cost_c0_cps: float = 0.1e9
    compute_cost_c1_cps: float = 0.4e9

    @property
    def min_bitrate(self) -> float:
        return self.quality_levels_bps[0]

    @property
    def max_bitrate(self) -> float:
        return self.quality_levels_bps[-1]

    def quality_of(self, bitrate_bps: float) -> float:
        """Normalized quality of a level: 0 at the min tier, 1 at the max."""
        return (bitrate_bps - self.min_bitrate) / (self.max_bitrate - self.min_bitrate)

    def compute_cost_cps(self, bitrate_bps: float) -> float:
        """Cycles/s to transcode this tier in real time."""
        return (self.compute_cost_c0_cps
                + self.compute_cost_c1_cps * self.quality_of(bitrate_bps))


@dataclass(frozen=True)
class ChannelConfig:
    path_loss_exponent: float = 3.0
    ref_loss_db: float = _REF_LOSS_700MHZ_DB
    shadowing_sigma_db: float = 4.0
    noise_density_dbm_hz: float = -167.0  # thermal floor plus receiver noise figure


@dataclass(frozen=True)
class UserConfig:
    speed_min_kmh: float = 2.0
    speed_max_kmh: float = 40.0
    ela_min: float = 3.0
    ela_max: float = 5.0
    impact_min: float = 0.2
    impact_max: float = 1.0
    swipe_mean_min_per_min: float = 3.0
    swipe_mean_max_per_min: float = 9.0
    swipe_amp_min_per_min: float = 1.0
    swipe_amp_max_per_min: float = 3.0
    swipe_period_min_s: float = 120.0
    swipe_period_max_s: float = 600.0
    max_swipe_rate_per_min: float = 30.0
    # The complexity-vs-velocity sign is configurable; default maps faster
    # movement to higher complexity.
    complexity_increases_with_speed: bool = True


@dataclass(frozen=True)
class RegionConfig:
    width_m: float = 1000.0
    height_m: float = 1000.0


@dataclass(frozen=True)
class PlaybackConfig:
    max_buffer_s: float = 30.0
    abr_safety: float = 0.8
    eval_period_s: float = 10.0


@dataclass(frozen=True)
class AgentConfig:
    epoch_slots: int = 10
    demand_headroom: float = 1.3
    # transcode-capacity multiple over the steady-state tier cost, covering
    # post-swipe catch-up bursts (1.0 = provision exactly real-time cost)
    demand_cpu_headroom: float = 1.6
    # demand targets sit this far above the ELA so the sampled window mean
    # clears the threshold despite generator noise (0 = aim exactly at ELA)
    demand_margin_mos: float = 0.25
    bootstrap_minutes: float = 12.0
    refit_tolerance: float = 1.5
    refit_window: int = 120
    context_noise: float = 0.05
    # fraction of the reserved pool the group policy may redistribute
    # each epoch
    share_pool_frac: float = 0.25


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2000
    lr: float = 0.003
    gamma: float = 0.9
    eps_start: float = 1.0
    eps_end: float = 0.05
    batch_size: int = 64
    replay_capacity: int = 10_000
    target_sync: int = 200
    hidden_width: int = 64


@dataclass(frozen=True)
class SlicingConfig:
    quantum_bw_hz: float = 1e6
    quantum_cpu_cps: float = 0.5e9
    price_mos_per_quantum: float = 0.05
    # Dynamics-score stage boundaries: quintiles of a 20-seed calibration run
    # on the default scenario; stages map to windows of 15, 12, 9, 6, 3 min.
    dynamics_thresholds: tuple[float, float, float, float] = (0.735, 0.85, 0.88, 0.94)
    window_minutes: tuple[float, ...] = (15.0, 12.0, 9.0, 6.0, 3.0)
    wo_da_window_min: float = 9.0


@dataclass(frozen=True)
class ScenarioConfig:
    num_users: int = 16
    arrival_rate_per_min: float = 6.0  # video requests per minute per user
    sim_duration_s: float = 1800.0
    slot_s: float = 1.0
    preset_mode: str = "paper"  # "paper" restricts num_users to the study set
    radio: RadioConfig = field(default_factory=RadioConfig)
    edge: EdgeConfig = field(default_factory=EdgeConfig)
    catalog: CatalogConfig = field(default_factory=CatalogConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    users: UserConfig = field(default_factory=UserConfig)
    region: RegionConfig = field(default_factory=RegionConfig)
    playback: PlaybackConfig = field(default_factory=PlaybackConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    slicing: SlicingConfig = field(default_factory=SlicingConfig)

    def base_stations(self) -> list[BaseStation]:
        return [BaseStation(i, (self.radio.bs_x_m[i], self.radio.bs_y_m[i]),
                            self.radio.dl_bandwidth_hz, self.radio.tx_power_dbm)
                for i in range(self.radio.num_bs)]

    def bw_caps(self) -> dict[int, float]:
        """Each BS's downlink bandwidth, by BS id: the hardware caps."""
        return {b.id: b.dl_bandwidth_hz for b in self.base_stations()}

    def period_slots(self) -> int:
        """Slots per QoE evaluation period (at least one)."""
        return max(int(round(self.playback.eval_period_s / self.slot_s)), 1)

    def eval_slots(self) -> int:
        """Slots of the frozen evaluation."""
        return int(self.sim_duration_s / self.slot_s)


def _coerce(raw: str, target_type, key: str):
    raw = raw.strip()
    if target_type is int:
        try:
            return int(raw)
        except ValueError as e:
            raise ParseError(f"{key}: expected integer, got {raw!r}") from e
    if target_type is float:
        try:
            return float(raw)
        except ValueError as e:
            raise ParseError(f"{key}: expected number, got {raw!r}") from e
    if target_type is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ParseError(f"{key}: expected boolean, got {raw!r}")
    if target_type is str:
        return raw
    # remaining cases are tuples of numbers
    origin = getattr(target_type, "__origin__", None)
    if origin is tuple:
        elem = target_type.__args__[0]
        parts = [p for p in raw.split(",") if p.strip()]
        return tuple(_coerce(p, elem, key) for p in parts)
    raise ParseError(f"{key}: unsupported field type {target_type}")


def parse_overrides(pairs: dict[str, str]) -> ScenarioConfig:
    """Apply dotted-path string overrides onto the default config."""
    cfg = ScenarioConfig()
    top = typing.get_type_hints(ScenarioConfig)
    block_updates: dict[str, dict] = {}
    top_updates: dict = {}
    for key, raw in pairs.items():
        parts = key.split(".")
        if len(parts) == 1:
            name = parts[0]
            if name not in top or dataclasses.is_dataclass(getattr(cfg, name)):
                raise ValidationError(f"unknown config key: {key}")
            top_updates[name] = _coerce(raw, top[name], key)
        elif len(parts) == 2:
            block, name = parts
            if block not in top or not dataclasses.is_dataclass(getattr(cfg, block)):
                raise ValidationError(f"unknown config block: {block}")
            sub_types = typing.get_type_hints(type(getattr(cfg, block)))
            if name not in sub_types:
                raise ValidationError(f"unknown config key: {key}")
            block_updates.setdefault(block, {})[name] = _coerce(
                raw, sub_types[name], key)
        else:
            raise ParseError(f"config keys have at most one dot: {key}")
    for block, updates in block_updates.items():
        top_updates[block] = replace(getattr(cfg, block), **updates)
    return replace(cfg, **top_updates)


def parse_scenario_text(text: str) -> dict[str, str]:
    """Parse the key-value syntax into a raw {dotted path: string} map."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ParseError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """Check every invariant; messages name the offending field."""
    for key, val in _leaves(cfg):
        # every comparison below is false for nan
        if any(isinstance(x, float) and not math.isfinite(x)
               for x in (val if isinstance(val, tuple) else (val,))):
            raise ValidationError(f"{key} must be finite")
    if cfg.preset_mode not in ("paper", "free"):
        raise ValidationError("preset_mode must be 'paper' or 'free'")
    if cfg.preset_mode == "paper" and cfg.num_users not in PAPER_USER_COUNTS:
        raise ValidationError(
            f"num_users: {cfg.num_users} not in {PAPER_USER_COUNTS} (use preset_mode=free)")
    if cfg.num_users <= 0:
        raise ValidationError("num_users must be positive")
    if cfg.arrival_rate_per_min <= 0:
        raise ValidationError("arrival_rate_per_min must be > 0")
    if cfg.slot_s <= 0:
        raise ValidationError("slot_s must be > 0")
    if cfg.sim_duration_s <= 0:
        raise ValidationError("sim_duration_s must be > 0")
    r = cfg.radio
    if r.num_bs < 1 or len(r.bs_x_m) < r.num_bs or len(r.bs_y_m) < r.num_bs:
        raise ValidationError("radio.num_bs exceeds provided coordinates")
    if r.num_bs > 127:  # netsim.UserPaths stores a serving BS as an int8
        raise ValidationError("radio.num_bs must be <= 127")
    if r.dl_bandwidth_hz <= 0:
        raise ValidationError("radio.dl_bandwidth_hz must be > 0")
    u = cfg.users
    if not (2.0 <= u.speed_min_kmh <= u.speed_max_kmh <= 40.0):
        raise ValidationError("users.speed_min_kmh <= users.speed_max_kmh must lie in "
                              f"[2, 40], got [{u.speed_min_kmh}, {u.speed_max_kmh}]")
    if not (3.0 <= u.ela_min <= u.ela_max <= 5.0):
        raise ValidationError("users.ela_min <= users.ela_max must lie in [3, 5]")
    if not 0.0 <= u.impact_min <= u.impact_max:
        raise ValidationError("users.impact_min <= users.impact_max must be >= 0")
    if u.max_swipe_rate_per_min <= 0:
        raise ValidationError("users.max_swipe_rate_per_min must be > 0")
    if u.swipe_period_min_s <= 0:  # the swipe sinusoid divides by its period
        raise ValidationError("users.swipe_period_min_s must be > 0")
    for lo, hi in (("swipe_mean_min_per_min", "swipe_mean_max_per_min"),
                   ("swipe_amp_min_per_min", "swipe_amp_max_per_min"),
                   ("swipe_period_min_s", "swipe_period_max_s")):
        if getattr(u, lo) > getattr(u, hi):
            raise ValidationError(f"users.{lo} must not exceed users.{hi}")
    for side in ("width_m", "height_m"):
        if getattr(cfg.region, side) < _MIN_REGION_SIDE_M:
            raise ValidationError(f"region.{side} must be >= {_MIN_REGION_SIDE_M:g} "
                                  "to hold the largest patrol loop")
    if cfg.channel.path_loss_exponent < 2.0:
        raise ValidationError("channel.path_loss_exponent must be >= 2")
    if cfg.channel.shadowing_sigma_db < 0:
        raise ValidationError("channel.shadowing_sigma_db must be >= 0")
    if cfg.playback.eval_period_s < cfg.slot_s:
        raise ValidationError("playback.eval_period_s must span at least one slot")
    # the evaluation advances whole periods: a partial one would run past the end
    total_slots, period = cfg.eval_slots(), cfg.period_slots()
    if total_slots < period or total_slots % period:
        raise ValidationError(f"sim_duration_s must span a positive whole number of "
                              f"evaluation periods ({period} slots each)")
    # the summary's box statistics need four QoE samples, one per user and period
    samples = cfg.num_users * (total_slots // period)
    if samples < 4:
        raise ValidationError(f"sim_duration_s and num_users give {samples} evaluation "
                              "samples (one per user and period), need >= 4")
    if cfg.playback.max_buffer_s <= 0:
        raise ValidationError("playback.max_buffer_s must be > 0")
    if cfg.edge.capacity_cps <= 0:
        raise ValidationError("edge.capacity_cps must be > 0")
    if cfg.agent.epoch_slots < 1:
        raise ValidationError("agent.epoch_slots must be >= 1")
    if cfg.agent.refit_window < 1:
        raise ValidationError("agent.refit_window must be >= 1")
    if not 0.0 <= cfg.agent.share_pool_frac <= 1.0:
        raise ValidationError("agent.share_pool_frac must lie in [0, 1]")
    # the planning utility divides by the tier span, the lowest tier, both
    # compute-cost coefficients and both demand headrooms
    cat = cfg.catalog
    lv = cat.quality_levels_bps
    if len(lv) < 2:
        raise ValidationError("catalog.quality_levels_bps needs at least two tiers")
    if any(b >= a for a, b in zip(lv[1:], lv)):
        raise ValidationError("catalog.quality_levels_bps must be strictly increasing")
    if lv[0] <= 0:
        raise ValidationError("catalog.quality_levels_bps must be > 0")
    if cat.segment_duration_s <= 0:
        raise ValidationError("catalog.segment_duration_s must be > 0")
    if cat.compute_cost_c0_cps <= 0:
        raise ValidationError("catalog.compute_cost_c0_cps must be > 0")
    if cat.compute_cost_c1_cps <= 0:
        raise ValidationError("catalog.compute_cost_c1_cps must be > 0")
    if cfg.agent.demand_headroom <= 0:
        raise ValidationError("agent.demand_headroom must be > 0")
    if cfg.agent.demand_cpu_headroom <= 0:
        raise ValidationError("agent.demand_cpu_headroom must be > 0")
    if cfg.train.batch_size <= 0:
        raise ValidationError("train.batch_size must be > 0")
    if cfg.train.replay_capacity < cfg.train.batch_size:
        # a buffer that never holds a batch never trains
        raise ValidationError("train.replay_capacity must be >= train.batch_size")
    if cfg.train.target_sync <= 0:
        raise ValidationError("train.target_sync must be > 0")
    if cfg.train.hidden_width <= 0:
        raise ValidationError("train.hidden_width must be > 0")
    if cfg.train.epochs < 0:
        raise ValidationError("train.epochs must be >= 0")
    if cfg.slicing.quantum_bw_hz <= 0:
        raise ValidationError("slicing.quantum_bw_hz must be > 0")
    if cfg.slicing.quantum_cpu_cps <= 0:
        raise ValidationError("slicing.quantum_cpu_cps must be > 0")
    th = cfg.slicing.dynamics_thresholds
    if any(b < a for a, b in zip(th, th[1:])):
        raise ValidationError("slicing.dynamics_thresholds must be nondecreasing")
    # each dynamics stage picks one window length
    if len(cfg.slicing.window_minutes) != len(th) + 1:
        raise ValidationError(f"slicing.window_minutes needs {len(th) + 1} "
                              "entries, one per dynamics stage")
    if any(w <= 0 for w in cfg.slicing.window_minutes):
        raise ValidationError("slicing.window_minutes entries must be > 0")
    if cfg.slicing.wo_da_window_min <= 0:
        raise ValidationError("slicing.wo_da_window_min must be > 0")
    return cfg


def load_scenario(path: str, overrides: dict[str, str] | None = None) -> ScenarioConfig:
    """Load, override, and validate a scenario config file."""
    with open(path, "r", encoding="utf-8") as fh:
        pairs = parse_scenario_text(fh.read())
    if overrides:
        pairs.update(overrides)
    return validate_config(parse_overrides(pairs))


def _leaves(cfg: ScenarioConfig):
    """(dotted path, value) of every config field, in declaration order."""
    for f in fields(ScenarioConfig):
        val = getattr(cfg, f.name)
        if dataclasses.is_dataclass(val):
            for sub in fields(val):
                yield f"{f.name}.{sub.name}", getattr(val, sub.name)
        else:
            yield f.name, val


def serialize_config(cfg: ScenarioConfig) -> str:
    """Emit the full config in the file syntax (stable key order)."""
    return "".join(f"{key} = {_fmt(val)}\n" for key, val in _leaves(cfg))


def _fmt(v) -> str:
    if isinstance(v, tuple):
        return ", ".join(_fmt(x) for x in v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def config_hash(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]


def _rect_loop(rng: np.random.Generator, region: RegionConfig) -> tuple[tuple[float, float], ...]:
    """Rectangular patrol loop fully inside the region."""
    half_w = rng.uniform(_LOOP_HALF_MIN_M, _LOOP_HALF_MAX_M)
    half_h = rng.uniform(_LOOP_HALF_MIN_M, _LOOP_HALF_MAX_M)
    cx = rng.uniform(half_w + _LOOP_MARGIN_M, region.width_m - half_w - _LOOP_MARGIN_M)
    cy = rng.uniform(half_h + _LOOP_MARGIN_M, region.height_m - half_h - _LOOP_MARGIN_M)
    corners = ((cx - half_w, cy - half_h), (cx + half_w, cy - half_h),
               (cx + half_w, cy + half_h), (cx - half_w, cy + half_h))
    start = int(rng.integers(0, 4))
    loop = corners[start:] + corners[:start]
    return loop + (loop[0],)


def sample_users(cfg: ScenarioConfig, rng: np.random.Generator) -> list[UserProfile]:
    """Draw the ground-truth user population for one scenario."""
    u = cfg.users
    profiles = []
    for i in range(cfg.num_users):
        waypoints = _rect_loop(rng, cfg.region)
        speed = rng.uniform(u.speed_min_kmh, u.speed_max_kmh)
        # swipe cadence centered on the configured arrival rate
        shift = cfg.arrival_rate_per_min - 0.5 * (u.swipe_mean_min_per_min
                                                  + u.swipe_mean_max_per_min)
        mean = rng.uniform(u.swipe_mean_min_per_min, u.swipe_mean_max_per_min) + shift
        amp = rng.uniform(u.swipe_amp_min_per_min, u.swipe_amp_max_per_min)
        period = rng.uniform(u.swipe_period_min_s, u.swipe_period_max_s)
        ela = rng.uniform(u.ela_min, u.ela_max)
        alpha = rng.uniform(u.impact_min, u.impact_max)
        beta = rng.uniform(u.impact_min, u.impact_max)
        profiles.append(UserProfile(
            id=i,
            waypoints=waypoints,
            speed_kmh=speed,
            swipe_rate_params=(max(mean, 0.5), amp, period),
            ela=ela,
            structure_index=STRUCTURES[i % len(STRUCTURES)],
            true_impact_params=(alpha, beta),
        ))
    return profiles

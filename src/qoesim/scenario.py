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

class _Interval:
    """The numbers between two ends, written as in maths: "(0, inf)", "[2, 40]"."""

    def __init__(self, text: str):
        self.text = text
        self.lo, self.hi = (float(end) for end in text[1:-1].split(","))

    def __contains__(self, x) -> bool:
        return ((self.lo < x) if self.text[0] == "(" else (self.lo <= x)) and (
            (x < self.hi) if self.text[-1] == ")" else (x <= self.hi))

    def __str__(self) -> str:
        if self.hi < math.inf:
            return f"in {self.text}"
        return f"{'>' if self.text[0] == '(' else '>='} {self.lo:g}"


class _OneOf(tuple):
    def __str__(self) -> str:
        return "one of " + ", ".join(map(repr, self))


def _bounded(default, bound: str | tuple):
    """A config field whose value, or each entry of a tuple value, lies in
    `bound`, an `_Interval`'s text or the tuple of the allowed values."""
    return field(default=default, metadata={
        "bound": _Interval(bound) if isinstance(bound, str) else _OneOf(bound)})


@dataclass(frozen=True)
class RadioConfig:
    num_bs: int = _bounded(2, "[1, 127]")  # netsim.UserPaths stores a serving BS as an int8
    # a BS may stand outside the users' region
    bs_x_m: tuple[float, ...] = _bounded((250.0, 750.0), "(-inf, inf)")
    bs_y_m: tuple[float, ...] = _bounded((500.0, 500.0), "(-inf, inf)")
    dl_bandwidth_hz: float = _bounded(20e6, "(0, inf)")
    # 1 mW to 1 kW: small cells send about 20 dBm, macro cells about 46 dBm
    tx_power_dbm: float = _bounded(12.0, "[0, 60]")


@dataclass(frozen=True)
class EdgeConfig:
    capacity_cps: float = _bounded(10e9, "(0, inf)")  # cycles per second


@dataclass(frozen=True)
class CatalogConfig:
    # the planning utility divides by the lowest tier and the tier span
    quality_levels_bps: tuple[float, ...] = _bounded(
        (500e3, 1e6, 1.5e6, 2e6, 2.5e6, 3e6), "(0, inf)")
    segment_duration_s: float = _bounded(1.0, "(0, inf)")
    # transcode cycles per video-second, c0 + c1 * normalized quality; the
    # planning utility divides by both
    compute_cost_c0_cps: float = _bounded(0.1e9, "(0, inf)")
    compute_cost_c1_cps: float = _bounded(0.4e9, "(0, inf)")

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
    path_loss_exponent: float = _bounded(3.0, "[2, inf)")  # 2 is free space
    # a loss: free space at 1 m loses 20*log10(4*pi*f/c) >= 0 dB above 24 MHz
    ref_loss_db: float = _bounded(_REF_LOSS_700MHZ_DB, "[0, inf)")
    shadowing_sigma_db: float = _bounded(4.0, "[0, inf)")
    # thermal floor (kT at 290 K: -174 dBm/Hz) plus receiver noise figure
    noise_density_dbm_hz: float = _bounded(-167.0, "[-174, inf)")


@dataclass(frozen=True)
class UserConfig:
    speed_min_kmh: float = _bounded(2.0, "[2, 40]")
    speed_max_kmh: float = _bounded(40.0, "[2, 40]")
    ela_min: float = _bounded(3.0, "[3, 5]")
    ela_max: float = _bounded(5.0, "[3, 5]")
    impact_min: float = _bounded(0.2, "[0, inf)")
    impact_max: float = _bounded(1.0, "[0, inf)")
    swipe_mean_min_per_min: float = _bounded(3.0, "[0, inf)")
    swipe_mean_max_per_min: float = _bounded(9.0, "[0, inf)")
    swipe_amp_min_per_min: float = _bounded(1.0, "[0, inf)")
    swipe_amp_max_per_min: float = _bounded(3.0, "[0, inf)")
    # the swipe sinusoid divides by its period
    swipe_period_min_s: float = _bounded(120.0, "(0, inf)")
    swipe_period_max_s: float = _bounded(600.0, "(0, inf)")
    max_swipe_rate_per_min: float = _bounded(30.0, "(0, inf)")
    # The complexity-vs-velocity sign is configurable; default maps faster
    # movement to higher complexity.
    complexity_increases_with_speed: bool = _bounded(True, (True, False))


@dataclass(frozen=True)
class RegionConfig:
    # a side holds the largest patrol loop
    width_m: float = _bounded(1000.0, f"[{_MIN_REGION_SIDE_M:g}, inf)")
    height_m: float = _bounded(1000.0, f"[{_MIN_REGION_SIDE_M:g}, inf)")


@dataclass(frozen=True)
class PlaybackConfig:
    max_buffer_s: float = _bounded(30.0, "(0, inf)")
    # the ABR spends this share of the measured rate, never more than all of it
    abr_safety: float = _bounded(0.8, "(0, 1]")
    eval_period_s: float = _bounded(10.0, "(0, inf)")


@dataclass(frozen=True)
class AgentConfig:
    # the planning utility divides by both demand headrooms
    demand_headroom: float = _bounded(1.3, "(0, inf)")
    # transcode-capacity multiple over the steady-state tier cost, covering
    # post-swipe catch-up bursts (1.0 = provision exactly real-time cost)
    demand_cpu_headroom: float = _bounded(1.6, "(0, inf)")
    # demand targets sit this far above the ELA so the sampled window mean
    # clears the threshold despite generator noise (0 = aim exactly at ELA)
    demand_margin_mos: float = _bounded(0.25, "[0, inf)")
    bootstrap_minutes: float = _bounded(12.0, "(0, inf)")
    refit_tolerance: float = _bounded(1.5, "[0, inf)")
    refit_window: int = _bounded(120, "[1, inf)")
    context_noise: float = _bounded(0.05, "[0, inf)")  # a standard deviation
    # fraction of the reserved pool the group policy may redistribute
    # each epoch
    share_pool_frac: float = _bounded(0.25, "[0, 1]")


@dataclass(frozen=True)
class TrainConfig:
    # an epoch is one QoE period (playback.eval_period_s); 0 trains nothing;
    # else whole episodes of runner.TRAIN_EPISODE_MINUTES (18 epochs at the
    # 10-s period), at least one: 25 -> 18, 250 -> 252, 2000 -> 1998, 1 -> 18
    epochs: int = _bounded(2000, "[0, inf)")
    # a step against the gradient
    lr: float = _bounded(0.003, "(0, inf)")
    # from 1 on, the TD targets can grow without bound
    gamma: float = _bounded(0.9, "[0, 1)")
    eps_start: float = _bounded(1.0, "[0, 1]")  # probabilities
    eps_end: float = _bounded(0.05, "[0, 1]")
    batch_size: int = _bounded(64, "[1, inf)")
    replay_capacity: int = _bounded(10_000, "[1, inf)")
    target_sync: int = _bounded(200, "[1, inf)")
    hidden_width: int = _bounded(64, "[1, inf)")


@dataclass(frozen=True)
class SlicingConfig:
    quantum_bw_hz: float = _bounded(1e6, "(0, inf)")
    quantum_cpu_cps: float = _bounded(0.5e9, "(0, inf)")
    price_mos_per_quantum: float = _bounded(0.05, "[0, inf)")
    # Dynamics-score stage boundaries: quintiles of a 20-seed calibration run
    # on the default scenario; stages map to windows of 15, 12, 9, 6, 3 min.
    # The score, a sum of standard deviations, is never negative.
    dynamics_thresholds: tuple[float, ...] = _bounded(
        (0.735, 0.85, 0.88, 0.94), "[0, inf)")
    window_minutes: tuple[float, ...] = _bounded((15.0, 12.0, 9.0, 6.0, 3.0), "(0, inf)")
    wo_da_window_min: float = _bounded(9.0, "(0, inf)")


@dataclass(frozen=True)
class ScenarioConfig:
    num_users: int = _bounded(16, "[1, inf)")
    arrival_rate_per_min: float = _bounded(6.0, "(0, inf)")  # requests/min per user
    sim_duration_s: float = _bounded(1800.0, "(0, inf)")
    slot_s: float = _bounded(1.0, "(0, inf)")
    preset_mode: str = _bounded("paper", ("paper", "free"))  # "paper": num_users in the study set
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
        """Slots per QoE evaluation period, the control epoch (at least one)."""
        return max(int(round(self.playback.eval_period_s / self.slot_s)), 1)

    def eval_slots(self) -> int:
        """Slots of the frozen evaluation."""
        return int(self.sim_duration_s / self.slot_s)

    def bootstrap_slots(self) -> int:
        """Slots of the bootstrap that collects the QoE model samples."""
        return int(self.agent.bootstrap_minutes * 60.0 / self.slot_s)


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
    """Parse the key-value syntax into a raw {dotted path: string} map; a
    key may be set once."""
    out: dict[str, str] = {}
    line_of: dict[str, int] = {}
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
        if key in line_of:
            raise ParseError(f"line {lineno}: {key} is already set on line {line_of[key]}")
        line_of[key] = lineno
        out[key] = value.strip()
    return out


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """Check every field against its declared bound, then the rules that
    tie fields together; messages name the offending field."""
    for key, val, bound in _leaves(cfg):
        for x in val if isinstance(val, tuple) else (val,):
            # every bound test is false for nan
            if isinstance(x, float) and not math.isfinite(x):
                raise ValidationError(f"{key} must be finite")
            if x not in bound:
                raise ValidationError(f"{key} must be {bound}, got {x!r}")
    if cfg.preset_mode == "paper" and cfg.num_users not in PAPER_USER_COUNTS:
        raise ValidationError(
            f"num_users: {cfg.num_users} not in {PAPER_USER_COUNTS} (use preset_mode=free)")
    r = cfg.radio
    if len(r.bs_x_m) < r.num_bs or len(r.bs_y_m) < r.num_bs:
        raise ValidationError("radio.num_bs exceeds provided coordinates")
    u = cfg.users
    for lo, hi in (("speed_min_kmh", "speed_max_kmh"), ("ela_min", "ela_max"),
                   ("impact_min", "impact_max"),
                   ("swipe_mean_min_per_min", "swipe_mean_max_per_min"),
                   ("swipe_amp_min_per_min", "swipe_amp_max_per_min"),
                   ("swipe_period_min_s", "swipe_period_max_s")):
        if getattr(u, lo) > getattr(u, hi):
            raise ValidationError(f"users.{lo} must not exceed users.{hi}")
    # the period is the control epoch, and the demand and utility arithmetic
    # reads it in seconds: it must be the whole slots that the world step counts
    total_slots, period = cfg.eval_slots(), cfg.period_slots()
    if not math.isclose(period * cfg.slot_s, cfg.playback.eval_period_s, rel_tol=1e-9):
        raise ValidationError(f"playback.eval_period_s must be a whole number of slots "
                              f"(slot_s = {cfg.slot_s!r} s), one or more")
    # the evaluation advances whole periods: a partial one would run past the end
    if total_slots < period or total_slots % period:
        raise ValidationError(f"sim_duration_s must span a positive whole number of "
                              f"evaluation periods ({period} slots each)")
    # the summary's box statistics need four QoE samples, one per user and period
    samples = cfg.num_users * (total_slots // period)
    if samples < 4:
        raise ValidationError(f"sim_duration_s and num_users give {samples} evaluation "
                              "samples (one per user and period), need >= 4")
    # a user's QoE model is fitted from two period samples or more
    # (qoe._unfittable); whole periods keep each training step's one sample
    # (training starts where the bootstrap ends) to that step's own actions
    boot = cfg.bootstrap_slots()
    if boot < 2 * period or boot % period:
        raise ValidationError(f"agent.bootstrap_minutes must span a whole number of "
                              f"evaluation periods ({period} slots each), two or more")
    lv = cfg.catalog.quality_levels_bps
    if len(lv) < 2:
        raise ValidationError("catalog.quality_levels_bps needs at least two tiers")
    if any(b >= a for a, b in zip(lv[1:], lv)):
        raise ValidationError("catalog.quality_levels_bps must be strictly increasing")
    if cfg.train.replay_capacity < cfg.train.batch_size:
        # a buffer that never holds a batch never trains
        raise ValidationError("train.replay_capacity must be >= train.batch_size")
    th = cfg.slicing.dynamics_thresholds
    if any(b < a for a, b in zip(th, th[1:])):
        raise ValidationError("slicing.dynamics_thresholds must be nondecreasing")
    # each dynamics stage picks one window length
    if len(cfg.slicing.window_minutes) != len(th) + 1:
        raise ValidationError(f"slicing.window_minutes needs {len(th) + 1} "
                              "entries, one per dynamics stage")
    return cfg


def load_scenario(path: str, overrides: dict[str, str] | None = None) -> ScenarioConfig:
    """Load, override, and validate a scenario config file."""
    with open(path, "r", encoding="utf-8") as fh:
        pairs = parse_scenario_text(fh.read())
    if overrides:
        pairs.update(overrides)
    return validate_config(parse_overrides(pairs))


def _leaves(cfg: ScenarioConfig):
    """(dotted path, value, declared bound) of every config field, in
    declaration order."""
    for f in fields(ScenarioConfig):
        val = getattr(cfg, f.name)
        if dataclasses.is_dataclass(val):
            for sub in fields(val):
                yield f"{f.name}.{sub.name}", getattr(val, sub.name), sub.metadata.get("bound")
        else:
            yield f.name, val, f.metadata.get("bound")


def serialize_config(cfg: ScenarioConfig) -> str:
    """Emit the full config in the file syntax (stable key order)."""
    return "".join(f"{key} = {_fmt(val)}\n" for key, val, _ in _leaves(cfg))


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

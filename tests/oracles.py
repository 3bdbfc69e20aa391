"""Scalar reference forms of the formulas that the package writes out inline.

The world step (`netsim.advance_slots`) inlines the rate and playback
arithmetic, and the path table's fill (`netsim.UserPaths._fill`) runs the
path loss, the walk and the swipe process along the slot axis in array
passes.  No run calls a scalar form, so these live with the tests, which
hold the kernel and the fill to them bit for bit.  The `netsim` module
docstring states the same formulas.  The user-level solver's optimality
residual lives here too: no run computes it, and the tests hold the
solver's grants to it.
"""
import math

from qoesim import da1, netsim
from qoesim.scenario import ChannelConfig


def mean_path_loss(distance_m: float, model: ChannelConfig) -> float:
    """Deterministic log-distance component of the path loss."""
    return model.ref_loss_db + 10.0 * model.path_loss_exponent * math.log10(distance_m)


def achievable_rate(bw_hz: float, snr_linear: float) -> float:
    """Shannon rate bw * log2(1 + snr) in bits/second."""
    if bw_hz == 0.0 or snr_linear <= 0.0:
        return 0.0
    return bw_hz * math.log2(1.0 + snr_linear)


def step_playback(buffer_s: float, downloaded_playtime_s: float, slot_s: float,
                  max_buffer_s: float = 30.0) -> tuple[float, float]:
    """Advance playback one slot; returns (buffer', rebuffer_increment)."""
    rebuffer = max(slot_s - buffer_s - downloaded_playtime_s, 0.0)
    new_buffer = min(max(buffer_s + downloaded_playtime_s - slot_s, 0.0), max_buffer_s)
    return new_buffer, rebuffer


def swipe_rate(params: tuple[float, float, float], t_s: float) -> float:
    """Instantaneous swipe/request rate (per minute) of the sinusoid process
    with (mean, amplitude, period_s) parameters."""
    mean, amp, period = params
    return max(mean + amp * math.sin(2.0 * math.pi * t_s / period), 0.0)


def behavior_of_rate(rate_per_min: float, max_swipe_rate_per_min: float) -> float:
    """Behavioral dynamics B of a swipe rate, clamped into [1, 2]."""
    return 1.0 + min(max(rate_per_min / max_swipe_rate_per_min, 0.0), 1.0)


def walker_position(walker: netsim.PathWalker, t_s: float) -> tuple[float, float]:
    """Where the walker stands at time t_s, one leg scanned at a time."""
    if walker.perimeter == 0.0:
        return walker.pts[0]
    s = (walker.speed_mps * t_s) % walker.perimeter
    # linear scan is fine: loops have 4 segments
    for i in range(len(walker.cum) - 1):
        if s <= walker.cum[i + 1]:
            seg_len = walker.cum[i + 1] - walker.cum[i]
            f = (s - walker.cum[i]) / seg_len if seg_len > 0 else 0.0
            x0, y0 = walker.pts[i]
            x1, y1 = walker.pts[i + 1]
            return (x0 + f * (x1 - x0), y0 + f * (y1 - y0))
    return walker.pts[-1]


def env_trace(profile, t_s, max_swipe_rate_per_min, complexity_increases_with_speed):
    """Ground-truth (B, C) at time t_s: B of the profile's swipe rate and the
    package's C of its speed."""
    rate = swipe_rate(profile.swipe_rate_params, t_s)
    return (behavior_of_rate(rate, max_swipe_rate_per_min),
            netsim.complexity_of_speed(profile.speed_kmh,
                                       complexity_increases_with_speed))


def kkt_residual(members, alloc, bw_budget_hz: float, cpu_budget_cps: float) -> float:
    """Projected-gradient KKT residual of the grants `alloc` (user -> (bw,
    cpu)) of `da1.user_allocate` over the two budgets: the largest move of
    a 1e-3 projected step along the planning utility's gradient, per unit
    step, over 1 + the largest gradient entry.  The grants are taken as
    budget fractions and the gradient per fraction; a zero budget has a zero
    gradient.  The residual is 0 where no feasible move gains utility."""
    eta = 1e-3
    grads = [da1.utility_value_grad(c, *alloc[c.user])[1:] for c in members]
    moves, top = [], 0.0
    for idx, budget in enumerate((bw_budget_hz, cpu_budget_cps)):
        x = [alloc[c.user][idx] / budget if budget > 0.0 else 0.0 for c in members]
        g = [d[idx] * budget for d in grads]
        stepped = da1.project_capped_simplex([xi + eta * gi for xi, gi in zip(x, g)])
        moves.append(max(abs(a - b) for a, b in zip(x, stepped)) / eta)
        top = max(top, max(map(abs, g)))
    return max(moves) / (1.0 + top)

"""Level-two digital agent: the slice policy.  Demand abstraction, adaptive
slice windows, greedy slicing and game-based slice adjustment, and
`slice_window`, the one call that builds a window's slice: greedy, then the
game only where demand exceeds capacity, with every (group, BS) pair listed.

Slicing operates on resource quanta (default 1 MHz bandwidth, 0.5 GCycles/s
compute).  Each (group, base station) cell carries a nonincreasing
marginal-QoE curve sampled from the group's fitted models; the greedy
allocator and the best-response game both consume those curves, which makes
the greedy solution exact for concave curves and the game a potential game
under a uniform price.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .da1 import ResourceDemand
from .errors import PotentialDecrease
from .scenario import SlicingConfig

POSITION_SCALE_M = 10.0  # meters of per-slot displacement treated as one unit
BR_MAX_ROUNDS = 100  # best-response rounds before the game is flagged unconverged


@dataclass
class CellDemand:
    total_bw_hz: float = 0.0
    total_cpu_cps: float = 0.0
    # marginal QoE gain per granted quantum, nonincreasing
    curve_bw: np.ndarray = field(default_factory=lambda: np.zeros(0))
    curve_cpu: np.ndarray = field(default_factory=lambda: np.zeros(0))


@dataclass
class DemandDistribution:
    cells: dict[tuple[int, int], CellDemand]
    quantum_bw_hz: float
    quantum_cpu_cps: float

    def groups(self) -> list[int]:
        return sorted({g for g, _ in self.cells})

    def is_scarce(self, bw_caps: dict[int, float], cpu_cap: float) -> bool:
        """True when the demand exceeds the compute pool or some BS's bandwidth."""
        per_bs: dict[int, float] = {}
        for (_, bs), cell in self.cells.items():
            per_bs[bs] = per_bs.get(bs, 0.0) + cell.total_bw_hz
        if sum(cell.total_cpu_cps for cell in self.cells.values()) > cpu_cap:
            return True
        return any(v > bw_caps.get(bs, 0.0) for bs, v in per_bs.items())


@dataclass
class SliceConfig:
    reserved_bw: dict[tuple[int, int], float]
    reserved_cpu: dict[int, float]
    mechanism: str  # "greedy" or "game"


def _cell_value(gains: list, frac: float, resource: int) -> float:
    if resource == 0:
        return sum(g(frac, 1.0) for g in gains)
    return sum(g(1.0, frac) for g in gains)


def _marginal_curve(total: float, quantum: float, gains: list,
                    resource: int) -> np.ndarray:
    """Cell QoE gain per quantum as one resource scales from zero to the full
    demand (the other held at its demand); first differences, clipped at
    zero and forced nonincreasing."""
    if total <= 0.0 or not gains:
        return np.zeros(0)
    n_q = max(int(math.ceil(total / quantum - 1e-9)), 1)
    fracs = np.minimum(np.arange(0, n_q + 1) * quantum / total, 1.0)
    values = np.array([_cell_value(gains, float(f), resource) for f in fracs])
    marginals = np.maximum(np.diff(values), 0.0)
    return np.minimum.accumulate(marginals)


# one user's slice input: their demand, their (group, BS) cell and their
# gain, a function of the demand fractions (f_bw, f_cpu) giving predicted QoE
Member = tuple[ResourceDemand, tuple[int, int], Callable[[float, float], float]]


def abstract_demand(members: list[Member], quantum_bw_hz: float,
                    quantum_cpu_cps: float) -> DemandDistribution:
    """Aggregate per-user demands into per-(group, BS) totals with
    marginal-gain curves."""
    cells: dict[tuple[int, int], CellDemand] = {}
    gains_by_cell: dict[tuple[int, int], list] = {}
    for d, key, gain in members:
        cell = cells.setdefault(key, CellDemand())
        cell.total_bw_hz += d.bandwidth_hz
        cell.total_cpu_cps += d.compute_cps
        gains_by_cell.setdefault(key, []).append(gain)
    for key, cell in cells.items():
        cell.curve_bw = _marginal_curve(cell.total_bw_hz, quantum_bw_hz,
                                        gains_by_cell[key], 0)
        cell.curve_cpu = _marginal_curve(cell.total_cpu_cps, quantum_cpu_cps,
                                         gains_by_cell[key], 1)
    return DemandDistribution(cells, quantum_bw_hz, quantum_cpu_cps)


def dynamics_to_window(traces: list[np.ndarray], positions: list[np.ndarray],
                       thresholds: tuple[float, ...],
                       windows: tuple[float, ...]) -> float:
    """Map context volatility to a slice window length in minutes.

    Each user has an (n, 2) trace of per-slot (B, C) and an (n, 2) array of
    per-slot (x, y).  The dynamics score averages the slot-to-slot delta
    spreads over users; higher scores land in later stages, which index
    later (shorter) entries of the `windows` ladder.
    """
    scores = []
    for tr, pos in zip(traces, positions):
        if len(tr) < 2:
            scores.append(0.0)
            continue
        d, dp = np.diff(tr, axis=0), np.diff(pos, axis=0)
        scores.append(float(d[:, 0].std() + d[:, 1].std()
                            + (dp[:, 0].std() + dp[:, 1].std()) / POSITION_SCALE_M))
    score = float(np.mean(scores))
    stage = sum(score > th for th in thresholds)
    return windows[stage]


def greedy_slice(dist: DemandDistribution, bw_capacity_hz: dict[int, float],
                 cpu_capacity_cps: float) -> SliceConfig:
    """Grant one quantum at a time to the cell/resource with the highest
    marginal QoE until capacity or demand runs out; ties favor the lowest
    group index.  Exact for concave (nonincreasing) marginal curves."""
    reserved_bw = {key: 0.0 for key in dist.cells}
    cpu_used = {key: 0.0 for key in dist.cells}
    bw_left = dict(bw_capacity_hz)
    cpu_left = cpu_capacity_cps
    heap = []
    for key in sorted(dist.cells):
        cell = dist.cells[key]
        if len(cell.curve_bw):
            heapq.heappush(heap, (-cell.curve_bw[0], key[0], key[1], 0, 0))
        if len(cell.curve_cpu):
            heapq.heappush(heap, (-cell.curve_cpu[0], key[0], key[1], 1, 0))
    while heap:
        neg_gain, group, bs, res, idx = heapq.heappop(heap)
        key = (group, bs)
        cell = dist.cells[key]
        if res == 0:
            grant = min(dist.quantum_bw_hz, bw_left.get(bs, 0.0),
                        cell.total_bw_hz - reserved_bw[key])
            if grant > 1e-9:
                reserved_bw[key] += grant
                bw_left[bs] -= grant
            if (idx + 1 < len(cell.curve_bw) and bw_left.get(bs, 0.0) > 1e-9
                    and cell.total_bw_hz - reserved_bw[key] > 1e-9):
                heapq.heappush(heap, (-cell.curve_bw[idx + 1], group, bs, 0, idx + 1))
        else:
            grant = min(dist.quantum_cpu_cps, cpu_left,
                        cell.total_cpu_cps - cpu_used[key])
            if grant > 1e-9:
                cpu_used[key] += grant
                cpu_left -= grant
            if (idx + 1 < len(cell.curve_cpu) and cpu_left > 1e-9
                    and cell.total_cpu_cps - cpu_used[key] > 1e-9):
                heapq.heappush(heap, (-cell.curve_cpu[idx + 1], group, bs, 1, idx + 1))
    reserved_cpu: dict[int, float] = {g: 0.0 for g in dist.groups()}
    for (g, _), used in cpu_used.items():
        reserved_cpu[g] += used
    return SliceConfig(reserved_bw, reserved_cpu, mechanism="greedy")


@dataclass
class BrReport:
    converged: bool
    rounds: int
    potential_trace: list[float]


def _take_while_profitable(curve: np.ndarray, available: float, quantum: float,
                           price: float) -> int:
    """Quanta to reserve from a nonincreasing marginal curve at a uniform
    price: the unilateral best response within one resource pool."""
    cap_quanta = max(int(math.floor(available / quantum + 1e-9)), 0)
    take = 0
    for m in curve[:cap_quanta]:
        if m >= price:
            take += 1
        else:
            break
    return take


def best_response_adjust(initial: SliceConfig, dist: DemandDistribution,
                         bw_capacity_hz: dict[int, float],
                         cpu_capacity_cps: float, price: float
                         ) -> tuple[SliceConfig, BrReport]:
    """Round-robin best-response dynamics over discretized slice choices.

    Group utility: summed marginal gains of its reserved quanta minus price
    per quantum.  With a uniform price the summed utility is an exact
    potential, checked nondecreasing across accepted moves (PotentialDecrease
    otherwise).  Stops at a full quiet round (Nash certificate) or flags
    non-convergence.
    """
    q_bw, q_cpu = dist.quantum_bw_hz, dist.quantum_cpu_cps
    groups = dist.groups()
    bs_ids = sorted({bs for _, bs in dist.cells})
    bw_q = {key: int(math.floor(initial.reserved_bw.get(key, 0.0) / q_bw + 1e-9))
            for key in dist.cells}
    cpu_q = {g: int(math.floor(initial.reserved_cpu.get(g, 0.0) / q_cpu + 1e-9))
             for g in groups}
    # each group values compute by its merged (sorted) per-cell curves
    merged_cpu = {g: np.sort(np.concatenate(
        [dist.cells[(g, bs)].curve_cpu for bs in bs_ids if (g, bs) in dist.cells]
        or [np.zeros(0)]))[::-1] for g in groups}

    def potential() -> float:
        val = 0.0
        for key, cell in dist.cells.items():
            q = bw_q[key]
            val += float(cell.curve_bw[:q].sum()) - price * q
        for g in groups:
            q = cpu_q[g]
            val += float(merged_cpu[g][:q].sum()) - price * q
        return val

    trace = [potential()]
    converged = False
    rounds = 0
    for rounds in range(1, BR_MAX_ROUNDS + 1):
        round_changed = False
        for g in groups:
            moved = False
            for bs in bs_ids:
                key = (g, bs)
                if key not in dist.cells:
                    continue
                others = sum(q for (g2, b2), q in bw_q.items()
                             if b2 == bs and g2 != g) * q_bw
                avail = bw_capacity_hz.get(bs, 0.0) - others
                take = _take_while_profitable(dist.cells[key].curve_bw, avail,
                                              q_bw, price)
                if take != bw_q[key]:
                    bw_q[key] = take
                    moved = True
            others_cpu = sum(q for g2, q in cpu_q.items() if g2 != g) * q_cpu
            take = _take_while_profitable(merged_cpu[g],
                                          cpu_capacity_cps - others_cpu,
                                          q_cpu, price)
            if take != cpu_q[g]:
                cpu_q[g] = take
                moved = True
            if moved:
                round_changed = True
                new_pot = potential()
                if new_pot < trace[-1] - 1e-9:
                    # only a marginal curve that increases somewhere can
                    # make a best response lower the potential
                    raise PotentialDecrease(
                        f"group {g} move lowered the potential "
                        f"{trace[-1]!r} -> {new_pot!r}")
                trace.append(new_pot)
        if not round_changed:
            converged = True
            break
    reserved_bw = {key: q * q_bw for key, q in bw_q.items()}
    reserved_cpu = {g: q * q_cpu for g, q in cpu_q.items()}
    cfg = SliceConfig(reserved_bw, reserved_cpu, mechanism="game")
    return cfg, BrReport(converged, rounds, trace)


def slice_window(members: list[Member], bw_caps: dict[int, float],
                 cpu_cap: float, slicing_cfg: SlicingConfig,
                 game: bool) -> SliceConfig:
    """One window's slice: greedy over the members' demand distribution, then
    the game when `game` is set and demand exceeds capacity.  Every (present
    group, BS) pair is listed, 0 where the group has no demand at that BS, so
    each window's slice rows cover the grid."""
    dist = abstract_demand(members, slicing_cfg.quantum_bw_hz,
                           slicing_cfg.quantum_cpu_cps)
    slc = greedy_slice(dist, bw_caps, cpu_cap)
    if game and dist.is_scarce(bw_caps, cpu_cap):
        slc, _ = best_response_adjust(slc, dist, bw_caps, cpu_cap,
                                      slicing_cfg.price_mos_per_quantum)
    for g in {g for _, (g, _), _ in members}:
        for bs in bw_caps:
            slc.reserved_bw.setdefault((g, bs), 0.0)
    return slc

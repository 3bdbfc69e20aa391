"""Level-two digital agent: the slice policy.  Demand abstraction, adaptive
slice windows, greedy slicing and game-based slice adjustment, and
`slice_window`, the one call that builds a window's slice: greedy, then the
game only where demand exceeds capacity, with every (group, BS) pair listed.

Slicing operates on resource quanta (default 1 MHz bandwidth, 0.5 GCycles/s
compute) held in accounts that draw on pools: each BS's bandwidth is one
pool, the edge compute another.  Each (group, BS) cell has two sides, a
bandwidth account on its BS's pool and a compute account on the compute
pool, each with a nonincreasing marginal-QoE curve sampled from the group's
fitted models.  Greedy slicing grants quanta to the cells' accounts; in the
game a group holds one bandwidth account per cell and one compute account
valued by its cells' merged curves.  Every step is one loop over accounts,
whatever the resource, which makes the greedy solution exact for concave
curves and the game a potential game under a uniform price.
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
BW, CPU = 0, 1  # a cell's two sides; greedy ties favor bandwidth
COMPUTE = "compute"  # the compute pool's key; a BS's bandwidth pool is keyed by its id


@dataclass
class CellDemand:
    total_bw_hz: float = 0.0
    total_cpu_cps: float = 0.0
    # marginal QoE gain per granted quantum, nonincreasing
    curve_bw: np.ndarray = field(default_factory=lambda: np.zeros(0))
    curve_cpu: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def account(self, side: int) -> tuple[float, np.ndarray]:
        """(total demand, marginal curve) of the cell's account on `side`."""
        if side == BW:
            return self.total_bw_hz, self.curve_bw
        return self.total_cpu_cps, self.curve_cpu


@dataclass
class DemandDistribution:
    cells: dict[tuple[int, int], CellDemand]
    quantum_bw_hz: float
    quantum_cpu_cps: float

    def groups(self) -> list[int]:
        return sorted({g for g, _ in self.cells})

    def quantum(self, side: int) -> float:
        return self.quantum_bw_hz if side == BW else self.quantum_cpu_cps

    def is_scarce(self, bw_caps: dict[int, float], cpu_cap: float) -> bool:
        """True when the summed demand on some pool exceeds its capacity."""
        demand: dict[int | str, float] = {}
        for (_, bs), cell in self.cells.items():
            for side, pool in ((BW, bs), (CPU, COMPUTE)):
                demand[pool] = demand.get(pool, 0.0) + cell.account(side)[0]
        caps = {**bw_caps, COMPUTE: cpu_cap}
        return any(v > caps.get(pool, 0.0) for pool, v in demand.items())


@dataclass
class SliceConfig:
    reserved_bw: dict[tuple[int, int], float]
    reserved_cpu: dict[int, float]
    mechanism: str  # "greedy" or "game"


def _marginal_curve(total: float, quantum: float, gains: list,
                    side: int) -> np.ndarray:
    """Cell QoE gain per quantum as the account on `side` scales from zero to
    its full demand (the other side held at its demand); first differences,
    clipped at zero and forced nonincreasing."""
    if total <= 0.0 or not gains:
        return np.zeros(0)
    n_q = max(int(math.ceil(total / quantum - 1e-9)), 1)
    fracs = np.minimum(np.arange(0, n_q + 1) * quantum / total, 1.0).tolist()
    points = [(f, 1.0) for f in fracs] if side == BW else [(1.0, f) for f in fracs]
    values = np.array([sum(g(*p) for g in gains) for p in points])
    marginals = np.maximum(np.diff(values), 0.0)
    return np.minimum.accumulate(marginals)


# one user's slice input: their demand, their (group, BS) cell and their
# gain, a function of the demand fractions (f_bw, f_cpu) giving predicted QoE
Member = tuple[ResourceDemand, tuple[int, int], Callable[[float, float], float]]


def abstract_demand(members: list[Member], quantum_bw_hz: float,
                    quantum_cpu_cps: float) -> DemandDistribution:
    """Aggregate per-user demands into per-(group, BS) totals with
    marginal-gain curves."""
    dist = DemandDistribution({}, quantum_bw_hz, quantum_cpu_cps)
    gains_by_cell: dict[tuple[int, int], list] = {}
    for d, key, gain in members:
        cell = dist.cells.setdefault(key, CellDemand())
        cell.total_bw_hz += d.bandwidth_hz
        cell.total_cpu_cps += d.compute_cps
        gains_by_cell.setdefault(key, []).append(gain)
    for key, cell in dist.cells.items():
        cell.curve_bw, cell.curve_cpu = (
            _marginal_curve(cell.account(side)[0], dist.quantum(side),
                            gains_by_cell[key], side) for side in (BW, CPU))
    return dist


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
    """Grant one quantum at a time to the cell account with the highest
    marginal QoE until its pool or its demand runs out; ties favor the lowest
    group index.  Exact for concave (nonincreasing) marginal curves."""
    left = {**bw_capacity_hz, COMPUTE: cpu_capacity_cps}
    # (group, BS, side) -> the cell account's demand, curve, quantum and pool
    accounts: dict[tuple[int, int, int], tuple] = {}
    reserved: dict[tuple[int, int, int], float] = {}
    heap = []
    for key in sorted(dist.cells):
        for side, pool in ((BW, key[1]), (CPU, COMPUTE)):
            total, curve = dist.cells[key].account(side)
            accounts[(*key, side)] = (total, curve, dist.quantum(side), pool)
            reserved[(*key, side)] = 0.0
            if len(curve):
                heapq.heappush(heap, (-curve[0], *key, side, 0))
    while heap:
        _, group, bs, side, idx = heapq.heappop(heap)
        acct = (group, bs, side)
        total, curve, quantum, pool = accounts[acct]
        grant = min(quantum, left.get(pool, 0.0), total - reserved[acct])
        if grant > 1e-9:
            reserved[acct] += grant
            left[pool] -= grant
        if (idx + 1 < len(curve) and left.get(pool, 0.0) > 1e-9
                and total - reserved[acct] > 1e-9):
            heapq.heappush(heap, (-curve[idx + 1], group, bs, side, idx + 1))
    reserved_bw = {key: reserved[(*key, BW)] for key in dist.cells}
    reserved_cpu: dict[int, float] = {g: 0.0 for g in dist.groups()}
    for g, bs in dist.cells:
        reserved_cpu[g] += reserved[(g, bs, CPU)]
    return SliceConfig(reserved_bw, reserved_cpu, mechanism="greedy")


@dataclass
class BrReport:
    converged: bool
    rounds: int
    potential_trace: list[float]


def _take_while_profitable(curve: np.ndarray, available: float, quantum: float,
                           price: float) -> int:
    """Quanta to reserve from a nonincreasing marginal curve at a uniform
    price: the unilateral best response within one pool."""
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

    A group's accounts are one per cell on its BS's bandwidth pool, then one
    on the compute pool valued by its cells' merged (sorted) curves.  Group
    utility: summed marginal gains of its reserved quanta minus price per
    quantum.  With a uniform price the summed utility is an exact potential,
    checked nondecreasing across accepted moves (PotentialDecrease
    otherwise).  Stops at a full quiet round (Nash certificate) or flags
    non-convergence.
    """
    caps = {**bw_capacity_hz, COMPUTE: cpu_capacity_cps}
    groups = dist.groups()
    turns = {g: [key for key in sorted(dist.cells) if key[0] == g] + [(g, COMPUTE)]
             for g in groups}
    # account (group, pool) -> (marginal curve, quantum); a bandwidth account
    # is keyed by its cell; bandwidth accounts in cell order, then compute
    accounts = {key: (cell.curve_bw, dist.quantum_bw_hz)
                for key, cell in dist.cells.items()}
    for g in groups:
        accounts[(g, COMPUTE)] = (np.sort(np.concatenate(
            [dist.cells[key].curve_cpu for key in turns[g][:-1]]))[::-1],
            dist.quantum_cpu_cps)
    start = {**initial.reserved_bw,
             **{(g, COMPUTE): q for g, q in initial.reserved_cpu.items()}}
    held = {acct: int(math.floor(start.get(acct, 0.0) / quantum + 1e-9))
            for acct, (_, quantum) in accounts.items()}

    def potential() -> float:
        val = 0.0
        for acct, q in held.items():
            val += float(accounts[acct][0][:q].sum()) - price * q
        return val

    trace = [potential()]
    converged = False
    rounds = 0
    for rounds in range(1, BR_MAX_ROUNDS + 1):
        round_changed = False
        for g in groups:
            moved = False
            for acct in turns[g]:
                curve, quantum = accounts[acct]
                pool = acct[1]
                others = sum(q for (g2, p2), q in held.items()
                             if p2 == pool and g2 != g) * quantum
                take = _take_while_profitable(curve, caps.get(pool, 0.0) - others,
                                              quantum, price)
                if take != held[acct]:
                    held[acct] = take
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
    reserved_bw = {key: held[key] * dist.quantum_bw_hz for key in dist.cells}
    reserved_cpu = {g: held[(g, COMPUTE)] * dist.quantum_cpu_cps for g in groups}
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

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoesim import da2, scenario
from qoesim.da1 import ResourceDemand
from qoesim.errors import PotentialDecrease

Q_BW = 1e6
Q_CPU = 0.5e9


def demand(user, bw_mhz, cpu_gc, feasible=True):
    return ResourceDemand(user, bw_mhz * 1e6, cpu_gc * 1e9, feasible)


def members(demands, memberships, utilities=None):
    """One (demand, (group, BS), gain) record per user; users without a
    utility get a unit linear gain."""
    utilities = utilities or {}
    return [(d, memberships[d.user],
             utilities.get(d.user, lambda fb, fc: 0.5 * (fb + fc))) for d in demands]


def abstract(demands, memberships, utilities=None):
    """`da2.abstract_demand` at 1 MHz and 0.5 GCycles/s quanta."""
    return da2.abstract_demand(members(demands, memberships, utilities), Q_BW, Q_CPU)


def make_dist(cell_specs):
    """cell_specs: {(group, bs): (curve_bw list, curve_cpu list)} with curves
    given in marginal MOS per quantum (already nonincreasing)."""
    cells = {}
    for key, (cb, cc) in cell_specs.items():
        cells[key] = da2.CellDemand(
            total_bw_hz=len(cb) * Q_BW, total_cpu_cps=len(cc) * Q_CPU,
            curve_bw=np.array(cb, dtype=float),
            curve_cpu=np.array(cc, dtype=float))
    return da2.DemandDistribution(cells, Q_BW, Q_CPU)


def alloc_value(dist, reserved_bw, reserved_cpu_quanta):
    val = 0.0
    for key, cell in dist.cells.items():
        q = int(round(reserved_bw.get(key, 0.0) / Q_BW))
        val += cell.curve_bw[:q].sum()
    for g, q in reserved_cpu_quanta.items():
        merged = np.sort(np.concatenate(
            [c.curve_cpu for (g2, _), c in dist.cells.items() if g2 == g]))[::-1]
        val += merged[:q].sum()
    return val


class TestAbstractDemand:
    def test_singleton(self):
        d = demand(0, 2.0, 0.4)
        dist = abstract([d], {0: (1, 0)})
        cell = dist.cells[(1, 0)]
        assert cell.total_bw_hz == d.bandwidth_hz
        assert cell.total_cpu_cps == d.compute_cps

    def test_same_label_sums(self):
        dist = abstract([demand(0, 1.0, 2.0), demand(1, 3.0, 4.0)],
                        {0: (2, 1), 1: (2, 1)})
        cell = dist.cells[(2, 1)]
        assert cell.total_bw_hz == pytest.approx(4e6)
        assert cell.total_cpu_cps == pytest.approx(6e9)

    def test_disjoint_labels_brute_force(self):
        rng = np.random.default_rng(0)
        demands, members = [], {}
        for u in range(30):
            demands.append(demand(u, rng.uniform(0.5, 4), rng.uniform(0.1, 0.5)))
            members[u] = (int(rng.integers(1, 4)), int(rng.integers(0, 2)))
        dist = abstract(demands, members)
        for key, cell in dist.cells.items():
            expect_bw = sum(d.bandwidth_hz for d in demands if members[d.user] == key)
            expect_cpu = sum(d.compute_cps for d in demands if members[d.user] == key)
            assert cell.total_bw_hz == pytest.approx(expect_bw)
            assert cell.total_cpu_cps == pytest.approx(expect_cpu)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        demands = [demand(u, rng.uniform(1, 3), rng.uniform(0.1, 0.5))
                   for u in range(10)]
        members = {u: (1 + u % 3, u % 2) for u in range(10)}
        d1 = abstract(demands, members)
        d2 = abstract(demands[::-1], members)
        for key in d1.cells:
            assert d1.cells[key].total_bw_hz == pytest.approx(d2.cells[key].total_bw_hz)
            assert d1.cells[key].total_cpu_cps == pytest.approx(d2.cells[key].total_cpu_cps)

    def test_curves_nonincreasing(self):
        # concave saturating per-user gain
        utilities = {0: lambda fb, fc: 3.0 * (1 - np.exp(-2 * fb)) * (1 - 0.5 * np.exp(-2 * fc)),
                     1: lambda fb, fc: 2.0 * min(fb, 1.0) + 1.0 * min(fc, 1.0)}
        dist = abstract([demand(0, 5, 2), demand(1, 3, 1)],
                        {0: (1, 0), 1: (1, 0)}, utilities)
        cell = dist.cells[(1, 0)]
        for curve in (cell.curve_bw, cell.curve_cpu):
            assert len(curve) > 0
            assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))


class TestDynamicsToWindow:
    TH = (0.02, 0.04, 0.06, 0.08)
    LADDER = scenario.SlicingConfig().window_minutes

    @staticmethod
    def trace(b_std, n=100, seed=0):
        """One user's (B, C) trace and (x, y) positions."""
        rng = np.random.default_rng(seed)
        b = 1.5 + np.cumsum(rng.normal(0, b_std, n))
        return (np.column_stack([np.clip(b, 1, 2), np.full(n, 1.3)]),
                np.column_stack([np.linspace(0, 50, n), np.zeros(n)]))

    def window(self, trace, positions):
        return da2.dynamics_to_window([trace], [positions], self.TH, self.LADDER)

    def test_static_users_longest_window(self):
        assert self.window(np.tile([1.2, 1.4], (50, 1)),
                           np.tile([100.0, 200.0], (50, 1))) == 15.0

    def test_extreme_dynamics_shortest_window(self):
        rng = np.random.default_rng(3)
        b, c = rng.uniform(1, 2, 200), rng.uniform(1, 2, 200)
        x, y = rng.uniform(0, 500, 200), rng.uniform(0, 500, 200)
        assert self.window(np.column_stack([b, c]), np.column_stack([x, y])) == 3.0

    def test_mid_stage_window(self):
        assert self.window(*self.trace(0.05)) == 9.0

    def test_monotone_in_dynamics(self):
        stds = [0.0, 0.01, 0.03, 0.05, 0.09, 0.2]
        windows = [self.window(*self.trace(s, seed=4)) for s in stds]
        assert all(w1 >= w2 for w1, w2 in zip(windows, windows[1:]))


class TestGreedySlice:
    def test_single_group_takes_min_capacity_demand(self):
        dist = make_dist({(1, 0): ([1.0] * 8, [0.5] * 4)})
        cfg = da2.greedy_slice(dist, {0: 5 * Q_BW}, 10 * Q_CPU)
        assert cfg.reserved_bw[(1, 0)] == pytest.approx(5 * Q_BW)  # capacity bound
        assert cfg.reserved_cpu[1] == pytest.approx(4 * Q_CPU)  # demand bound

    def test_two_identical_groups_nearly_equal(self):
        dist = make_dist({(1, 0): ([1.0, 0.9, 0.8], [0.5, 0.4]),
                          (2, 0): ([1.0, 0.9, 0.8], [0.5, 0.4])})
        cfg = da2.greedy_slice(dist, {0: 5 * Q_BW}, 3 * Q_CPU)
        assert abs(cfg.reserved_bw[(1, 0)] - cfg.reserved_bw[(2, 0)]) <= Q_BW
        assert abs(cfg.reserved_cpu[1] - cfg.reserved_cpu[2]) <= Q_CPU

    def test_tie_break_lowest_group(self):
        dist = make_dist({(1, 0): ([1.0], []), (2, 0): ([1.0], [])})
        cfg = da2.greedy_slice(dist, {0: 1 * Q_BW}, 0.0)
        assert cfg.reserved_bw[(1, 0)] == pytest.approx(Q_BW)
        assert cfg.reserved_bw[(2, 0)] == 0.0

    def test_greedy_order_from_reservations(self):
        # in a pool that binds, no ungranted marginal beats a granted one;
        # in a pool with room left, every marginal is granted
        rng = np.random.default_rng(5)
        for _ in range(30):
            specs = {}
            for g in (1, 2, 3):
                for bs in (0, 1):
                    cb = np.sort(rng.uniform(0, 1, int(rng.integers(1, 6))))[::-1]
                    cc = np.sort(rng.uniform(0, 1, int(rng.integers(1, 4))))[::-1]
                    specs[(g, bs)] = (list(cb), list(cc))
            dist = make_dist(specs)
            bw_caps = {bs: int(rng.integers(1, 16)) * Q_BW for bs in (0, 1)}
            cpu_cap = int(rng.integers(1, 20)) * Q_CPU
            cfg = da2.greedy_slice(dist, bw_caps, cpu_cap)
            pools = []
            for bs, cap in bw_caps.items():
                granted, left = [], []
                for (g, b), cell in dist.cells.items():
                    if b == bs:
                        q = int(round(cfg.reserved_bw[(g, b)] / Q_BW))
                        granted += list(cell.curve_bw[:q])
                        left += list(cell.curve_bw[q:])
                used = sum(v for (_, b), v in cfg.reserved_bw.items() if b == bs)
                pools.append((used, cap, granted, left))
            granted, left = [], []
            for g, reserved in cfg.reserved_cpu.items():
                # a group's cells share its CPU grant, best marginals first
                merged = np.sort(np.concatenate(
                    [c.curve_cpu for (g2, _), c in dist.cells.items() if g2 == g]))[::-1]
                q = int(round(reserved / Q_CPU))
                granted += list(merged[:q])
                left += list(merged[q:])
            pools.append((sum(cfg.reserved_cpu.values()), cpu_cap, granted, left))
            for used, cap, granted, left in pools:
                assert used <= cap + 1e-6
                if used < cap - 1e-6:
                    assert not left
                elif granted and left:
                    assert max(left) <= min(granted) + 1e-12

    def test_exhaustive_enumeration_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            specs = {}
            for g in (1, 2, 3):
                cb = np.sort(rng.uniform(0, 1, int(rng.integers(2, 5))))[::-1]
                cc = np.sort(rng.uniform(0, 1, int(rng.integers(1, 4))))[::-1]
                specs[(g, 0)] = (list(cb), list(cc))
            dist = make_dist(specs)
            cap_bw_q = int(rng.integers(2, 10))
            cap_cpu_q = int(rng.integers(1, 8))
            cfg = da2.greedy_slice(dist, {0: cap_bw_q * Q_BW}, cap_cpu_q * Q_CPU)
            got = alloc_value(dist, cfg.reserved_bw,
                              {g: int(round(v / Q_CPU))
                               for g, v in cfg.reserved_cpu.items()})

            def best_split(curves, cap):
                lens = [len(c) for c in curves]
                best = 0.0
                for combo in itertools.product(*(range(n + 1) for n in lens)):
                    if sum(combo) <= cap:
                        best = max(best, sum(float(c[:q].sum())
                                             for c, q in zip(curves, combo)))
                return best

            opt = (best_split([dist.cells[(g, 0)].curve_bw for g in (1, 2, 3)], cap_bw_q)
                   + best_split([dist.cells[(g, 0)].curve_cpu for g in (1, 2, 3)], cap_cpu_q))
            assert got == pytest.approx(opt, abs=1e-9)

    def test_capacity_never_violated(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            specs = {(g, b): (list(np.sort(rng.uniform(0, 1, 5))[::-1]),
                              list(np.sort(rng.uniform(0, 1, 5))[::-1]))
                     for g in (1, 2, 3) for b in (0, 1)}
            dist = make_dist(specs)
            caps = {0: rng.uniform(0, 8) * Q_BW, 1: rng.uniform(0, 8) * Q_BW}
            cpu_cap = rng.uniform(0, 6) * Q_CPU
            cfg = da2.greedy_slice(dist, caps, cpu_cap)
            for b in (0, 1):
                used = sum(v for (g, bb), v in cfg.reserved_bw.items() if bb == b)
                assert used <= caps[b] + 1e-6
            assert sum(cfg.reserved_cpu.values()) <= cpu_cap + 1e-3


class TestBestResponseAdjust:
    def test_single_group_unconstrained_optimum(self):
        dist = make_dist({(1, 0): ([1.0, 0.6, 0.2, 0.05], [0.8, 0.3, 0.01])})
        init = da2.greedy_slice(dist, {0: 10 * Q_BW}, 10 * Q_CPU)
        cfg, rep = da2.best_response_adjust(init, dist, {0: 10 * Q_BW},
                                            10 * Q_CPU, price=0.25)
        assert rep.converged
        # marginals >= 0.25: two bw quanta, two cpu quanta
        assert cfg.reserved_bw[(1, 0)] == pytest.approx(2 * Q_BW)
        assert cfg.reserved_cpu[1] == pytest.approx(2 * Q_CPU)

    def test_zero_capacity_all_zero(self):
        dist = make_dist({(1, 0): ([1.0, 0.5], [0.7]), (2, 0): ([0.9], [0.6])})
        init = da2.greedy_slice(dist, {0: 0.0}, 0.0)
        cfg, rep = da2.best_response_adjust(init, dist, {0: 0.0}, 0.0, price=0.05)
        assert rep.converged
        assert all(v == 0.0 for v in cfg.reserved_bw.values())
        assert all(v == 0.0 for v in cfg.reserved_cpu.values())

    def test_nash_certificate_by_deviation_scan(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            specs = {(g, 0): (list(np.sort(rng.uniform(0, 1, 5))[::-1]),
                              list(np.sort(rng.uniform(0, 1, 5))[::-1]))
                     for g in (1, 2)}
            dist = make_dist(specs)
            caps = {0: 5 * Q_BW}
            cpu_cap = 5 * Q_CPU
            price = 0.15
            init = da2.greedy_slice(dist, caps, cpu_cap)
            cfg, rep = da2.best_response_adjust(init, dist, caps, cpu_cap, price)
            assert rep.converged
            final_bw = {g: int(round(cfg.reserved_bw[(g, 0)] / Q_BW)) for g in (1, 2)}
            final_cpu = {g: int(round(cfg.reserved_cpu[g] / Q_CPU)) for g in (1, 2)}

            def utility(g, qb, qc):
                cell = dist.cells[(g, 0)]
                return (float(cell.curve_bw[:qb].sum()) - price * qb
                        + float(cell.curve_cpu[:qc].sum()) - price * qc)

            for g in (1, 2):
                other = 2 if g == 1 else 1
                bw_room = 5 - final_bw[other]
                cpu_room = 5 - final_cpu[other]
                base = utility(g, final_bw[g], final_cpu[g])
                for qb in range(0, bw_room + 1):
                    for qc in range(0, cpu_room + 1):
                        assert utility(g, qb, qc) <= base + 1e-9

    def test_potential_trace_nondecreasing(self):
        rng = np.random.default_rng(9)
        specs = {(g, b): (list(np.sort(rng.uniform(0, 0.6, 6))[::-1]),
                          list(np.sort(rng.uniform(0, 0.6, 4))[::-1]))
                 for g in (1, 2, 3) for b in (0, 1)}
        dist = make_dist(specs)
        init = da2.greedy_slice(dist, {0: 4 * Q_BW, 1: 4 * Q_BW}, 5 * Q_CPU)
        _, rep = da2.best_response_adjust(init, dist, {0: 4 * Q_BW, 1: 4 * Q_BW},
                                          5 * Q_CPU, price=0.1)
        tr = rep.potential_trace
        assert all(b >= a - 1e-9 for a, b in zip(tr, tr[1:]))

    def test_increasing_curve_raises_potential_decrease(self):
        # an increasing marginal curve breaks the potential-game premise: the
        # best response drops both quanta and loses the large second gain
        dist = make_dist({(1, 0): ([0.1, 5.0], [])})
        init = da2.SliceConfig({(1, 0): 2 * Q_BW}, {1: 0.0}, "greedy")
        with pytest.raises(PotentialDecrease, match="potential"):
            da2.best_response_adjust(init, dist, {0: 4 * Q_BW}, 4 * Q_CPU,
                                     price=1.0)


class TestSliceWindow:
    SLICING = scenario.SlicingConfig()
    CAPS = {0: 10 * Q_BW, 1: 10 * Q_BW, 2: 10 * Q_BW}
    CPU_CAP = 10 * Q_CPU

    def window(self, demands, memberships, game=True):
        return da2.slice_window(members(demands, memberships), self.CAPS,
                                self.CPU_CAP, self.SLICING, game)

    def test_game_only_when_scarce(self):
        labels = {0: (1, 0), 1: (2, 0)}
        ample = [demand(0, 3, 1), demand(1, 4, 1)]
        assert self.window(ample, labels).mechanism == "greedy"
        over_bs = [demand(0, 6, 1), demand(1, 5, 1)]  # 11 MHz at a 10 MHz BS
        over_cpu = [demand(0, 3, 3), demand(1, 4, 3)]  # 12 quanta of 10
        for scarce in (over_bs, over_cpu):
            assert self.window(scarce, labels).mechanism == "game"
            assert self.window(scarce, labels, game=False).mechanism == "greedy"

    def test_lists_every_present_group_at_every_bs(self):
        slc = self.window([demand(0, 2, 1), demand(1, 3, 1), demand(2, 1, 1)],
                          {0: (1, 0), 1: (3, 0), 2: (3, 2)})
        assert sorted(slc.reserved_bw) == [(g, bs) for g in (1, 3) for bs in (0, 1, 2)]
        assert slc.reserved_bw[(1, 0)] == 2 * Q_BW
        assert slc.reserved_bw[(1, 1)] == slc.reserved_bw[(3, 1)] == 0.0


@st.composite
def slicing_cases(draw):
    """Six (group, BS) cells with any demand, each curve as long as
    `abstract_demand` makes it (whole quanta covering the demand) and
    nonincreasing; capacities of 0 to 8 quanta, fractional ones included;
    a uniform price."""
    def cell_side(quantum):
        total = draw(st.floats(0.0, 5.0)) * quantum
        n = max(math.ceil(total / quantum - 1e-9), 1) if total > 0.0 else 0
        curve = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)),
                       reverse=True)
        return total, np.array(curve)

    cells = {}
    for key in itertools.product((1, 2, 3), (0, 1)):
        total_bw, curve_bw = cell_side(Q_BW)
        total_cpu, curve_cpu = cell_side(Q_CPU)
        cells[key] = da2.CellDemand(total_bw, total_cpu, curve_bw, curve_cpu)
    bw_caps = {bs: draw(st.floats(0.0, 8.0)) * Q_BW for bs in (0, 1)}
    cpu_cap = draw(st.floats(0.0, 8.0)) * Q_CPU
    price = draw(st.floats(0.0, 1.5))
    return da2.DemandDistribution(cells, Q_BW, Q_CPU), bw_caps, cpu_cap, price


class TestSliceBoundsProperty:
    @settings(max_examples=300, deadline=None)
    @given(slicing_cases())
    def test_pools_and_cells_within_bounds(self, case):
        dist, bw_caps, cpu_cap, price = case
        greedy = da2.greedy_slice(dist, bw_caps, cpu_cap)
        game, _ = da2.best_response_adjust(greedy, dist, bw_caps, cpu_cap, price)
        for slc, whole_quanta in ((greedy, False), (game, True)):
            # the game's floor of a pool admits 1e-9 of a quantum
            for bs, cap in bw_caps.items():
                used = sum(v for (_, b), v in slc.reserved_bw.items() if b == bs)
                assert used <= cap + 1e-9 * Q_BW
            assert sum(slc.reserved_cpu.values()) <= cpu_cap + 1e-9 * Q_CPU
            for key, cell in dist.cells.items():
                # greedy grants stop at the demand; the game reserves whole
                # quanta, at most one per curve entry
                bw_bound = (len(cell.curve_bw) * Q_BW if whole_quanta
                            else cell.total_bw_hz)
                assert 0.0 <= slc.reserved_bw.get(key, 0.0) <= bw_bound + 1e-6
            for g in dist.groups():
                group_cells = [c for (g2, _), c in dist.cells.items() if g2 == g]
                cpu_bound = (sum(len(c.curve_cpu) for c in group_cells) * Q_CPU
                             if whole_quanta
                             else sum(c.total_cpu_cps for c in group_cells))
                assert 0.0 <= slc.reserved_cpu.get(g, 0.0) <= cpu_bound + 1e-3

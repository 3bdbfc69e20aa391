"""End-to-end execution of one (scenario, scheme, seed) run.

Phases: bootstrap simulation on the training lane to gather feedback
samples and fit per-user QoE models; policy training for learned schemes;
frozen windowed evaluation on an independent traffic lane.  Random streams
are keyed per purpose so training randomness never leaks into evaluation
traffic and all schemes consume identical scenario/traffic streams.
`SchemeRun.plan_window` plans every window of both lanes (each evaluation
window, each training episode): it emulates each user's context trace and
derives their window-mean impact once; the demand rule and the slice gains
read the impacts, the window length the traces.  One `netsim.UserPaths`
table per run holds every user's serving BS, path loss, swipe-arrival
probability and B by slot, and C; the bootstrap-and-training state, the
evaluation state, the context emulator, the L1 orchestrator and the slice
cells all read it, so no lane re-walks a slot and no reader derives or
copies a user's context.  Each world step returns its period samples to the
one phase that reads them: the fit, an epoch's reward or a window's log and
refit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bench, da1, da2, learn, netsim, qoe, scenario

# rng lane keys (append to the run seed)
_LANE_USERS = 11
_LANE_TRAIN = 23
_LANE_EVAL = 37
_LANE_POLICY = 53
_LANE_EMU_EVAL = 71
_LANE_EMU_TRAIN = 83
_LANE_EXPLORE = 97

TRAIN_EPISODE_MINUTES = 3.0


@dataclass
class WindowLog:
    """One evaluated window: its span, its slice, the demands the slice was
    built from and the QoE it delivered; the harness writes its rows."""
    index: int
    start_slot: int
    end_slot: int
    window_minutes: float
    slice: da2.SliceConfig
    demands: dict[int, da1.ResourceDemand]
    samples: list[netsim.PeriodSample]


@dataclass
class RunResult:
    seed: int
    windows: list[WindowLog]
    slot_records: list[netsim.SlotRecord] | None  # None: not collected


def _lane(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng([seed, key])


class SchemeRun:
    """Owns all mutable pieces of one run of a scheme, a `bench.SchemeId`
    (its `bench.SPECS` entry) or a `bench.SchemeSpec` as given (an
    ablation), and reads only the spec's choices.  A learned scheme given
    a `policy` evaluates it; else it trains one for `cfg.train.epochs`."""

    def __init__(self, cfg: scenario.ScenarioConfig, scheme, seed: int,
                 collect_slots: bool = True,
                 policy: learn.BdqNetwork | None = None):
        self.spec = scheme if isinstance(scheme, bench.SchemeSpec) else next(
            (spec for key, spec in bench.SPECS.items() if key is scheme), None)
        if self.spec is None:
            raise TypeError(f"scheme must be a bench.SchemeSpec or one of "
                            f"{', '.join(map(str, bench.SPECS))}, got {scheme!r}")
        self.cfg = cfg
        self.seed = seed
        self.collect_slots = collect_slots
        self.profiles = scenario.sample_users(cfg, _lane(seed, _LANE_USERS))
        self.paths = netsim.UserPaths(cfg, self.profiles)
        self.elas = {p.id: p.ela for p in self.profiles}
        self.models: dict[int, qoe.QoEModel] = {}
        # the group policy, or the per-user one for PDRL-L1
        self.policy = policy
        self.reward_curve: list[float] = []
        self._recent: dict[int, list[qoe.FactorSample]] = {}

    # -- phase 1: bootstrap + model fitting ------------------------------------

    def bootstrap(self, train_rng: np.random.Generator
                  ) -> tuple[netsim.SimState, list[netsim.PeriodSample]]:
        """The training-lane state after the bootstrap, and the samples it drew."""
        cfg = self.cfg
        # no slice: the explorer shares out the hardware caps the state starts with
        state = netsim.SimState(cfg, self.profiles, self.paths)
        slots = cfg.bootstrap_slots()
        explorer = bench.ExplorationOrchestrator(_lane(self.seed, _LANE_EXPLORE))
        return state, netsim.advance_slots(state, explorer, slots, train_rng)

    def fit_models(self, samples: list[netsim.PeriodSample]) -> None:
        generic = bench.generic_model(self.cfg)
        if not self.spec.fitted_models:
            self.models = {p.id: generic for p in self.profiles}
            return
        by_user: dict[int, list[qoe.FactorSample]] = {p.id: [] for p in self.profiles}
        for ps in samples:
            by_user[ps.user].append(ps.sample)
        fitted = qoe.fit_best_structure(list(by_user.values()))
        self.models = {u: generic if m is None else m for u, m in zip(by_user, fitted)}

    # -- slicing path (shared by training and evaluation) -----------------------

    def plan_window(self, state: netsim.SimState, horizon: int,
                    emu_rng: np.random.Generator
                    ) -> tuple[dict[int, np.ndarray], da2.SliceConfig,
                               dict[int, da1.ResourceDemand]]:
        """Plan the window that starts at `state.t` and apply its slice.

        Each user's emulated trace, efficiency and window-mean impact are
        derived once; the scheme's demand rule and each user's slice gain
        read them.  Returns the traces (the window length reads them), the
        slice and the demands."""
        cfg = self.cfg
        traces, i_bars, effs = {}, {}, {}
        for p in self.profiles:
            traces[p.id] = da1.emulate_context(p, self.paths, horizon, emu_rng,
                                               t0_slot=state.t,
                                               noise=cfg.agent.context_noise)
            i_bars[p.id] = da1.mean_impact(self.models[p.id], traces[p.id])
            effs[p.id] = state.runtime[p.id].eff_ewma
        demands = self.spec.demand(self.models, self.elas, i_bars, effs, cfg)
        cells = self.paths.row(state.t)[0]  # the window's first slot
        members = []
        for p in self.profiles:
            struct = self.models[p.id].structure_index
            c = da1.utility_consts(p.id, struct, p.ela, i_bars[p.id], effs[p.id], cfg)
            members.append((demands[p.id], (struct, cells[p.id]),
                            da1.slice_gain(c, demands[p.id])))
        slc = da2.slice_window(members, cfg.bw_caps(), cfg.edge.capacity_cps,
                               cfg.slicing, self.spec.game)
        state.apply_slice(slc)
        return traces, slc, demands

    def dynamics_window(self, state: netsim.SimState,
                        traces: dict[int, np.ndarray]) -> float:
        if not self.spec.adaptive_window:
            return self.cfg.slicing.wo_da_window_min
        t_s = (state.t + np.arange(len(traces[0]))) * state.slot_s
        return da2.dynamics_to_window(
            list(traces.values()),
            [self.paths.walkers[p.id].positions(t_s) for p in self.profiles],
            self.cfg.slicing.dynamics_thresholds, self.cfg.slicing.window_minutes)

    def make_orchestrator(self):
        if not self.spec.learned:
            return self.spec.orchestrator()
        return self.spec.orchestrator(self.models, self.policy, self.cfg)

    # -- phase 2: policy training ------------------------------------------------

    def train_policies(self, state: netsim.SimState,
                       train_rng: np.random.Generator) -> None:
        cfg = self.cfg
        if not self.spec.learned or self.policy is not None or cfg.train.epochs <= 0:
            return
        episode_epochs = max(int(TRAIN_EPISODE_MINUTES * 60.0 / cfg.slot_s
                                 / cfg.period_slots()), 1)
        episodes = max(int(round(cfg.train.epochs / episode_epochs)), 1)
        env = _TrainEnv(self, state, train_rng, _lane(self.seed, _LANE_EMU_TRAIN),
                        episode_epochs)
        hp = learn.Hyperparams(
            episodes=episodes, max_steps=episode_epochs, lr=cfg.train.lr,
            gamma=cfg.train.gamma, eps_start=cfg.train.eps_start, eps_end=cfg.train.eps_end,
            eps_decay_steps=max(int(0.8 * episodes * episode_epochs), 1),
            batch_size=cfg.train.batch_size,
            replay_capacity=cfg.train.replay_capacity,
            target_sync=cfg.train.target_sync)
        policy_rng = _lane(self.seed, _LANE_POLICY)
        self.policy = self.spec.orchestrator.new_policy(cfg, policy_rng)
        self.reward_curve = learn.train_episodes(env, self.policy, hp, policy_rng)

    # -- phase 3: frozen evaluation -----------------------------------------------

    def evaluate(self) -> RunResult:
        cfg = self.cfg
        state = netsim.SimState(cfg, self.profiles, self.paths)
        eval_rng = _lane(self.seed, _LANE_EVAL)
        emu_rng = _lane(self.seed, _LANE_EMU_EVAL)
        orch = self.make_orchestrator()
        total_slots = cfg.eval_slots()
        period = state.period_slots
        windows: list[WindowLog] = []
        records: list[netsim.SlotRecord] | None = [] if self.collect_slots else None
        while state.t < total_slots:
            horizon = min(netsim.DYNAMICS_HORIZON_SLOTS, total_slots - state.t)
            traces, slc, demands = self.plan_window(state, horizon, emu_rng)
            w_min = self.dynamics_window(state, traces)
            w_slots = min(int(w_min * 60.0 / cfg.slot_s), total_slots - state.t)
            w_slots = max((w_slots // period) * period, period)
            start = state.t
            samples = netsim.advance_slots(state, orch, w_slots, eval_rng, records)
            windows.append(WindowLog(len(windows), start, state.t, w_min, slc,
                                     demands, samples))
            self._maybe_refit(samples)
        return RunResult(self.seed, windows, records)

    def _maybe_refit(self, samples: list[netsim.PeriodSample]) -> None:
        if not self.spec.fitted_models:
            return
        cfg = self.cfg
        for ps in samples:
            self._recent.setdefault(ps.user, []).append(ps.sample)
        # a user's check reads only its own model, so the window's refits
        # run together after every check
        drifted: dict[int, list[qoe.FactorSample]] = {}
        for u, recent in self._recent.items():
            if len(recent) < 20:
                continue
            window = recent[-cfg.agent.refit_window:]
            if qoe.should_update(self.models[u], window, cfg.agent.refit_tolerance):
                drifted[u] = window
            self._recent[u] = []
        if drifted:
            for u, model in zip(drifted, qoe.fit_best_structure(list(drifted.values()))):
                if model is not None:
                    self.models[u] = model

    # -- entry point ---------------------------------------------------------------

    def execute(self) -> RunResult:
        # one continuous training-lane generator spans bootstrap and training
        train_rng = _lane(self.seed, _LANE_TRAIN)
        state, samples = self.bootstrap(train_rng)
        self.fit_models(samples)
        del samples  # the fit is their one reader
        self.train_policies(state, train_rng)
        return self.evaluate()


class _TrainEnv:
    """Training environment: one episode = one short slicing window.  A step
    forces the actions on the scheme's orchestrator for one epoch (one QoE
    period) and scores it with `da1.epoch_reward`."""

    def __init__(self, run: SchemeRun, state: netsim.SimState,
                 traffic_rng, emu_rng, episode_epochs: int):
        self.run = run
        self.state = state
        self.traffic_rng = traffic_rng
        self.emu_rng = emu_rng
        self.episode_epochs = episode_epochs
        self.orch = run.make_orchestrator()  # no policy yet: actions are forced
        self.epoch_i = 0

    def reset(self):
        run = self.run
        horizon = min(int(TRAIN_EPISODE_MINUTES * 60.0 / run.cfg.slot_s),
                      netsim.DYNAMICS_HORIZON_SLOTS)
        run.plan_window(self.state, horizon, self.emu_rng)
        self.epoch_i = 0
        return self.orch.state_vector(self.state)

    def step(self, actions):
        self.orch.force(actions)
        samples = netsim.advance_slots(self.state, self.orch, self.state.period_slots,
                                       self.traffic_rng)
        reward = da1.epoch_reward(samples, self.run.models, self.run.elas)
        self.epoch_i += 1
        done = self.epoch_i >= self.episode_epochs
        return self.orch.state_vector(self.state), reward, done


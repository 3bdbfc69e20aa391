"""Which package functions the benchmark times, and the per-layer metrics.

PHASES are patched on every run: five calls per run, so they cost nothing
measurable and give `eval_s` and the run's in-memory result.  LAYERS are
patched only on the traced run.  Observers read each call's result and
check the solver budgets and the game potential as the run goes.
"""
from __future__ import annotations

from qoesim import bench, da1, da2, harness, learn, netsim, qoe, runner

from spans import Tracer

TOL_REL = 1e-9

PHASES = (
    ("execute", "runner.execute"),
    ("bootstrap", "runner.bootstrap"),
    ("fit_models", "runner.fit"),
    ("train_policies", "runner.train"),
    ("evaluate", "runner.eval"),
)

# span name -> (owner, attribute); the order is the report order
LAYERS = {
    "da1.user_allocate": (da1, "user_allocate"),
    "da1.replan": (da1.Orchestrator, "replan"),
    "da1.planning_qoe": (da1, "planning_qoe"),
    "da1.emulate_context": (da1, "emulate_context"),
    "da1.predict_demand": (da1, "predict_demand"),
    "da2.abstract_demand": (da2, "abstract_demand"),
    "da2.dynamics_to_window": (da2, "dynamics_to_window"),
    "da2.greedy_slice": (da2, "greedy_slice"),
    "da2.best_response_adjust": (da2, "best_response_adjust"),
    "netsim.advance_slots": (netsim, "advance_slots"),
    "learn.backward": (learn, "backward"),
    "learn.greedy_actions": (learn, "greedy_actions"),
    "bench.replan": (bench.PdrlOrchestrator, "replan"),
    "qoe.fit_best_structure": (qoe, "fit_best_structure"),
    "qoe.should_update": (qoe, "should_update"),
    "harness.emit": (harness, "emit_run"),
}

# counters read from call results, with their units
COUNTERS = {
    "da1.user_allocate.iterations": "count",
    "da1.user_allocate.users": "count",
    "da1.user_allocate.converged": "count",
    "da2.best_response_adjust.rounds": "count",
    "netsim.slots": "count",
    "qoe.refits": "count",
}


class RunProbe:
    """Patches the run phases (and, traced, the layers) for one run."""

    def __init__(self, traced: bool):
        self.tracer = Tracer()
        self.counters = {name: 0 for name in COUNTERS}
        self.errors: list[str] = []
        self.scheme_run: runner.SchemeRun | None = None
        self.result: runner.RunResult | None = None
        self.out_dir = None
        self.traced = traced

    def __enter__(self) -> "RunProbe":
        t = self.tracer
        for attr, name in PHASES:
            t.patch(runner.SchemeRun, attr, name,
                    self._capture if attr == "execute" else None)
        if self.traced:
            observers = {"da1.user_allocate": self._solver,
                         "da2.best_response_adjust": self._game,
                         "netsim.advance_slots": self._slots,
                         "qoe.should_update": self._refit}
            for name, (owner, attr) in LAYERS.items():
                t.patch(owner, attr, name, observers.get(name))
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.restore()

    # -- observers -----------------------------------------------------------

    def _capture(self, args, out) -> None:
        self.scheme_run = args["self"]
        self.result = out

    def _solver(self, args, out) -> None:
        alloc, report = out
        c = self.counters
        c["da1.user_allocate.iterations"] += report.iterations
        c["da1.user_allocate.users"] += len(args["members"])
        c["da1.user_allocate.converged"] += int(report.converged)
        self.errors.extend(check_solver_budgets(
            alloc, args["bw_budget_hz"], args["cpu_budget_cps"]))

    def _game(self, args, out) -> None:
        _, report = out
        self.counters["da2.best_response_adjust.rounds"] += report.rounds
        self.errors.extend(check_potential(report.potential_trace))

    def _slots(self, args, out) -> None:
        self.counters["netsim.slots"] += args["n_slots"]

    def _refit(self, args, out) -> None:
        self.counters["qoe.refits"] += int(out)

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        t = self.tracer
        out: dict[str, tuple[float, str]] = {}
        for name in LAYERS:
            if name == "harness.emit":  # one call per run: its time is the metric
                out["harness.emit_s"] = (t.self_s.get(name, 0.0), "s")
                continue
            out[f"{name}.calls"] = (t.calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (t.self_s.get(name, 0.0), "s")
        for name, unit in COUNTERS.items():
            out[name] = (self.counters[name], unit)
        for _, name in PHASES[1:4]:
            out[f"{name}_s"] = (t.total_s.get(name, 0.0), "s")
        return out

    def layer_self_s(self) -> float:
        """Self time of all layers together."""
        return sum(self.tracer.self_s.get(n, 0.0) for n in LAYERS)


def check_solver_budgets(alloc, bw_budget: float, cpu_budget: float) -> list[str]:
    """A user_allocate result is non-negative and sums within its budgets."""
    errors = []
    for idx, budget in ((0, bw_budget), (1, cpu_budget)):
        values = [a[idx] for a in alloc.values()]
        if any(v < 0.0 for v in values):
            errors.append(f"user_allocate: negative grant {min(values)!r}")
        if sum(values) > max(budget, 0.0) * (1 + TOL_REL) + TOL_REL:
            errors.append(f"user_allocate: grants {sum(values)!r} exceed "
                          f"budget {budget!r}")
    return errors


def check_potential(trace: list[float]) -> list[str]:
    """The best-response potential trace never decreases."""
    return [f"best_response_adjust: potential fell {a!r} -> {b!r}"
            for a, b in zip(trace, trace[1:]) if b < a - TOL_REL * max(1.0, abs(a))]

"""qoesim benchmark: rounds of (scheme, seed) runs, checked and timed.

    python3 qoebench/run.py --workload proposed-k16 [--seed 1]
                            [--seconds 30] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from `src/`.
A round is one run per run seed of the workload (`workloads.run_seeds`).
With `--trace 0` the run is untraced: it repeats whole rounds while the
next is expected to end within `--seconds` (at least one), measures
set-up time in a fresh interpreter before each run of the first round,
and reports the end-to-end metrics (times are means over the runs).  With
`--trace 1` it makes untraced runs of the first run seeds, then a traced
round, and reports the per-layer metrics summed over the traced round.  Every run's artifacts are checked (checks.py).  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Artifacts, spans and a result record go to
`.qoebench_out/<workload>-seed<seed>/`.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, run_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".qoebench_out"
SCHEMA = SRC / "qoesim" / "schema" / "summary.schema.json"
REFERENCE = HERE / "digests.json"
OVERHEAD_RUNS = 3  # run seeds run untraced too, to measure the tracing cost
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="qoebench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="untraced: start no round that would end later")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, ref_name = line.partition(" ")
        if ref_name == name:
            return sha
    return "unknown"


def artifact_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def measure_setup(workload: str, seed: int) -> float:
    """Process start to validated config and sampled users, in a fresh
    interpreter (the package's byte code is already cached by this one)."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - t0


class Bench:
    """Runs and checks rounds of one workload at one benchmark seed."""

    def __init__(self, wl, seed: int):
        from qoesim import scenario
        from qoesim.bench import SchemeId

        self.wl = wl
        self.seed = seed
        self.run_seeds = run_seeds(wl, seed)
        self.cfg = scenario.validate_config(scenario.parse_overrides(wl.overrides))
        self.scheme = SchemeId(wl.scheme)
        self.schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
        self.dir = OUT / f"{wl.name}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[int, list[str]] = {s: [] for s in self.run_seeds}
        self.ela_ratios: dict[int, float] = {}
        self.reps = 0
        self.peak_mb = None

    def run(self, traced: bool, run_seed: int):
        """One full run through `harness.run_experiment`; returns
        (run_s, probe) or None when the run raised."""
        import layers
        from qoesim import harness

        out_dir = self.dir / f"run{run_seed}-rep{self.reps}"
        self.reps += 1
        try:
            with layers.RunProbe(traced) as probe:
                t0 = time.perf_counter()
                summary = harness.run_experiment(
                    self.cfg, self.scheme, [run_seed], str(out_dir),
                    trace_level=self.wl.trace_level, train_epochs=self.wl.train_epochs)
                run_s = time.perf_counter() - t0
        except Exception:  # a program fault: count it, keep the report
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"run seed {run_seed} raised:\n" + traceback.format_exc())
            return None
        self.ela_ratios[run_seed] = summary["pooled"]["mean_ela_ratio"]
        probe.out_dir = out_dir
        probe.run_seed = run_seed
        return run_s, probe

    def check(self, probe) -> None:
        import checks

        try:
            outcome = checks.check_run(self.cfg, self.scheme.value, probe.run_seed,
                                       str(probe.out_dir), probe.scheme_run.elas,
                                       probe.result, self.schema)
        except (OSError, ValueError, KeyError) as e:  # missing or unreadable artifacts
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"artifacts unreadable: {e!r}")
            return
        self.attempted += max(outcome.windows, 1)
        self.failed += len(outcome.failed) if outcome.windows else 1
        self.errors += outcome.errors + probe.errors
        self.digests[probe.run_seed].append(artifact_digest(probe.out_dir))

    def round_digest(self) -> str | None:
        """SHA-256 over the first digest of every run seed, in order."""
        if not all(self.digests.values()):
            return None
        return hashlib.sha256("".join(d[0] for d in self.digests.values())
                              .encode()).hexdigest()

    def environment(self) -> dict:
        import numpy
        import scipy
        from qoesim import scenario

        return {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__,
                "git_revision": git_revision(),
                "config_hash": scenario.config_hash(self.cfg)}

    def finish(self, metrics: dict[str, tuple[float, str]], extra: dict) -> dict:
        for run_seed, digests in self.digests.items():
            if len(set(digests)) > 1:
                self.errors.append(f"repeats of run seed {run_seed} differ: "
                                   f"artifact digests {digests}")
        correct = not self.errors and self.failed == 0
        ratios = list(self.ela_ratios.values())
        record = {"workload": self.wl.name, "seed": self.seed,
                  "run_seeds": self.run_seeds,
                  "environment": self.environment(), "repetitions": self.reps,
                  "digest": self.round_digest(),
                  "reference_digest": self._reference(),
                  "mean_ela_ratio": sum(ratios) / len(ratios) if ratios else None,
                  "errors": self.errors, **extra}
        result = {"correct": correct, "attempted": max(self.attempted, 1),
                  "failed": self.failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        (self.dir / "result.json").write_text(
            json.dumps({**record, **result}, indent=1), encoding="utf-8")
        for err in self.errors:
            print(f"CHECK FAILED: {err}", file=sys.stderr)
        for key in ("run_seeds", "environment", "repetitions", "digest",
                    "reference_digest", "mean_ela_ratio"):
            print(f"{key}: {record[key]}")
        for k, (v, u) in metrics.items():
            print(f"{k} = {v} {u}")
        return result

    def _reference(self) -> str:
        """'match', 'differs' or 'none' against digests.json (informative:
        a method fix may change the artifacts)."""
        try:
            ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
            expected = ref[self.wl.name][str(self.seed)]["digest"]
        except (OSError, KeyError, ValueError):
            return "none"
        digest = self.round_digest()
        if digest is None:
            return "none"
        return "match" if digest == expected else "differs"

    def round(self, traced: bool, keep, before_run=None, count=None) -> list | None:
        """One run per run seed (the first `count` of them), each checked;
        `keep(run_s, probe)` for every run, or None when a run raised.
        `before_run()` is called before each run.  Each run starts on a
        collected heap and holds no earlier run's objects, as a run in a
        fresh process would."""
        done = []
        for run_seed in self.run_seeds[:count]:
            if before_run is not None:
                before_run()
            gc.collect()
            out = self.run(traced, run_seed)
            if out is None:
                return None
            if self.peak_mb is None:  # before any check reads the artifacts back
                self.peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self.check(out[1])
            done.append(keep(*out))
            del out
        return done


def untraced(bench: Bench, seconds: float) -> dict:
    """Whole rounds while the next is expected to end within `seconds` (at
    least one).  `run_s` and `eval_s` are means over all runs, so every
    population weighs the same; set-up probes sit between the runs of the
    first round, so their median spans the round rather than one moment."""
    setup: list[float] = []

    def probe_setup() -> None:
        if not run_s:  # first round only
            setup.append(measure_setup(bench.wl.name, bench.seed))

    run_s, eval_s = [], []
    t_begin = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        done = bench.round(False, lambda r, p: (r, p.tracer.total_s["runner.eval"]),
                           before_run=probe_setup)
        if done is None:
            break
        run_s += [r for r, _ in done]
        eval_s += [e for _, e in done]
        now = time.perf_counter()
        if now - t_begin + (now - t_round) > seconds:
            break
    metrics = {}
    if run_s:
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   "run_s": (statistics.fmean(run_s), "s"),
                   "eval_s": (statistics.fmean(eval_s), "s"),
                   "peak_rss_mb": (bench.peak_mb, "MB")}
    return bench.finish(metrics, {"setup_s_all": setup, "run_s_all": run_s,
                                  "eval_s_all": eval_s})


def traced(bench: Bench) -> dict:
    """Untraced runs of the first run seeds, then a traced round.  Layer
    metrics are sums over the traced round; the overhead is the traced
    time of those first run seeds minus their untraced time."""
    def layers_of(run_s, probe):
        probe.tracer.write_csv(str(bench.dir / f"spans_run{probe.run_seed}.csv"))
        emit_bytes = sum(p.stat().st_size for p in probe.out_dir.iterdir())
        return run_s, probe.layer_metrics(), emit_bytes, probe.layer_self_s()

    plain = bench.round(False, lambda r, p: r, count=OVERHEAD_RUNS)
    runs = bench.round(True, layers_of) if plain is not None else None
    if runs is None:
        return bench.finish({}, {})
    metrics: dict[str, tuple[float, str]] = {}
    for _, layer_metrics, _, _ in runs:
        for name, (value, unit) in layer_metrics.items():
            metrics[name] = (metrics.get(name, (0, unit))[0] + value, unit)
    metrics["harness.emit_bytes"] = (sum(b for _, _, b, _ in runs), "bytes")
    traced_s = sum(r for r, _, _, _ in runs)
    metrics["trace.overhead_s"] = (
        sum(r for r, _, _, _ in runs[:len(plain)]) - sum(plain), "s")
    share = sum(s for _, _, _, s in runs) / traced_s
    extra = {"run_s_untraced": plain,
             "run_s_traced": [r for r, _, _, _ in runs], "layer_share": share}
    print(f"layer self time / traced round time: {share:.4f}")
    return bench.finish(metrics, extra)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qoesim" / "__init__.py").is_file():
        print(f"qoebench: package source {SRC / 'qoesim'} not found; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = Bench(WORKLOADS[args.workload], args.seed)
    result = traced(bench) if args.trace else untraced(bench, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

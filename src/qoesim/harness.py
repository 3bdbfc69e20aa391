"""Experiment driver: metrics, result files, and multi-seed comparisons.

One experiment = (scenario, scheme, seed list).  Each seed runs the full
bootstrap/train/evaluate pipeline and emits per-run CSVs, whose rows come
from the run's window records (`runner.WindowLog`), plus a merged
summary.json that validates against the shipped schema.

Each run's `capacity_violations` comes from `capacity_violations`, which
checks the per-slot trace against the slice reservations independently of
the world step's own clipping.  Runs with an aggregate trace keep no slot
records, so they report 0 unchecked.

Every CSV goes through one writer (`_write_rows`) with one %-format line
per file.  For the row types that `emit_run` hands over, which the tests
pin, a line holds the bytes that `csv.writer` would write, at a third of
its cost on `slots_*.csv`, the one large artifact.
"""
from __future__ import annotations

import bisect
import functools
import json
import os
from dataclasses import asdict, dataclass, replace
from importlib import resources

import jsonschema
import numpy as np

from . import learn, netsim, runner, scenario
from .bench import SchemeId
from .errors import ConfigError, EmptyInput, EmptyWindow, TooFewSamples

SCHEMA_NAME = "summary.schema.json"


@dataclass(frozen=True)
class BoxStats:
    median: float
    q1: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    outliers: int


def user_means(samples: list[netsim.PeriodSample]) -> dict[int, float]:
    """Each user's mean QoE over a window's period samples."""
    per_user: dict[int, list[float]] = {}
    for ps in samples:
        per_user.setdefault(ps.user, []).append(ps.sample.qoe)
    return {u: float(np.mean(v)) for u, v in per_user.items()}


def ela_ratio(means: dict[int, float], elas: dict[int, float]) -> float:
    """Fraction of users whose window-mean QoE met their ELA."""
    if not means:
        raise EmptyWindow("no records in window")
    met = sum(1 for u, m in means.items() if m >= elas[u])
    return met / len(elas)


def cdf_points(values) -> list[tuple[float, float]]:
    """Empirical CDF as right-continuous (value, cumulative fraction) steps."""
    vals = sorted(values)
    if not vals:
        raise EmptyInput("empty value set")
    n = len(vals)
    out = []
    for i, v in enumerate(vals, 1):
        if i == n or vals[i] != v:
            out.append((float(v), i / n))
    return out


def box_stats(values) -> BoxStats:
    """Quartiles by linear interpolation; whiskers at the most extreme data
    within 1.5 IQR of the box."""
    vals = np.asarray(sorted(values), dtype=float)
    if vals.size < 4:
        raise TooFewSamples(f"need >= 4 samples, got {vals.size}")
    q1, med, q3 = np.percentile(vals, [25, 50, 75])
    iqr = q3 - q1
    lo_lim, hi_lim = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = vals[(vals >= lo_lim) & (vals <= hi_lim)]
    return BoxStats(float(med), float(q1), float(q3),
                    float(inside.min()), float(inside.max()),
                    int(vals.size - inside.size))


def capacity_violations(res: runner.RunResult) -> int:
    """Count per-slot grants above the window's summed slice reservations.

    Counts the (slot, BS) bandwidth sums and the per-slot compute sums of
    `res.slot_records` that exceed the window's slice reservations, summed
    per BS and over groups.  A run without slot records counts 0.
    """
    if res.slot_records is None:
        return 0
    bw_caps, cpu_caps = [], []
    for w in res.windows:
        per_bs: dict[int, float] = {}
        for (_, bs), bw in sorted(w.slice.reserved_bw.items()):
            per_bs[bs] = per_bs.get(bs, 0.0) + bw
        bw_caps.append(per_bs)
        cpu_caps.append(sum(cpu for _, cpu in sorted(w.slice.reserved_cpu.items())))
    starts = [w.start_slot for w in res.windows]
    used_bw: dict[tuple[int, int, int], float] = {}
    used_cpu: dict[tuple[int, int], float] = {}
    for r in res.slot_records:
        i = bisect.bisect_right(starts, r.t) - 1
        key = (i, r.t, r.serving_bs)
        used_bw[key] = used_bw.get(key, 0.0) + r.allocated_bw_hz
        used_cpu[(i, r.t)] = used_cpu.get((i, r.t), 0.0) + r.allocated_compute_cps
    over_bw = sum(1 for (i, _, bs), used in used_bw.items()
                  if used > bw_caps[i].get(bs, 0.0) * (1 + 1e-9) + 1e-6)
    over_cpu = sum(1 for (i, _), used in used_cpu.items()
                   if used > cpu_caps[i] * (1 + 1e-9) + 1e-3)
    return over_bw + over_cpu


# One line format per CSV, for the rows that `emit_run` hands over: ints
# and bools as %d, floats (Python or numpy float64) at 10 significant
# digits, strs (mechanism names, which need no quoting) as %s; CRLF ends
# each line, as `csv.writer` would.
SLOTS_HEADER = list(netsim.SLOT_COLUMNS)
SLOTS_LINE = ",".join(["%d"] * 3 + ["%.10g"] * 9) + "\r\n"
DEMANDS_HEADER = ["window", "user", "bandwidth_hz", "compute_cps", "feasible"]
DEMANDS_LINE = "%d,%d,%.10g,%.10g,%d\r\n"
SLICES_HEADER = ["window", "window_minutes", "group", "bs", "reserved_bw_hz",
                 "reserved_compute_cps", "mechanism"]
SLICES_LINE = "%d,%.10g,%d,%d,%.10g,%.10g,%s\r\n"
WINDOWS_HEADER = ["window", "start_slot", "end_slot", "window_minutes",
                  "mechanism", "ela_ratio"]
WINDOWS_LINE = "%d,%d,%d,%.10g,%s,%.10g\r\n"
REPORT_CDF_HEADER = ["scheme", "ratio", "cdf"]  # `simctl report`'s report_cdf.csv
REPORT_CDF_LINE = "%s,%.10g,%.10g\r\n"


def _write_rows(path: str, header: list[str], line: str, rows) -> None:
    """Write a CSV: the header, then each row through the %-format `line`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line % row for row in rows)


def emit_run(out_dir: str, scheme: str, res: runner.RunResult,
             elas: dict[int, float]) -> tuple[dict, list[float]]:
    """Write one run of `scheme` as CSV artifacts, `slots_*.csv` when the run
    kept slot records; returns the summary fragment and the QoE samples."""
    tag = f"{scheme}_seed{res.seed}"
    os.makedirs(out_dir, exist_ok=True)
    if res.slot_records is not None:
        _write_rows(os.path.join(out_dir, f"slots_{tag}.csv"), SLOTS_HEADER,
                    SLOTS_LINE, res.slot_records)
    _write_rows(os.path.join(out_dir, f"demands_{tag}.csv"), DEMANDS_HEADER,
                DEMANDS_LINE,
                ((w.index, u, d.bandwidth_hz, d.compute_cps, d.feasible)
                 for w in res.windows for u, d in sorted(w.demands.items())))
    _write_rows(os.path.join(out_dir, f"slices_{tag}.csv"), SLICES_HEADER,
                SLICES_LINE,
                ((w.index, w.window_minutes, g, bs, bw,
                  w.slice.reserved_cpu.get(g, 0.0), w.slice.mechanism)
                 for w in res.windows
                 for (g, bs), bw in sorted(w.slice.reserved_bw.items())))
    ratios = [ela_ratio(user_means(w.samples), elas) for w in res.windows]
    _write_rows(os.path.join(out_dir, f"windows_{tag}.csv"), WINDOWS_HEADER,
                WINDOWS_LINE,
                ((w.index, w.start_slot, w.end_slot, w.window_minutes,
                  w.slice.mechanism, ratio) for w, ratio in zip(res.windows, ratios)))
    qoe_samples = [ps.sample.qoe for w in res.windows for ps in w.samples]
    return {
        "seed": res.seed,
        "window_ratios": ratios,
        "mean_ela_ratio": float(np.mean(ratios)),
        "qoe_samples": len(qoe_samples),
        "qoe_box": asdict(box_stats(qoe_samples)),
        "capacity_violations": capacity_violations(res),
    }, qoe_samples


def _seed_job(args) -> tuple[dict, list[float]]:
    cfg, scheme, seed, out_dir, trace_level, policy, policy_out = args
    sr = runner.SchemeRun(cfg, scheme, seed,
                          collect_slots=(trace_level == "full"), policy=policy)
    res = sr.execute()
    if policy_out is not None and sr.policy is not None:
        learn.save_network(sr.policy, policy_out)
    return emit_run(out_dir, scheme.value, res, sr.elas)


def _worker_count(n_jobs: int) -> int:
    cap = os.environ.get("SIMCTL_THREADS")
    try:
        workers = int(cap) if cap else (os.cpu_count() or 1)
    except ValueError:
        raise ConfigError(f"SIMCTL_THREADS must be an integer, got {cap!r}") from None
    return max(min(workers, n_jobs), 1)


def run_experiment(cfg: scenario.ScenarioConfig, scheme: SchemeId,
                   seeds: list[int], out_dir: str, trace_level: str = "full",
                   train_epochs: int | None = None,
                   policy: learn.BdqNetwork | None = None,
                   policy_out: str | None = None) -> dict:
    """Run one scheme over a seed list and emit artifacts + summary.json.

    Seeds fan out to a process pool (capped by SIMCTL_THREADS); results
    merge deterministically in seed order.  `train_epochs` replaces
    `cfg.train.epochs`, checked as the config is, so the config hash names
    the budget that ran; a `policy` is evaluated, not trained.  `policy_out`
    names one file, so it takes a single seed.
    """
    if not seeds:
        raise ConfigError("run_experiment needs at least one seed")
    if policy_out is not None and len(seeds) != 1:
        raise ConfigError(f"policy_out saves one seed's policy; got {len(seeds)} "
                          f"seeds {list(seeds)}")
    if train_epochs is not None:
        train = replace(cfg.train, epochs=train_epochs)
        cfg = scenario.validate_config(replace(cfg, train=train))
    os.makedirs(out_dir, exist_ok=True)
    jobs = [(cfg, scheme, seed, out_dir, trace_level, policy, policy_out)
            for seed in seeds]
    workers = _worker_count(len(jobs))
    if workers == 1:
        outcomes = [_seed_job(j) for j in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_seed_job, jobs))
    per_seed = []
    pooled_qoe = []
    pooled_ratios = []
    for frag, qoe_values in outcomes:
        pooled_qoe.extend(qoe_values)
        pooled_ratios.extend(frag["window_ratios"])
        per_seed.append(frag)
    summary = {
        "scheme": scheme.value,
        "num_users": cfg.num_users,
        "seeds": list(seeds),
        "config_hash": scenario.config_hash(cfg),
        "per_seed": per_seed,
        "pooled": {
            "mean_ela_ratio": float(np.mean([f["mean_ela_ratio"] for f in per_seed])),
            "ratio_cdf": [[v, f] for v, f in cdf_points(pooled_ratios)],
            "qoe_box": asdict(box_stats(pooled_qoe)),
        },
    }
    validate_summary(summary)
    path = os.path.join(out_dir, f"summary_{scheme.value}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
    return summary


def load_schema() -> dict:
    with resources.files("qoesim.schema").joinpath(SCHEMA_NAME).open() as fh:
        return json.load(fh)


@functools.cache
def _summary_validator():
    """The summary schema's validator; the schema is checked once per process."""
    schema = load_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_summary(summary: dict) -> None:
    """Raise what `jsonschema.validate` would, without re-checking the schema."""
    error = jsonschema.exceptions.best_match(_summary_validator().iter_errors(summary))
    if error is not None:
        raise error


def comparison_table(summaries: list[dict]) -> str:
    """Plain-text scheme comparison for `simctl report`."""
    lines = [f"{'scheme':10s} {'mean ELA ratio':>15s} {'median QoE':>11s} "
             f"{'IQR':>7s} {'violations':>11s}"]
    for s in summaries:
        box = s["pooled"]["qoe_box"]
        viol = sum(f["capacity_violations"] for f in s["per_seed"])
        lines.append(f"{s['scheme']:10s} {s['pooled']['mean_ela_ratio']:15.4f} "
                     f"{box['median']:11.3f} {box['q3'] - box['q1']:7.3f} "
                     f"{viol:11d}")
    return "\n".join(lines)

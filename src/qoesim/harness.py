"""Experiment driver: metrics, result files, and multi-seed comparisons.

One experiment = (scenario, scheme, seed list).  Each seed runs the full
bootstrap/train/evaluate pipeline and emits per-run CSVs, whose rows come
from the run's window records (`runner.WindowLog`), plus a merged
summary.json that validates against the shipped schema.

Each run's `capacity_violations` comes from `capacity_violations`, which
checks the per-slot trace against the slice reservations independently of
the world step's own clipping.  Runs with an aggregate trace keep no slot
records, so they report 0 unchecked.

`slots_*.csv`, the one large artifact, is written a row at a time with one
%-format string (`_write_slots`): `csv.writer` plus `_fmt` per value cost
three times as much for the same bytes.
"""
from __future__ import annotations

import bisect
import csv
import itertools
import json
import os
from dataclasses import asdict, dataclass
from importlib import resources

import jsonschema
import numpy as np

from . import netsim, runner, scenario
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

    def as_dict(self) -> dict:
        return asdict(self)


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


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


SLOTS_HEADER = list(netsim.SLOT_COLUMNS)
# one slot row as `_write_csv` writes it: t, user and serving_bs as ints,
# the nine float columns at 10 significant digits, CRLF
_SLOT_LINE = ",".join(["%d"] * 3 + ["%.10g"] * 9) + "\r\n"
_SLOT_FAST_TYPES = {(int,) * 3 + floats
                    for floats in itertools.product((float, np.float64), repeat=9)}


def _write_slots(path: str, rows) -> None:
    """`_write_csv(path, SLOTS_HEADER, rows)`, byte for byte, with one
    %-format a row.  The format renders ints and floats (Python or numpy
    float64) as `_fmt` does; any other row (an int in a float column, say)
    goes through the csv writer."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(SLOTS_HEADER)
        write, fast = fh.write, _SLOT_FAST_TYPES
        for row in rows:
            if tuple(map(type, row)) in fast:
                write(_SLOT_LINE % row)
            else:
                w.writerow([_fmt(v) for v in row])


DEMANDS_HEADER = ["window", "user", "bandwidth_hz", "compute_cps", "feasible"]
SLICES_HEADER = ["window", "window_minutes", "group", "bs", "reserved_bw_hz",
                 "reserved_compute_cps", "mechanism"]
WINDOWS_HEADER = ["window", "start_slot", "end_slot", "window_minutes",
                  "mechanism", "ela_ratio"]


def emit_run(out_dir: str, scheme: str, res: runner.RunResult,
             elas: dict[int, float]) -> tuple[dict, list[float]]:
    """Write one run of `scheme` as CSV artifacts, `slots_*.csv` when the run
    kept slot records; returns the summary fragment and the QoE samples."""
    tag = f"{scheme}_seed{res.seed}"
    os.makedirs(out_dir, exist_ok=True)
    if res.slot_records is not None:
        _write_slots(os.path.join(out_dir, f"slots_{tag}.csv"), res.slot_records)
    _write_csv(os.path.join(out_dir, f"demands_{tag}.csv"), DEMANDS_HEADER,
               ((w.index, u, d.bandwidth_hz, d.compute_cps, d.feasible)
                for w in res.windows for u, d in sorted(w.demands.items())))
    _write_csv(os.path.join(out_dir, f"slices_{tag}.csv"), SLICES_HEADER,
               ((w.index, w.window_minutes, g, bs, bw,
                 w.slice.reserved_cpu.get(g, 0.0), w.slice.mechanism)
                for w in res.windows
                for (g, bs), bw in sorted(w.slice.reserved_bw.items())))
    ratios = [ela_ratio(user_means(w.samples), elas) for w in res.windows]
    _write_csv(os.path.join(out_dir, f"windows_{tag}.csv"), WINDOWS_HEADER,
               ((w.index, w.start_slot, w.end_slot, w.window_minutes,
                 w.slice.mechanism, ratio) for w, ratio in zip(res.windows, ratios)))
    qoe_samples = [ps.sample.qoe for w in res.windows for ps in w.samples]
    return {
        "seed": res.seed,
        "window_ratios": ratios,
        "mean_ela_ratio": float(np.mean(ratios)),
        "qoe_samples": len(qoe_samples),
        "qoe_box": box_stats(qoe_samples).as_dict(),
        "capacity_violations": capacity_violations(res),
    }, qoe_samples


def _seed_job(args) -> tuple[dict, list[float]]:
    cfg, scheme, seed, out_dir, trace_level, train_epochs, policy_in, policy_out = args
    sr = runner.SchemeRun(cfg, scheme, seed,
                          collect_slots=(trace_level == "full"),
                          train_epochs=train_epochs, policy_in=policy_in)
    res = sr.execute()
    if policy_out is not None and sr.policy is not None:
        from . import learn
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
                   policy_in: str | None = None,
                   policy_out: str | None = None) -> dict:
    """Run one scheme over a seed list and emit artifacts + summary.json.

    Seeds fan out to a process pool (capped by SIMCTL_THREADS); results
    merge deterministically in seed order.  `policy_out` names one file, so
    it takes a single seed.
    """
    if not seeds:
        raise ConfigError("run_experiment needs at least one seed")
    if policy_out is not None and len(seeds) != 1:
        raise ConfigError(f"policy_out saves one seed's policy; got {len(seeds)} "
                          f"seeds {list(seeds)}")
    os.makedirs(out_dir, exist_ok=True)
    jobs = [(cfg, scheme, seed, out_dir, trace_level, train_epochs,
             policy_in, policy_out) for seed in seeds]
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
            "qoe_box": box_stats(pooled_qoe).as_dict(),
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


def validate_summary(summary: dict) -> None:
    jsonschema.validate(summary, load_schema())


def recompute_window_ratios(slots_csv: str, windows_csv: str,
                            elas: dict[int, float],
                            period_slots: int) -> list[tuple[float, float]]:
    """Redundant-path check: rebuild each window's ELA ratio from the raw
    slot trace and pair it with the value in windows.csv."""
    with open(windows_csv, newline="", encoding="utf-8") as fh:
        windows = [(int(r["window"]), int(r["start_slot"]), int(r["end_slot"]),
                    float(r["ela_ratio"])) for r in csv.DictReader(fh)]
    by_window_user: dict[int, dict[int, list[float]]] = {}
    with open(slots_csv, newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            t = int(r["t"])
            if (t + 1) % period_slots != 0:
                continue
            for idx, start, end, _ in windows:
                if start <= t < end:
                    by_window_user.setdefault(idx, {}).setdefault(
                        int(r["user"]), []).append(float(r["qoe_sample"]))
                    break
    out = []
    for idx, start, end, stored in windows:
        means = {u: float(np.mean(v)) for u, v in by_window_user[idx].items()}
        out.append((ela_ratio(means, elas), stored))
    return out


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

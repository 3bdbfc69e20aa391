"""Output checks on one run's artifacts, written independently of the package.

Each check compares the written files against properties the run must have:
windows tile the evaluation on the configured ladder, slices fit the
hardware, per-slot grants fit the window's slices, the stored ELA ratios
follow from the raw slot trace, QoE samples lie in [1, 5] and the summary
matches the shipped schema.  A failure names the window it belongs to;
an evaluated window is one operation.
"""
from __future__ import annotations

import bisect
import csv
import json
import math
import os
from dataclasses import dataclass, field

import jsonschema

TOL_REL = 1e-8   # artifacts hold 10 significant digits
TOL_BW_HZ = 1e-6
TOL_CPU_CPS = 1e-3
MOS_RANGE = (1.0, 5.0)


@dataclass
class Outcome:
    windows: int = 0
    failed: set[int] = field(default_factory=set)
    errors: list[str] = field(default_factory=list)

    def fail(self, window: int | None, msg: str) -> None:
        if window is not None:
            self.failed.add(window)
        self.errors.append(msg if window is None else f"window {window}: {msg}")


def _rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _within(used: float, cap: float, tol_abs: float) -> bool:
    return used <= cap * (1 + TOL_REL) + tol_abs


def check_run(cfg, scheme: str, seed: int, out_dir: str, elas: dict[int, float],
              result, schema: dict) -> Outcome:
    """Check the artifacts of one run written by `harness.run_experiment`.

    `result` is the run's in-memory `RunResult`, `elas` each user's ELA.
    """
    out = Outcome()
    tag = f"{scheme}_seed{seed}"
    windows = sorted(_rows(os.path.join(out_dir, f"windows_{tag}.csv")),
                     key=lambda r: int(r["window"]))
    out.windows = len(windows)
    spans = [(int(r["window"]), int(r["start_slot"]), int(r["end_slot"]))
             for r in windows]
    _check_tiling(cfg, windows, out)
    caps = _check_slices(cfg, _rows(os.path.join(out_dir, f"slices_{tag}.csv")),
                         {w for w, _, _ in spans}, out)
    slots_csv = os.path.join(out_dir, f"slots_{tag}.csv")
    if os.path.exists(slots_csv):
        _check_slot_trace(cfg, _rows(slots_csv), spans, caps, windows, elas, out)
    _check_samples(cfg, result, spans, out)
    with open(os.path.join(out_dir, f"summary_{scheme}.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    _check_summary(summary, windows, result, schema, out)
    return out


def _check_tiling(cfg, windows, out: Outcome) -> None:
    total = int(cfg.sim_duration_s / cfg.slot_s)
    ladder = tuple(cfg.slicing.window_minutes)
    prev_end = 0
    for i, r in enumerate(windows):
        w, start, end = int(r["window"]), int(r["start_slot"]), int(r["end_slot"])
        minutes = float(r["window_minutes"])
        if w != i:
            out.fail(w, f"index out of sequence (expected {i})")
        if start != prev_end:
            out.fail(w, f"starts at slot {start}, previous window ended at {prev_end}")
        if not 0 < end - start <= minutes * 60.0 / cfg.slot_s + 1e-9:
            out.fail(w, f"spans {end - start} slots for a {minutes}-minute window")
        if not any(math.isclose(minutes, m) for m in ladder):
            out.fail(w, f"length {minutes} min is not on the ladder {ladder}")
        prev_end = end
    if prev_end != total:
        out.fail(None, f"windows end at slot {prev_end}, evaluation has {total}")


def _check_slices(cfg, rows, window_ids, out: Outcome):
    """Per window: reserved bandwidth per BS and compute within hardware.

    Returns {window: ({bs: reserved bw}, reserved compute)}.
    """
    bs_cap = {b.id: b.dl_bandwidth_hz for b in cfg.base_stations()}
    bw: dict[int, dict[int, float]] = {}
    cpu: dict[int, dict[int, float]] = {}
    for r in rows:
        w, g, bs = int(r["window"]), int(r["group"]), int(r["bs"])
        if w not in window_ids:
            out.fail(None, f"slice row for unknown window {w}")
            continue
        if bs not in bs_cap:
            out.fail(w, f"slice on unknown base station {bs}")
            continue
        per_bs = bw.setdefault(w, {b: 0.0 for b in bs_cap})
        per_bs[bs] += float(r["reserved_bw_hz"])
        c = float(r["reserved_compute_cps"])
        if cpu.setdefault(w, {}).setdefault(g, c) != c:
            out.fail(w, f"group {g} has two compute reservations")
    caps = {}
    for w in sorted(window_ids):
        if w not in bw:
            out.fail(w, "no slice rows")
            continue
        for bs, used in bw[w].items():
            if not _within(used, bs_cap[bs], TOL_BW_HZ):
                out.fail(w, f"BS {bs} reserves {used:.6g} Hz of {bs_cap[bs]:.6g}")
        total_cpu = sum(cpu[w].values())
        if not _within(total_cpu, cfg.edge.capacity_cps, TOL_CPU_CPS):
            out.fail(w, f"compute reserves {total_cpu:.6g} of {cfg.edge.capacity_cps:.6g}")
        caps[w] = (bw[w], total_cpu)
    return caps


def _check_slot_trace(cfg, rows, spans, caps, windows, elas, out: Outcome) -> None:
    """Per slot, grants fit the window's slices; ELA ratios follow from the
    period-end QoE samples."""
    starts = [s for _, s, _ in spans]
    period = max(int(round(cfg.playback.eval_period_s / cfg.slot_s)), 1)
    used_bw: dict[tuple[int, int], float] = {}
    used_cpu: dict[int, float] = {}
    window_of: dict[int, int] = {}
    period_qoe: dict[int, dict[int, list[float]]] = {}
    for r in rows:
        t = int(r["t"])
        i = bisect.bisect_right(starts, t) - 1
        if i < 0 or t >= spans[i][2]:
            out.fail(None, f"slot {t} lies outside every window")
            continue
        w = spans[i][0]
        window_of[t] = w
        key = (t, int(r["serving_bs"]))
        used_bw[key] = used_bw.get(key, 0.0) + float(r["allocated_bw_hz"])
        used_cpu[t] = used_cpu.get(t, 0.0) + float(r["allocated_compute_cps"])
        q = float(r["qoe_sample"])
        if not MOS_RANGE[0] <= q <= MOS_RANGE[1]:
            out.fail(w, f"slot {t} user {r['user']}: QoE sample {q} outside [1, 5]")
        if (t + 1) % period == 0:
            period_qoe.setdefault(w, {}).setdefault(int(r["user"]), []).append(q)
    for (t, bs), used in sorted(used_bw.items()):
        w = window_of[t]
        if w in caps and not _within(used, caps[w][0].get(bs, 0.0), TOL_BW_HZ):
            out.fail(w, f"slot {t} BS {bs} grants {used:.10g} Hz over its "
                        f"slices' {caps[w][0].get(bs, 0.0):.10g}")
    for t, used in sorted(used_cpu.items()):
        w = window_of[t]
        if w in caps and not _within(used, caps[w][1], TOL_CPU_CPS):
            out.fail(w, f"slot {t} grants {used:.10g} cycles/s over its "
                        f"slices' {caps[w][1]:.10g}")
    for r in windows:
        w = int(r["window"])
        means = {u: sum(v) / len(v) for u, v in period_qoe.get(w, {}).items()}
        if set(means) != set(elas):
            out.fail(w, "slot trace lacks period samples for some users")
            continue
        ratio = sum(1 for u, m in means.items() if m >= elas[u]) / len(elas)
        if abs(ratio - float(r["ela_ratio"])) > 1e-9:
            out.fail(w, f"ELA ratio {r['ela_ratio']} but the slot trace gives {ratio}")


def _check_samples(cfg, result, spans, out: Outcome) -> None:
    """Every QoE sample in [1, 5]; one per user per evaluation period."""
    period = max(int(round(cfg.playback.eval_period_s / cfg.slot_s)), 1)
    by_index = {w.index: w for w in result.windows}
    total = 0
    for w, start, end in spans:
        log = by_index.get(w)
        if log is None:
            out.fail(w, "missing from the run result")
            continue
        bad = [ps.sample.qoe for ps in log.samples
               if not MOS_RANGE[0] <= ps.sample.qoe <= MOS_RANGE[1]]
        if bad:
            out.fail(w, f"{len(bad)} QoE samples outside [1, 5], e.g. {bad[0]}")
        expected = cfg.num_users * ((end - start) // period)
        if len(log.samples) != expected:
            out.fail(w, f"{len(log.samples)} QoE samples, expected {expected}")
        total += len(log.samples)
    periods = int(cfg.sim_duration_s / cfg.slot_s) // period
    if total != cfg.num_users * periods:
        out.fail(None, f"{total} QoE samples, expected {cfg.num_users} users x "
                       f"{periods} periods")


def _check_summary(summary, windows, result, schema, out: Outcome) -> None:
    try:
        jsonschema.validate(summary, schema)
    except jsonschema.ValidationError as e:
        out.fail(None, f"summary fails the schema: {e.message}")
        return
    seed_frag = summary["per_seed"][0]
    stored = [float(r["ela_ratio"]) for r in windows]
    if any(abs(a - b) > 1e-9 for a, b in zip(seed_frag["window_ratios"], stored)) \
            or len(stored) != len(seed_frag["window_ratios"]):
        out.fail(None, "summary window ratios differ from windows csv")
    n = sum(len(w.samples) for w in result.windows)
    if seed_frag["qoe_samples"] != n:
        out.fail(None, f"summary counts {seed_frag['qoe_samples']} QoE samples, "
                       f"the run drew {n}")

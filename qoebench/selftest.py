"""Quick self-test of the benchmark's checks (a few seconds per workload).

    python3 qoebench/selftest.py

Runs each workload's scheme on a tiny config (360 s evaluation, 4-minute
bootstrap, 20 training epochs) with tracing on and requires every check to
pass and a repeated run to give the same digest.  Then it tampers with
copies of the artifacts and with solver and game results, and requires
each tampering to be rejected.  Exits 1 if any case goes the wrong way.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import sys
from pathlib import Path

import run
from workloads import WORKLOADS

TINY = {"sim_duration_s": "360", "agent.bootstrap_minutes": "4"}
TINY_EPOCHS = 20
SEED = 3


def tiny(wl):
    return dataclasses.replace(wl, name=f"selftest-{wl.name}", populations=1,
                               train_epochs=min(wl.train_epochs, TINY_EPOCHS),
                               overrides={**wl.overrides, **TINY})


def edit_csv(path: Path, edit) -> None:
    """Rewrite a CSV after passing its rows (dicts) to `edit`."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


def edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text(encoding="utf-8"))
    edit(obj)
    path.write_text(json.dumps(obj), encoding="utf-8")


def set_field(key, value):
    def edit(rows):
        rows[0][key] = value
    return edit


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import checks
    import layers

    failures = []

    def expect(name: str, ok: bool, detail: str = "") -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
        if not ok:
            failures.append(name)

    # every check passes on real runs, traced, and repeats are identical
    benches = {}
    for wl in WORKLOADS.values():
        bench = run.Bench(tiny(wl), SEED)
        (run_seed,) = bench.run_seeds
        for _ in range(2):
            done = bench.run(traced=True, run_seed=run_seed)
            if done is not None:
                bench.check(done[1])
        expect(f"{wl.name}: checks pass", not bench.errors and bench.failed == 0,
               "; ".join(bench.errors[:3]))
        digests = bench.digests[run_seed]
        expect(f"{wl.name}: repeats give one digest",
               len(digests) == 2 and len(set(digests)) == 1)
        benches[wl.name] = (bench, done[1] if done else None)

    # tampered artifacts are rejected
    bench, probe = benches["proposed-k16"]
    if probe is None:
        print("FAIL proposed-k16 did not run; tampering cases skipped")
        return 1
    tag = f"{bench.scheme.value}_seed{SEED}"
    cases = {
        "slot grant above its slice": (f"slots_{tag}.csv", edit_csv,
                                       set_field("allocated_bw_hz", "1e9")),
        "slot compute above its slice": (f"slots_{tag}.csv", edit_csv,
                                         set_field("allocated_compute_cps", "1e12")),
        "QoE sample above 5": (f"slots_{tag}.csv", edit_csv, set_field("qoe_sample", "5.5")),
        "stored ELA ratio changed": (f"windows_{tag}.csv", edit_csv,
                                     set_field("ela_ratio", "0.999")),
        "window not starting at slot 0": (f"windows_{tag}.csv", edit_csv,
                                          set_field("start_slot", "10")),
        "window off the ladder": (f"windows_{tag}.csv", edit_csv,
                                  set_field("window_minutes", "7")),
        "slice above BS capacity": (f"slices_{tag}.csv", edit_csv,
                                    set_field("reserved_bw_hz", "1e9")),
        "summary outside schema": (f"summary_{bench.scheme.value}.json", edit_json,
                                   lambda s: s["pooled"]["qoe_box"].update(median=7.0)),
    }
    for name, (fname, editor, edit) in cases.items():
        copy = bench.dir / "tampered"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(probe.out_dir, copy)
        editor(copy / fname, edit)
        outcome = checks.check_run(bench.cfg, bench.scheme.value, SEED, str(copy),
                                   probe.scheme_run.elas, probe.result, bench.schema)
        expect(f"rejects {name}", bool(outcome.errors))

    # solver and game results that break their invariants are rejected
    expect("rejects grants over budget",
           bool(layers.check_solver_budgets({0: (0.7, 1.0), 1: (0.4, 0.0)}, 1.0, 1.0)))
    expect("rejects a negative grant",
           bool(layers.check_solver_budgets({0: (-0.1, 0.5)}, 1.0, 1.0)))
    expect("accepts grants within budget",
           not layers.check_solver_budgets({0: (0.5, 0.5), 1: (0.5, 0.5)}, 1.0, 1.0))
    expect("rejects a falling potential", bool(layers.check_potential([1.0, 2.0, 1.5])))
    expect("accepts a rising potential", not layers.check_potential([1.0, 1.0, 2.0]))

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

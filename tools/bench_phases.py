"""Phase times of every scheme at the paper preset, seed 1, as a BENCH file.

    python tools/bench_phases.py --tree 39db55c=/path/to/old/checkout \
        --tree HEAD=. --out BENCH_<rev>.json

Each `--tree LABEL=DIR` names a checkout whose `src/` is timed.  Every
(tree, user count, scheme, repeat) run is one `runner.SchemeRun.execute`
in a fresh Python process on that tree's `src/`: the paper preset (the
empty config) with `num_users` set, seed 1, slot records off, serial.  The
trees take turns run by run, in reverse order on every other repeat, so a
drift of the host spreads over all of them.  A phase is the wall time of
one `SchemeRun` method, timed by wrapping it: bootstrap (`bootstrap`), the
model fit (`fit_models`), policy training (`train_policies`) and
evaluation (`evaluate`); the total is `execute`.  The file keeps, per
tree, user count and scheme, the repeat with the median total, every
repeat's total, and a hash of the evaluation's period samples: trees whose
runs agree give the same hash.  The host block names the machine, the
library versions, and the BLAS build and kernel numpy's OpenBLAS runs on:
a trained run's bits depend on the kernel, which OpenBLAS picks from the
CPU when it loads.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

import numpy
from numpy._core import _multiarray_umath

SCHEMES = ("proposed", "hsla-l2", "pdrl-l1", "wo-da")
USERS = (16, 24)
SEED = 1
REPEATS = 3
PHASES = {"bootstrap": "bootstrap_s", "fit_models": "fit_s",
          "train_policies": "train_s", "evaluate": "eval_s"}


def time_one_run(users: int, scheme: str) -> dict:
    """One run in this process, on the `qoesim` that `sys.path` finds."""
    from qoesim import bench, runner, scenario

    times = {}

    def timed(method, key):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = method(*args, **kwargs)
            times[key] = time.perf_counter() - t0
            return out
        return wrapper

    for name, key in (*PHASES.items(), ("execute", "total_s")):
        setattr(runner.SchemeRun, name, timed(getattr(runner.SchemeRun, name), key))
    cfg = scenario.validate_config(scenario.parse_overrides({"num_users": str(users)}))
    result = runner.SchemeRun(cfg, bench.SchemeId(scheme), SEED,
                              collect_slots=False).execute()
    samples = repr([w.samples for w in result.windows]).encode()
    return {"total_s": times["total_s"],
            **{key: times.get(key, 0.0) for key in PHASES.values()},
            "samples_sha256": hashlib.sha256(samples).hexdigest()}


def host() -> dict:
    """The machine and libraries the times were taken on.  `blas_build` and
    `blas_kernel` come from OpenBLAS's own report, found through numpy's
    extension module (so in whatever library numpy links); "unavailable"
    where no such symbol exists."""
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    out = {"cpus": os.cpu_count(), "machine": platform.machine(),
           "python": platform.python_version(), "numpy": numpy.__version__}
    for key, what in (("blas_build", "config"), ("blas_kernel", "corename")):
        # numpy's wheels bundle OpenBLAS with its symbols renamed
        names = (f"scipy_openblas_get_{what}64_", f"openblas_get_{what}")
        fn = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
        if fn is None:
            out[key] = "unavailable"
        else:
            fn.restype = ctypes.c_char_p
            out[key] = fn().decode().strip()
    return out


def run_in_tree(tree: str, users: int, scheme: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--one", f"{users},{scheme}"],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", default=[], metavar="LABEL=DIR")
    ap.add_argument("--out")
    ap.add_argument("--one", help=argparse.SUPPRESS)  # users,scheme
    args = ap.parse_args(argv)
    if args.one:
        users, scheme = args.one.split(",")
        print(json.dumps(time_one_run(int(users), scheme)))
        return 0
    if not args.tree or not args.out:
        ap.error("--tree and --out are required")
    trees = dict(t.split("=", 1) for t in args.tree)
    runs: dict = {label: {str(k): {s: [] for s in SCHEMES} for k in USERS}
                  for label in trees}
    for rep in range(REPEATS):
        order = list(trees.items())[::-1 if rep % 2 else 1]
        for k in USERS:
            for scheme in SCHEMES:
                for label, tree in order:
                    runs[label][str(k)][scheme].append(run_in_tree(tree, k, scheme))
                    print(f"rep {rep} k={k} {scheme} {label}: "
                          f"{runs[label][str(k)][scheme][-1]['total_s']:.2f} s",
                          file=sys.stderr)
    report = {}
    for label, per_k in runs.items():
        report[label] = {}
        for k, per_scheme in per_k.items():
            report[label][k] = {}
            for scheme, reps in per_scheme.items():
                if len({r["samples_sha256"] for r in reps}) != 1:
                    raise SystemExit(f"{label} k={k} {scheme}: repeats differ")
                median = sorted(reps, key=lambda r: r["total_s"])[len(reps) // 2]
                report[label][k][scheme] = {
                    **{key: round(v, 4) if isinstance(v, float) else v
                       for key, v in median.items()},
                    "totals_s": [round(r["total_s"], 4) for r in reps]}
    doc = {"preset": "paper (empty config)", "seed": SEED,
           "slot_records": False, "repeats": REPEATS,
           "host": host(),
           "trees": report}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for label, per_k in report.items():
        for k, per_scheme in per_k.items():
            print(f"{label} k={k}: " + ", ".join(
                f"{s} {r['total_s']:.2f} s" for s, r in per_scheme.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

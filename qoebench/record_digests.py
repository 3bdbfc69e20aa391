"""Rewrite digests.json: each workload's round digest and mean ELA ratio.

    python3 qoebench/record_digests.py [--seeds 1,2]

Runs one untraced round of every workload per seed (all checks on) and
records the digest `run.py` compares against.  A method fix may change the
artifacts; rerun this and say why in CHANGES.md.
"""
from __future__ import annotations

import argparse
import json
import sys

import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="qoebench/record_digests.py")
    ap.add_argument("--seeds", default="1,2")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    table: dict[str, dict[str, dict]] = {}
    for wl in WORKLOADS.values():
        for seed in (int(s) for s in args.seeds.split(",")):
            bench = run.Bench(wl, seed)
            bench.round(False, lambda r, p: r)
            if bench.errors or bench.failed:
                print(f"{wl.name} seed {seed}: checks failed:", *bench.errors,
                      sep="\n  ", file=sys.stderr)
                return 1
            digest = bench.round_digest()
            ratio = sum(bench.ela_ratios.values()) / len(bench.ela_ratios)
            table.setdefault(wl.name, {})[str(seed)] = {
                "digest": digest, "mean_ela_ratio": ratio}
            print(f"{wl.name} seed {seed}: {digest} mean ELA ratio {ratio:.6f}")
    run.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""simctl: command-line front end for experiments.

    simctl run --scenario cfg --scheme proposed --seeds 1..10 --out results/
    simctl sweep --k 16,18,20,22,24 --schemes proposed,wo-da --out sweep/
    simctl report results/
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import jsonschema

from . import harness, learn, scenario
from .bench import SPECS, SchemeId
from .errors import ParseError, QoesimError, ShapeMismatch, ValidationError

SCHEMES = {s.value: s for s in SchemeId}


def parse_ints(text: str, flag: str, noun: str) -> list[int]:
    """Accepts '1..10' ranges and '1,2,5' lists; exits naming the flag on a
    non-integer, on a text that names no value, such as the reversed range
    '3..1', and on a repeated value."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise SystemExit(f"{flag} expects integers as a..b or a,b,c, got {text!r}") from None
    if not values:
        raise SystemExit(f"{flag} names no {noun}, got {text!r} "
                         "(a range runs low..high)")
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise SystemExit(f"{flag} repeats the {noun} {repeated[0]}, got {text!r}")
    return values


def parse_schemes(text: str, flag: str) -> list[SchemeId]:
    """Comma list of scheme names; exits on an unknown one, listing the
    valid names."""
    schemes = []
    for name in text.split(","):
        if name not in SCHEMES:
            raise SystemExit(f"{flag}: unknown scheme {name!r}; valid schemes: "
                             + ", ".join(SCHEMES))
        schemes.append(SCHEMES[name])
    return schemes


def _load_cfg(args, **extra: str) -> scenario.ScenarioConfig:
    """Scenario file (if any) plus the `--set` overrides, then `extra`;
    exits with the message of an unreadable file or an invalid config."""
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        key = key.strip()
        if key in overrides:
            raise SystemExit(f"--set sets {key} twice, got {overrides[key]!r} "
                             f"and {val.strip()!r}")
        overrides[key] = val.strip()
    overrides.update(extra)
    try:
        if args.scenario:
            return scenario.load_scenario(args.scenario, overrides)
        return scenario.validate_config(scenario.parse_overrides(overrides))
    except OSError as e:
        raise SystemExit(f"--scenario: cannot read {args.scenario!r}: "
                         f"{e.strerror}") from None
    except (ParseError, ValidationError) as e:
        raise SystemExit(f"invalid config: {e}") from None


def cmd_run(args) -> int:
    cfg = _load_cfg(args)
    schemes = parse_schemes(args.scheme, "--scheme")
    seeds = parse_ints(args.seeds, "--seeds", "seed")
    untrained = [s.value for s in schemes if not SPECS[s].learned]
    for flag, path in (("--policy-in", args.policy_in), ("--policy-out", args.policy_out)):
        if path is not None and untrained:
            raise SystemExit(f"{flag}: scheme {untrained[0]} trains no policy")
    if args.policy_out is not None and (len(schemes), len(seeds)) != (1, 1):
        raise SystemExit(f"--policy-out saves one policy, so it takes one scheme and "
                         f"one seed; got --scheme {args.scheme!r} --seeds {args.seeds!r}")
    policy = None
    if args.policy_in is not None:
        try:
            policy = learn.load_network(args.policy_in)
        except (OSError, ValueError, TypeError, QoesimError) as e:
            why = e.strerror if isinstance(e, OSError) else e
            raise SystemExit(f"--policy-in: cannot load {args.policy_in!r}: {why}") from None
        # every scheme is checked before the first run starts
        for scheme in schemes:
            try:
                SPECS[scheme].orchestrator.check_policy(policy, cfg)
            except ShapeMismatch as e:
                raise SystemExit(f"--policy-in: {args.policy_in!r} does not fit "
                                 f"scheme {scheme.value}: {e}") from None
    summaries = []
    for scheme in schemes:
        summary = harness.run_experiment(
            cfg, scheme, seeds, args.out, trace_level=args.trace_level,
            policy=policy, policy_out=args.policy_out)
        summaries.append(summary)
        print(f"{scheme.value}: mean ELA ratio "
              f"{summary['pooled']['mean_ela_ratio']:.4f}, "
              f"median QoE {summary['pooled']['qoe_box']['median']:.3f}")
    if len(summaries) > 1:
        print(harness.comparison_table(summaries))
    return 0


def cmd_sweep(args) -> int:
    ks = parse_ints(args.k, "--k", "user count")
    schemes = parse_schemes(args.schemes, "--schemes")
    seeds = parse_ints(args.seeds, "--seeds", "seed")
    # every user count's config is checked before the first run
    cfgs = {k: _load_cfg(args, num_users=str(k)) for k in ks}
    for k, cfg in cfgs.items():
        for scheme in schemes:
            out = os.path.join(args.out, f"k{k}")
            summary = harness.run_experiment(cfg, scheme, seeds, out,
                                             trace_level=args.trace_level)
            print(f"k={k} {scheme.value}: mean ELA ratio "
                  f"{summary['pooled']['mean_ela_ratio']:.4f}")
    return 0


def cmd_report(args) -> int:
    paths = sorted(glob.glob(os.path.join(args.dir, "summary_*.json")))
    if not paths:
        print(f"no summary_*.json under {args.dir}", file=sys.stderr)
        return 1
    summaries = []
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            try:
                summary = json.load(fh)
            except ValueError as e:  # not JSON, or not UTF-8
                raise SystemExit(f"report: {p!r} is not JSON: {e}") from None
        try:
            harness.validate_summary(summary)
        except jsonschema.ValidationError as e:
            where = "/".join(map(str, e.absolute_path)) or "the top level"
            raise SystemExit(f"report: {p!r} breaks the summary schema at "
                             f"{where}: {e.message}") from None
        summaries.append(summary)
    print(harness.comparison_table(summaries))
    # plot-ready CSV: one row per scheme per CDF point
    out_csv = os.path.join(args.dir, "report_cdf.csv")
    harness._write_rows(out_csv, harness.REPORT_CDF_HEADER, harness.REPORT_CDF_LINE,
                        ((s["scheme"], v, f) for s in summaries
                         for v, f in s["pooled"]["ratio_cdf"]))
    print(f"wrote {out_csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="simctl",
                                 description="QoE-driven slicing simulator")
    sub = ap.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="run one or more schemes over seeds")
    run.add_argument("--scenario", help="scenario config file")
    run.add_argument("--scheme", default="proposed",
                     help="comma list of: " + ",".join(SCHEMES))
    run.add_argument("--seeds", default="1..10", help="e.g. 1..10 or 1,2,5")
    run.add_argument("--out", required=True)
    run.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="dotted-path config override")
    run.add_argument("--trace-level", choices=("full", "aggregate"),
                     default="full")
    run.add_argument("--policy-in", help="load a trained policy checkpoint")
    run.add_argument("--policy-out", help="save the trained policy checkpoint")
    run.set_defaults(fn=cmd_run)

    sweep = sub.add_parser("sweep", help="user-count sweep")
    sweep.add_argument("--scenario")
    sweep.add_argument("--k", default="16,18,20,22,24")
    sweep.add_argument("--schemes", default="proposed,wo-da,pdrl-l1,hsla-l2")
    sweep.add_argument("--seeds", default="1..3")
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--set", action="append", metavar="KEY=VALUE")
    sweep.add_argument("--trace-level", choices=("full", "aggregate"),
                       default="aggregate")
    sweep.set_defaults(fn=cmd_sweep)

    rep = sub.add_parser("report", help="summarize an output directory")
    rep.add_argument("dir")
    rep.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

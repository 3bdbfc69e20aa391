"""Set-up probe: import the package, validate a workload's config and sample
its users, then print the monotonic clock and exit.

    python3 qoebench/probe.py <workload> <seed>

`run.py` starts this in a fresh interpreter and takes the time from just
before the start to the printed clock as one set-up measurement.
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from qoesim import harness, runner, scenario  # noqa: E402,F401  (a run imports these)

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    wl = WORKLOADS[sys.argv[1]]
    cfg = scenario.validate_config(scenario.parse_overrides(wl.overrides))
    users = scenario.sample_users(cfg, np.random.default_rng(int(sys.argv[2])))
    if len(users) != cfg.num_users:
        print(f"sampled {len(users)} users, config has {cfg.num_users}",
              file=sys.stderr)
        return 1
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Golden behaviour lock: per-window ELA ratios and tier counts for fixed
(scheme, seed) runs.

Ratios are counts over 16 users, so they are exact binary fractions and a
change of decisions shows as a changed ratio.  The per-window count of slot
records at each tier index follows every grant, so it also moves when the
orchestration changes while the ratios stay put.  Artifact hashes are not
pinned: numpy's vectorized `exp`/`log` may differ in the last bit between
CPUs, which would move the CSV bytes without changing any decision.
"""
import pytest

from qoesim import harness, runner
from qoesim.bench import SchemeId

from test_runner import fast_cfg

TRAIN_EPOCHS = 20

# (seed, scheme) -> (window ELA ratios, per-window slot records per tier index)
GOLDEN = {
    (1, SchemeId.PROPOSED): ([0.1875], [[669, 1058, 525, 266, 334, 2908]]),
    (1, SchemeId.WITHOUT_DA): ([0.1875], [[133, 254, 287, 345, 416, 4325]]),
    (1, SchemeId.PDRL_L1): ([0.0], [[1435, 715, 769, 497, 350, 1994]]),
    (1, SchemeId.HSLA_L2): ([0.1875], [[1823, 356, 309, 500, 312, 2460]]),
    (2, SchemeId.PROPOSED): ([0.0], [[1003, 552, 749, 769, 711, 1976]]),
    (2, SchemeId.WITHOUT_DA): ([0.0], [[146, 473, 493, 428, 443, 3777]]),
    (2, SchemeId.PDRL_L1): ([0.0], [[1676, 398, 506, 628, 761, 1791]]),
    (2, SchemeId.HSLA_L2): ([0.0], [[1338, 724, 629, 505, 552, 2012]]),
}


def tier_counts(res: runner.RunResult, catalog) -> list[list[int]]:
    """Per window, the number of slot records at each tier index."""
    levels = catalog.quality_levels_bps
    tier_of = {catalog.quality_of(r): i for i, r in enumerate(levels)}
    out = []
    for w in res.windows:
        counts = [0] * len(levels)
        for r in res.slot_records:
            if w.start_slot <= r.t < w.end_slot:
                counts[tier_of[r.quality]] += 1
        out.append(counts)
    return out


@pytest.mark.parametrize("seed,scheme", list(GOLDEN),
                         ids=lambda v: v.value if isinstance(v, SchemeId) else str(v))
def test_window_ela_ratios(seed, scheme):
    sr = runner.SchemeRun(fast_cfg(**{"train.epochs": TRAIN_EPOCHS}), scheme, seed)
    res = sr.execute()
    ratios = [harness.ela_ratio(harness.user_means(w.samples), sr.elas)
              for w in res.windows]
    assert (ratios, tier_counts(res, sr.cfg.catalog)) == GOLDEN[(seed, scheme)]

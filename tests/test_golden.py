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
    (1, SchemeId.PROPOSED): ([0.125], [[3214, 381, 222, 255, 306, 1382]]),
    (1, SchemeId.WITHOUT_DA): ([0.125], [[2718, 92, 162, 204, 189, 2395]]),
    (1, SchemeId.PDRL_L1): ([0.0625], [[3829, 148, 173, 353, 194, 1063]]),
    (1, SchemeId.HSLA_L2): ([0.125], [[3326, 304, 210, 234, 308, 1378]]),
    (2, SchemeId.PROPOSED): ([0.0], [[3992, 371, 210, 328, 212, 647]]),
    (2, SchemeId.WITHOUT_DA): ([0.0], [[2562, 389, 368, 355, 345, 1741]]),
    (2, SchemeId.PDRL_L1): ([0.0], [[3402, 497, 505, 466, 347, 543]]),
    (2, SchemeId.HSLA_L2): ([0.0], [[3807, 499, 220, 302, 229, 703]]),
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
    sr = runner.SchemeRun(fast_cfg(), scheme, seed, train_epochs=TRAIN_EPOCHS)
    res = sr.execute()
    ratios = [harness.ela_ratio(harness.user_means(w.samples), sr.elas)
              for w in res.windows]
    assert (ratios, tier_counts(res, sr.cfg.catalog)) == GOLDEN[(seed, scheme)]

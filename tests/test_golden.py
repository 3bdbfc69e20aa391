"""Golden behaviour lock: per-window ELA ratios for fixed (scheme, seed) runs.

Ratios are counts over 16 users, so they are exact binary fractions and a
change of decisions shows as a changed ratio.  Artifact hashes are not
pinned: numpy's vectorized `exp`/`log` may differ in the last bit between
CPUs, which would move the CSV bytes without changing any decision.
"""
import pytest

from qoesim import harness, runner
from qoesim.bench import SchemeId

from test_runner import fast_cfg

TRAIN_EPOCHS = 20

GOLDEN = {
    (1, SchemeId.PROPOSED): [0.125],
    (1, SchemeId.WITHOUT_DA): [0.125],
    (1, SchemeId.PDRL_L1): [0.0625],
    (1, SchemeId.HSLA_L2): [0.125],
    (2, SchemeId.PROPOSED): [0.0],
    (2, SchemeId.WITHOUT_DA): [0.0],
    (2, SchemeId.PDRL_L1): [0.0],
    (2, SchemeId.HSLA_L2): [0.0],
}


@pytest.mark.parametrize("seed,scheme", list(GOLDEN),
                         ids=lambda v: v.value if isinstance(v, SchemeId) else str(v))
def test_window_ela_ratios(seed, scheme):
    sr = runner.SchemeRun(fast_cfg(), scheme, seed, collect_slots=False,
                          train_epochs=TRAIN_EPOCHS)
    res = sr.execute()
    ratios = [harness.ela_ratio(w.user_mean_qoe, sr.elas) for w in res.windows]
    assert ratios == GOLDEN[(seed, scheme)]

"""Statistical core: MOS generation and QoE model fitting.

A user's experience score is modeled as a QoS base score (one of three
structures) scaled by a context impact factor:

    E = S(R, Q) * I(B, C),   I(B, C) = 1 / (1 + alpha*(B-1) + beta*(C-1))

where R is rebuffer seconds per evaluation period, Q the normalized video
quality, B behavioral dynamics and C environmental complexity (both in
[1, 2]).  Observed MOS samples are truncated-normal draws around that mean.

A fit of one structure to a few dozen samples is a serial loop of about a
hundred trial steps, each bound by numpy's per-call cost, so
`fit_best_structure` takes every user's sample set at once and
`fit_columns` runs every (set, structure) problem of one sample count in
one lock-step loop: one row per problem, each with its own damping,
iteration count and stop state, dropped from the arrays when it stops.
An unconverged fit zigzags (a rejected trial, then an accepted one), so a
pass tries each row's next two dampings at once and keeps the first that
the serial fit would accept.
Each row's arithmetic is the serial fit's: the stacked `np.matmul` makes
the same BLAS call per row (`ddot` for r @ r, `syrk` for J.T @ J, `gemv`
for J.T @ r), and the stacked `np.linalg.solve` calls `dgesv` once per 2x2
system.  The step stays `dgesv`: a closed-form solve differs from it in
the last bits on about a fifth of systems, and matching it needs a fused
multiply-add that Python's `math` lacks.  The loop hoists what the
parameters do not move (the clamped QoS score).

The MOS draw and the likelihood need the standard normal CDF and its
inverse.  They are Cephes's `ndtr` (through `erf` and `erfc`) and `ndtri`
(S. L. Moshier, Methods and Programs for Mathematical Functions, 1989),
ported here as `_ndtr` and `_ndtri` with Cephes's branches, coefficient
tables and Horner order, one rounding per multiply and per add, so that
they are bit-equal to `scipy.special`'s build of the same code (1.17.1).
The port keeps scipy off the run path: importing `scipy.special` took
0.21 s of the package's 0.39 s import (`python -X importtime`) and raised
peak RSS after the import from 38 to 59 MB (medians of ten, 2-vCPU Xeon
VM, warm file cache).  `math.exp` and `math.log` are mapped over the
elements (`mapped`): numpy's vectorized `exp` and `log` differ from the C
library's in the last bit on some inputs (numpy 2.4 with AVX-512: `exp`
on 15,985 of 350,000 points of [-729, -1], `log` on 83 of 350,000 of
(0, exp(-2)]).
`np.sqrt` is correctly rounded and stays.  A branch that no element takes
is skipped; still, mapping 16 MOS draws costs about 0.17 ms (scipy:
0.02 ms), so `netsim.advance_slots` maps all of a call's draws at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InsufficientData, UnknownStructure

MOS_LO = 1.0
MOS_HI = 5.0

REBUFFER_SLOPE = 0.4
QUALITY_SLOPE = 4.0

# Generator variance per structure: rebuffer-based, quality-based, combined.
STRUCTURE_VARIANCE = {1: 8.0, 2: 1.0, 3: 0.8}
STRUCTURES = (1, 2, 3)


@dataclass(frozen=True)
class QoEModel:
    """Fitted per-user experience model: structure + impact parameters."""

    structure_index: int
    impact_params: tuple[float, float]  # (alpha, beta), both >= 0
    fit_rmse: float
    sample_count: int
    converged: bool = True


@dataclass(frozen=True)
class FactorSample:
    """One observed (MOS, QoS, context) tuple used for model fitting."""

    qoe: float
    r: float  # rebuffer seconds in the evaluation period
    q: float  # normalized quality in [0, 1]
    b: float  # behavioral dynamics in [1, 2]
    c: float  # environmental complexity in [1, 2]


def qos_score(structure_index: int, r, q):
    """QoS base score S for one structure, clamped to the MOS scale; `r` and
    `q` are scalars or sample columns."""
    if structure_index == 1:
        s = 5.0 - REBUFFER_SLOPE * r
    elif structure_index == 2:
        s = 1.0 + QUALITY_SLOPE * q
    elif structure_index == 3:
        s = 1.0 + QUALITY_SLOPE * q - REBUFFER_SLOPE * r
    else:
        raise UnknownStructure(f"structure_index={structure_index}")
    return np.minimum(np.maximum(s, MOS_LO), MOS_HI)


def impact(b, c, alpha: float, beta: float):
    """Context impact factor I(B, C), equal to 1 at the neutral context; `b`
    and `c` are scalars or sample columns."""
    return 1.0 / (1.0 + alpha * (b - 1.0) + beta * (c - 1.0))


def eval_qoe(model: QoEModel, r, q, b, c):
    """Predicted QoE under a fitted model, clamped to the MOS scale; the
    factors are scalars or sample columns."""
    alpha, beta = model.impact_params
    e = qos_score(model.structure_index, r, q) * impact(b, c, alpha, beta)
    return np.minimum(np.maximum(e, MOS_LO), MOS_HI)


def mapped(fn: Callable, *cols: np.ndarray) -> np.ndarray:
    """A scalar function of floats applied to each element of equal-length
    columns."""
    return np.fromiter(map(fn, *(c.tolist() for c in cols)), float, len(cols[0]))


# Cephes's constants and coefficient tables (ndtr.c, ndtri.c), highest
# power first
_SQRT1_2 = 7.07106781186547524401E-1
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_MAXLOG = 7.09782712893383996843E2  # log(DBL_MAX)
_EXP_M2 = 1.3533528323661269189E-1  # exp(-2)
# erf for |x| <= 1
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
# erfc for 1 <= x < 8
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
# erfc for x >= 8
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
# ndtri for exp(-2) < y < 1 - exp(-2)
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
# ndtri tails, z = sqrt(-2 log y) from 2 to 8
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# ndtri tails, z from 8 to 64
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x, coef):
    """Cephes `polevl`: Horner's rule, highest power first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """Cephes `p1evl`: `_polevl` with a leading coefficient of 1 left out."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _put(out: np.ndarray, where: np.ndarray, fn: Callable, x: np.ndarray) -> None:
    """out[where] = fn(x[where]); a branch that no element takes is not run."""
    if where.any():
        out[where] = fn(x[where])


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes `erf` for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(a: np.ndarray) -> np.ndarray:
    """Cephes `erfc` for a >= 0."""
    y = np.zeros_like(a)  # 0 where exp(-a * a) falls below exp(-MAXLOG)
    _put(y, a < 1.0, lambda x: 1.0 - _erf(x), a)
    m = np.minimum(a, 27.0)  # 27 * 27 > MAXLOG; the clip keeps a * a finite
    live = (a >= 1.0) & (m * m <= _MAXLOG)
    _put(y, live & (a < 8.0),
         lambda x: mapped(math.exp, -x * x) * _polevl(x, _ERFC_P) / _p1evl(x, _ERFC_Q), a)
    _put(y, live & (a >= 8.0),
         lambda x: mapped(math.exp, -x * x) * _polevl(x, _ERFC_R) / _p1evl(x, _ERFC_S), a)
    return y


def _ndtr_tail(x: np.ndarray) -> np.ndarray:
    """Cephes `ndtr` for |x| >= 1/sqrt(2), x = a / sqrt(2)."""
    y = 0.5 * _erfc(np.abs(x))
    return np.where(x > 0.0, 1.0 - y, y)


def _ndtr(a) -> np.ndarray:
    """Cephes `ndtr`, the standard normal CDF, bit-equal to
    `scipy.special.ndtr`."""
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    y = np.full_like(x, np.nan)  # NaN takes neither branch
    _put(y, z < _SQRT1_2, lambda v: 0.5 + 0.5 * _erf(v), x)
    _put(y, z >= _SQRT1_2, _ndtr_tail, x)
    return y


def _ndtri_central(y: np.ndarray) -> np.ndarray:
    """Cephes `ndtri` for exp(-2) < y < 1 - exp(-2)."""
    y = y - 0.5
    y2 = y * y
    return (y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))) * _S2PI


def _ndtri_tail(y: np.ndarray) -> np.ndarray:
    """Cephes `ndtri` for 0 < y <= exp(-2), before its sign flip."""
    x = np.sqrt(-2.0 * mapped(math.log, y))
    z = 1.0 / x
    x1 = np.empty_like(x)
    near = x < 8.0  # y > exp(-32)
    _put(x1, near, lambda v: v * _polevl(v, _NDTRI_P1) / _p1evl(v, _NDTRI_Q1), z)
    _put(x1, ~near, lambda v: v * _polevl(v, _NDTRI_P2) / _p1evl(v, _NDTRI_Q2), z)
    return x - mapped(math.log, x) / x - x1


def _ndtri(y0) -> np.ndarray:
    """Cephes `ndtri`, the inverse of `_ndtr`, bit-equal to
    `scipy.special.ndtri`."""
    y0 = np.asarray(y0, dtype=float)
    x = np.full_like(y0, np.nan)  # outside [0, 1]
    x[y0 == 0.0] = -np.inf
    x[y0 == 1.0] = np.inf
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)  # the upper tail's mirror
    mid = y > _EXP_M2
    _put(x, mid, _ndtri_central, y)
    tail = ~(mid | (y <= 0.0))  # NaN takes the tail, as in Cephes
    if tail.any():
        t = _ndtri_tail(y[tail])
        x[tail] = np.where(upper[tail], t, -t)
    return x


def truncated_normal_from_uniform(mu, sigma, u):
    """Inverse-CDF map of uniform draws to normal samples truncated to the MOS scale.

    Vectorized over mu/sigma/u.  One uniform per draw keeps the consumed
    stream length independent of the distribution parameters.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    u = np.asarray(u, dtype=float)
    safe_sigma = np.where(sigma > 0.0, sigma, 1.0)
    a, b = _ndtr(np.stack([(MOS_LO - mu) / safe_sigma, (MOS_HI - mu) / safe_sigma]))
    # Guard the fully-saturated tails where b - a underflows.
    span = np.maximum(b - a, 1e-300)
    x = mu + safe_sigma * _ndtri(np.clip(a + u * span, 1e-300, 1.0 - 1e-16))
    return np.clip(np.where(sigma > 0.0, x, mu), MOS_LO, MOS_HI)


class SampleColumns(NamedTuple):
    """Per-sample columns of equal-size sample sets, one row per set, built
    once and shared by the three structure fits and their likelihoods."""
    qoe: np.ndarray
    r: np.ndarray
    q: np.ndarray
    b: np.ndarray
    c: np.ndarray
    b1: np.ndarray  # b - 1
    c1: np.ndarray  # c - 1
    bc1: np.ndarray  # (sets, n, 2) columns b - 1, c - 1


def sample_columns(sets: list[list[FactorSample]]) -> SampleColumns:
    """Column view of equal-size sample sets, one row per set."""
    b = np.array([[s.b for s in samples] for samples in sets])
    c = np.array([[s.c for s in samples] for samples in sets])
    b1, c1 = b - 1.0, c - 1.0
    return SampleColumns(np.array([[s.qoe for s in samples] for samples in sets]),
                         np.array([[s.r for s in samples] for samples in sets]),
                         np.array([[s.q for s in samples] for samples in sets]),
                         b, c, b1, c1, np.stack([b1, c1], axis=-1))


def _unfittable(cols: SampleColumns) -> list[str | None]:
    """Per row, why its impact parameters cannot be fitted, or None."""
    sets, n = cols.qoe.shape
    if n < 2:
        return [f"need >= 2 samples, got {n}"] * sets
    flat = (np.ptp(cols.b, axis=1) == 0.0) & (np.ptp(cols.c, axis=1) == 0.0)
    return ["impact parameters unidentifiable: (B, C) constant" if f else None
            for f in flat.tolist()]


def _qos_rows(structures: list[int], r: np.ndarray, q: np.ndarray) -> np.ndarray:
    """`qos_score` of each row of (r, q) under that row's structure."""
    s = np.empty_like(r)
    for idx in sorted(set(structures)):
        rows = [k for k, st in enumerate(structures) if st == idx]
        s[rows] = qos_score(idx, r[rows], q[rows])
    return s


def _row_dots(x: np.ndarray) -> np.ndarray:
    """`v @ v` for each row v of x (over its last axis), one BLAS dot per row."""
    return np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0]


def fit_columns(structures: list[int], cols: SampleColumns,
                max_iter: int) -> list[QoEModel]:
    """Levenberg-Marquardt fit of (alpha, beta) with projection onto >= 0,
    of structure `structures[k]` on row k of the columns, for all rows in
    one lock-step loop.

    Each row is its own problem: it keeps its own damping, iteration count
    and stop state, and leaves the arrays when it stops.  A pass of the
    loop gives each row its next trial step and, in case that is rejected,
    the one after it; the row's arithmetic and stop order are those of a
    fit of the row alone.  Deterministic given the samples (fixed start at
    (0.5, 0.5)).  The accepted-step objective is non-increasing by
    construction; convergence failure is reported via the model's
    `converged` flag rather than an exception.
    """
    for why in _unfittable(cols):
        if why is not None:
            raise InsufficientData(why)
    count = len(structures)
    n = cols.qoe.shape[1]
    out: list[QoEModel | None] = [None] * count
    row = np.arange(count)
    qoe, b1, c1, bc1 = cols.qoe, cols.b1, cols.c1, cols.bc1
    # S does not depend on (alpha, beta): only I and the prediction move
    s = _qos_rows(structures, cols.r, cols.q)
    params = np.full((count, 2), 0.5)
    i = 1.0 / (1.0 + params[:, :1] * b1 + params[:, 1:] * c1)
    pred = np.minimum(np.maximum(s * i, MOS_LO), MOS_HI)
    resid = qoe - pred
    sse = _row_dots(resid)
    lam = np.full(count, 1e-3)
    iters = np.zeros(count, dtype=int)  # iterations begun
    trials = np.zeros(count, dtype=int)  # rejected steps in this iteration
    fresh = np.ones(count, dtype=bool)  # at the start of an iteration
    g = np.empty((count, 2))
    h = np.empty((count, 2, 2))
    eye = np.eye(2)
    while len(row):
        capped = done = np.zeros(len(row), dtype=bool)
        if fresh.any():
            # Jacobian of predictions; rows clamped at the MOS bounds get zero rows.
            live = (pred > MOS_LO) & (pred < MOS_HI)
            jac = np.where(live[:, :, None], (-s * i * i)[:, :, None] * bc1, 0.0)
            jac_t = jac.transpose(0, 2, 1)
            g_new = np.matmul(jac_t, resid[:, :, None])[:, :, 0]
            h_new = np.matmul(jac_t, jac)
            if fresh.all():
                g, h = g_new, h_new
            else:
                g = np.where(fresh[:, None], g_new, g)
                h = np.where(fresh[:, None, None], h_new, h)
            # max_iter accepted steps stop a fit unconverged before its gradient test
            capped = fresh & (iters == max_iter)
            g_abs = np.abs(g)
            done = capped | (fresh & (np.maximum(g_abs[:, 0], g_abs[:, 1]) < 1e-12))
            iters += fresh
            trials[fresh] = 0
        # two trials a pass, at damping lam and 3 lam: the second is the
        # trial that follows a rejected first (the usual LM zigzag), and is
        # discarded when the first is accepted
        lam3 = lam * 3.0
        step = np.linalg.solve(
            h[:, None] + np.stack([lam, lam3], axis=1)[:, :, None, None] * eye,
            g[:, None, :, None])[..., 0]
        cand = np.maximum(params[:, None] + step, 0.0)
        i_c = 1.0 / (1.0 + cand[..., :1] * b1[:, None] + cand[..., 1:] * c1[:, None])
        pred_c = np.minimum(np.maximum(s[:, None] * i_c, MOS_LO), MOS_HI)
        resid_c = qoe[:, None] - pred_c
        sse_c = _row_dots(resid_c)
        # accepted steps never increase the objective
        ok = (sse_c <= sse[:, None]) & ~done[:, None]
        first = ok[:, 0]
        fresh = first | ok[:, 1]
        kept = (np.arange(len(first)), (~first).astype(np.intp))  # each row's trial
        cand, i_c, pred_c, resid_c, sse_c = (
            a[kept] for a in (cand, i_c, pred_c, resid_c, sse_c))
        moved = np.abs(cand - params)
        small = ((sse - sse_c < 1e-14 * (sse + 1e-30))
                 | (np.maximum(moved[:, 0], moved[:, 1]) < 1e-12))
        params = np.where(fresh[:, None], cand, params)
        i = np.where(fresh[:, None], i_c, i)
        pred = np.where(fresh[:, None], pred_c, pred)
        resid = np.where(fresh[:, None], resid_c, resid)
        sse = np.where(fresh, sse_c, sse)
        lam = np.where(fresh, np.maximum(np.where(first, lam, lam3) / 3.0, 1e-12),
                       lam3 * 3.0)
        trials += ~first
        trials += ~fresh
        # a small step converges; so does an iteration in which no damping
        # level improves (a projected stationary point): 30 rejected trials,
        # an even count, so that no pass runs past them
        ended = done | (fresh & small) | (trials == 30)
        if ended.any():
            for k in np.flatnonzero(ended).tolist():
                out[row[k]] = QoEModel(structures[row[k]], tuple(params[k].tolist()),
                                       math.sqrt(float(sse[k]) / n), n, not capped[k])
            keep = ~ended
            (row, qoe, b1, c1, bc1, s, params, i, pred, resid, sse, lam, iters,
             trials, fresh, g, h) = (a[keep] for a in (
                 row, qoe, b1, c1, bc1, s, params, i, pred, resid, sse, lam,
                 iters, trials, fresh, g, h))
    return out


def model_rmse(model: QoEModel, samples: list[FactorSample]) -> float:
    """RMSE of a fitted model's predictions on a sample set.  The squares are
    summed in order, as Python's `sum` does: a pairwise sum moves the last
    bits, which can flip a refit decision."""
    cols = sample_columns([samples])
    err = (cols.qoe - eval_qoe(model, cols.r, cols.q, cols.b, cols.c))[0]
    return math.sqrt(sum((err * err).tolist()) / len(err))


def should_update(old: QoEModel, recent: list[FactorSample],
                  rmse_tolerance: float) -> bool:
    """True when the old model has drifted: recent RMSE exceeds the fit RMSE
    by more than the tolerance factor."""
    return model_rmse(old, recent) > rmse_tolerance * (old.fit_rmse + 1e-9)


def columns_log_likelihood(models: list[QoEModel], cols: SampleColumns) -> list[float]:
    """Truncated-normal log-likelihood of row k of the samples under
    `models[k]`, for every row.

    Uses the structure's known generator variance, so a hypothesis whose
    residuals are far smaller or larger than that variance scores poorly.
    """
    structures = [m.structure_index for m in models]
    var = np.array([[STRUCTURE_VARIANCE[idx]] for idx in structures])
    norm = np.array([[-0.5 * math.log(2.0 * math.pi * STRUCTURE_VARIANCE[idx])]
                     for idx in structures])
    alpha = np.array([[m.impact_params[0]] for m in models])
    beta = np.array([[m.impact_params[1]] for m in models])
    mean = _qos_rows(structures, cols.r, cols.q) * impact(cols.b, cols.c, alpha, beta)
    sigma = np.sqrt(var)
    hi, lo = _ndtr(np.stack([(MOS_HI - mean) / sigma, (MOS_LO - mean) / sigma]))
    z = np.maximum(hi - lo, 1e-300)
    ll = (norm
          - (cols.qoe - mean) ** 2 / (2.0 * var)
          - np.log(z))
    return ll.sum(axis=1).tolist()


def fit_best_structure(sets: list[list[FactorSample]],
                       max_iter: int = 200) -> list[QoEModel | None]:
    """Construct a model from each set of raw feedback: fit each structure,
    keep the hypothesis with the highest truncated-normal log-likelihood
    under its own generator variance; None where no structure can be
    fitted.  The models use all four factors (R, Q, B, C).  Every (set,
    structure) problem of one sample count runs in one `fit_columns` call.
    """
    best: list[QoEModel | None] = [None] * len(sets)
    best_ll = [-np.inf] * len(sets)
    by_count: dict[int, list[int]] = {}
    for j, samples in enumerate(sets):
        by_count.setdefault(len(samples), []).append(j)
    for members in by_count.values():
        cols = sample_columns([sets[j] for j in members])
        rows = [k for k, why in enumerate(_unfittable(cols)) if why is None]
        if not rows:
            continue
        take = rows * len(STRUCTURES)  # structure-major, as the serial pick
        cols = SampleColumns(*(a[take] for a in cols))
        models = fit_columns([idx for idx in STRUCTURES for _ in rows], cols, max_iter)
        for k, m, ll in zip(take, models, columns_log_likelihood(models, cols)):
            j = members[k]
            if ll > best_ll[j]:
                best[j], best_ll[j] = m, ll
    return best

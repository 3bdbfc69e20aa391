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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr, ndtri

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


def truncated_normal_from_uniform(mu, sigma, u):
    """Inverse-CDF map of uniform draws to normal samples truncated to the MOS scale.

    Vectorized over mu/sigma/u.  One uniform per draw keeps the consumed
    stream length independent of the distribution parameters.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    u = np.asarray(u, dtype=float)
    safe_sigma = np.where(sigma > 0.0, sigma, 1.0)
    a = ndtr((MOS_LO - mu) / safe_sigma)
    b = ndtr((MOS_HI - mu) / safe_sigma)
    # Guard the fully-saturated tails where b - a underflows.
    span = np.maximum(b - a, 1e-300)
    x = mu + safe_sigma * ndtri(np.clip(a + u * span, 1e-300, 1.0 - 1e-16))
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
    z = np.maximum(ndtr((MOS_HI - mean) / sigma) - ndtr((MOS_LO - mean) / sigma),
                   1e-300)
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

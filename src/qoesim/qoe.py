"""Statistical core: MOS generation and QoE model fitting.

A user's experience score is modeled as a QoS base score (one of three
structures) scaled by a context impact factor:

    E = S(R, Q) * I(B, C),   I(B, C) = 1 / (1 + alpha*(B-1) + beta*(C-1))

where R is rebuffer seconds per evaluation period, Q the normalized video
quality, B behavioral dynamics and C environmental complexity (both in
[1, 2]).  Observed MOS samples are truncated-normal draws around that mean.

The fit's loop is bound by numpy's per-call cost on a few dozen samples, so
`fit_best_structure` builds the sample columns once for all three
structures and the loop hoists what the parameters do not move (the
clamped QoS score).  The damped 2x2 step stays `np.linalg.solve`: a
closed-form solve differs from LAPACK's `dgesv` in the last bits on about
a fifth of systems, and matching it needs a fused multiply-add that
Python's `math` lacks.
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
    """Per-sample columns of a sample set, built once and shared by the
    three structure fits and their likelihoods."""
    qoe: np.ndarray
    r: np.ndarray
    q: np.ndarray
    b: np.ndarray
    c: np.ndarray
    b1: np.ndarray  # b - 1
    c1: np.ndarray  # c - 1
    bc1: np.ndarray  # (n, 2) columns b - 1, c - 1


def sample_columns(samples: list[FactorSample]) -> SampleColumns:
    """Column view of a sample set."""
    b = np.array([s.b for s in samples])
    c = np.array([s.c for s in samples])
    b1, c1 = b - 1.0, c - 1.0
    return SampleColumns(np.array([s.qoe for s in samples]),
                         np.array([s.r for s in samples]),
                         np.array([s.q for s in samples]), b, c, b1, c1,
                         np.column_stack([b1, c1]))


def fit_columns(structure_index: int, cols: SampleColumns,
                max_iter: int = 200) -> QoEModel:
    """Levenberg-Marquardt fit of (alpha, beta) with projection onto >= 0.

    Deterministic given the samples (fixed start at (0.5, 0.5)).  The
    accepted-step objective is non-increasing by construction; convergence
    failure is reported via the model's `converged` flag rather than an
    exception.
    """
    if len(cols.qoe) < 2:
        raise InsufficientData(f"need >= 2 samples, got {len(cols.qoe)}")
    if np.ptp(cols.b) == 0.0 and np.ptp(cols.c) == 0.0:
        raise InsufficientData("impact parameters unidentifiable: (B, C) constant")
    qoe, b1, c1, bc1 = cols.qoe, cols.b1, cols.c1, cols.bc1
    # S does not depend on (alpha, beta): only I and the prediction move
    s = qos_score(structure_index, cols.r, cols.q)
    eye = np.eye(2)
    params = np.array((0.5, 0.5))
    i = 1.0 / (1.0 + params[0] * b1 + params[1] * c1)
    pred = np.minimum(np.maximum(s * i, MOS_LO), MOS_HI)
    resid = qoe - pred
    sse = float(resid @ resid)
    lam = 1e-3
    converged = False
    for _ in range(max_iter):
        # Jacobian of predictions; rows clamped at the MOS bounds get zero rows.
        live = (pred > MOS_LO) & (pred < MOS_HI)
        jac = np.where(live[:, None], (-s * i * i)[:, None] * bc1, 0.0)
        g = jac.T @ resid
        h = jac.T @ jac
        g0, g1 = g.tolist()
        if abs(g0) < 1e-12 and abs(g1) < 1e-12:
            converged = True
            break
        accepted = False
        for _ in range(30):
            step = np.linalg.solve(h + lam * eye, g)
            cand = np.maximum(params + step, 0.0)
            i_c = 1.0 / (1.0 + cand[0] * b1 + cand[1] * c1)
            pred_c = np.minimum(np.maximum(s * i_c, MOS_LO), MOS_HI)
            resid_c = qoe - pred_c
            sse_c = float(resid_c @ resid_c)
            if sse_c <= sse:  # accepted steps never increase the objective
                small = (sse - sse_c < 1e-14 * (sse + 1e-30)
                         or float(np.abs(cand - params).max()) < 1e-12)
                params, pred, i, resid, sse = cand, pred_c, i_c, resid_c, sse_c
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                if small:
                    converged = True
                break
            lam *= 3.0
        if not accepted:
            # No damping level improves: projected stationary point.
            converged = True
        if converged:
            break
    n = len(qoe)
    rmse = math.sqrt(sse / n)
    return QoEModel(structure_index, (float(params[0]), float(params[1])),
                    rmse, n, converged)


def model_rmse(model: QoEModel, samples: list[FactorSample]) -> float:
    """RMSE of a fitted model's predictions on a sample set.  The squares are
    summed in order, as Python's `sum` does: a pairwise sum moves the last
    bits, which can flip a refit decision."""
    cols = sample_columns(samples)
    err = cols.qoe - eval_qoe(model, cols.r, cols.q, cols.b, cols.c)
    return math.sqrt(sum((err * err).tolist()) / len(err))


def should_update(old: QoEModel, recent: list[FactorSample],
                  rmse_tolerance: float) -> bool:
    """True when the old model has drifted: recent RMSE exceeds the fit RMSE
    by more than the tolerance factor."""
    return model_rmse(old, recent) > rmse_tolerance * (old.fit_rmse + 1e-9)


def columns_log_likelihood(model: QoEModel, cols: SampleColumns) -> float:
    """Truncated-normal log-likelihood of samples under a fitted model.

    Uses the structure's known generator variance, so a hypothesis whose
    residuals are far smaller or larger than that variance scores poorly.
    """
    var = STRUCTURE_VARIANCE[model.structure_index]
    sigma = math.sqrt(var)
    mean = (qos_score(model.structure_index, cols.r, cols.q)
            * impact(cols.b, cols.c, *model.impact_params))
    z = np.maximum(ndtr((MOS_HI - mean) / sigma) - ndtr((MOS_LO - mean) / sigma),
                   1e-300)
    ll = (-0.5 * math.log(2.0 * math.pi * var)
          - (cols.qoe - mean) ** 2 / (2.0 * var)
          - np.log(z))
    return float(ll.sum())


def fit_best_structure(samples: list[FactorSample]) -> QoEModel:
    """Construct a model from raw feedback: fit each structure, keep the
    hypothesis with the highest truncated-normal log-likelihood under its
    own generator variance.  The model uses all four factors (R, Q, B, C).
    """
    cols = sample_columns(samples)
    best, best_ll = None, -np.inf
    for idx in STRUCTURES:
        try:
            m = fit_columns(idx, cols)
        except InsufficientData:
            continue
        ll = columns_log_likelihood(m, cols)
        if ll > best_ll:
            best, best_ll = m, ll
    if best is None:
        raise InsufficientData("no structure could be fitted")
    return best

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

from qoesim import qoe
from qoesim.errors import InsufficientData, UnknownStructure


def fit_on(structure, samples, max_iter=200):
    """One structure's fit on one sample set: a one-row lock-step call."""
    return qoe.fit_columns([structure], qoe.sample_columns([samples]), max_iter)[0]


def log_likelihood(model, samples):
    return qoe.columns_log_likelihood([model], qoe.sample_columns([samples]))[0]


def draw(mean, var, rng):
    """One truncated-normal MOS draw of the given mean and variance."""
    return float(qoe.truncated_normal_from_uniform(mean, math.sqrt(var), rng.random()))


def make_samples(structure, alpha, beta, n, rng, noise_var=0.0, r_max=8.0):
    """Synthetic factor samples from a known ground-truth model."""
    true = qoe.QoEModel(structure, (alpha, beta), 0.0, 0)
    out = []
    for _ in range(n):
        r = rng.uniform(0, r_max)
        q = rng.random()
        b = rng.uniform(1, 2)
        c = rng.uniform(1, 2)
        if noise_var > 0:
            mean = qoe.qos_score(structure, r, q) * qoe.impact(b, c, alpha, beta)
            val = draw(mean, noise_var, rng)
        else:
            val = qoe.eval_qoe(true, r, q, b, c)
        out.append(qoe.FactorSample(val, r, q, b, c))
    return out


class TestQosScore:
    def test_structure1_no_rebuffer(self):
        assert qoe.qos_score(1, 0.0, 0.3) == 5.0

    def test_structure2_midpoint(self):
        assert qoe.qos_score(2, 0.0, 0.5) == 3.0

    def test_structure3_boundary_clamp(self):
        # 1 + 4 - 4 = 1 sits exactly on the lower bound
        assert qoe.qos_score(3, 10.0, 1.0) == 1.0

    def test_clamps_below(self):
        assert qoe.qos_score(1, 20.0, 0.0) == 1.0

    def test_unknown_structure(self):
        with pytest.raises(UnknownStructure):
            qoe.qos_score(4, 0.0, 0.0)


class TestTruncatedNormal:
    def test_degenerate_variance(self):
        rng = np.random.default_rng(0)
        assert draw(3.0, 0.0, rng) == 3.0
        assert draw(9.0, 0.0, rng) == 5.0

    def test_truncation_forces_deficit(self):
        rng = np.random.default_rng(1)
        draws = [draw(5.0, 8.0, rng) for _ in range(2000)]
        assert max(draws) <= 5.0
        assert np.mean(draws) < 5.0

    def test_bounds_always_hold(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            mu = rng.uniform(-5, 11)
            var = rng.uniform(0, 10)
            x = draw(mu, var, rng)
            assert 1.0 <= x <= 5.0

    def test_mean_matches_quadrature(self):
        # Independent oracle: numeric integration of the truncated density.
        mu, sigma = 3.0, 1.0
        norm = quad(lambda x: math.exp(-0.5 * ((x - mu) / sigma) ** 2), 1, 5)[0]
        mean = quad(lambda x: x * math.exp(-0.5 * ((x - mu) / sigma) ** 2), 1, 5)[0] / norm
        rng = np.random.default_rng(3)
        u = rng.random(100_000)
        draws = qoe.truncated_normal_from_uniform(mu, sigma, u)
        assert abs(draws.mean() - mean) < 0.01


class TestMosSample:
    def test_neutral_context_mean(self):
        # B = C = 1 makes the generator mean equal the QoS score exactly.
        rng = np.random.default_rng(4)
        u_mid = 0.5
        for s in (1, 2, 3):
            mean = qoe.qos_score(s, 1.0, 0.5) * qoe.impact(1, 1, 0.7, 0.7)
            assert mean == qoe.qos_score(s, 1.0, 0.5)
        mean = qoe.qos_score(2, 0.0, 0.5) * qoe.impact(1.0, 1.0, 0.9, 0.9)
        x = draw(mean, qoe.STRUCTURE_VARIANCE[2], rng)
        assert 1.0 <= x <= 5.0

    def test_structure3_variance(self):
        assert qoe.STRUCTURE_VARIANCE[3] == 0.8

    def test_halved_mean_closed_form(self):
        # structure 2, Q=1, alpha=1, beta=0, B=2, C=1: mean = 5 * 1/2
        mean = qoe.qos_score(2, 0.0, 1.0) * qoe.impact(2.0, 1.0, 1.0, 0.0)
        assert mean == pytest.approx(2.5)


class TestEvalQoe:
    def test_neutral_context_equals_qos(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = qoe.QoEModel(int(rng.integers(1, 4)),
                             (rng.uniform(0, 2), rng.uniform(0, 2)), 0.0, 0)
            r, q = rng.uniform(0, 10), rng.random()
            assert qoe.eval_qoe(m, r, q, 1.0, 1.0) == qoe.qos_score(m.structure_index, r, q)

    def test_zero_params_context_insensitive(self):
        m = qoe.QoEModel(2, (0.0, 0.0), 0.0, 0)
        for b, c in [(1, 1), (1.5, 2), (2, 2)]:
            assert qoe.eval_qoe(m, 0, 0.5, b, c) == qoe.qos_score(2, 0, 0.5)

    def test_half_at_full_context(self):
        m = qoe.QoEModel(2, (0.5, 0.5), 0.0, 0)
        assert qoe.eval_qoe(m, 0, 1.0, 2.0, 2.0) == pytest.approx(2.5)

    def test_monotone_degradation(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            m = qoe.QoEModel(int(rng.integers(1, 4)),
                             (rng.uniform(0, 1.5), rng.uniform(0, 1.5)), 0.0, 0)
            r, q = rng.uniform(0, 5), rng.random()
            grid = np.linspace(1, 2, 7)
            vals_b = [qoe.eval_qoe(m, r, q, b, 1.3) for b in grid]
            vals_c = [qoe.eval_qoe(m, r, q, 1.3, c) for c in grid]
            assert all(x >= y - 1e-12 for x, y in zip(vals_b, vals_b[1:]))
            assert all(x >= y - 1e-12 for x, y in zip(vals_c, vals_c[1:]))


class TestFitModel:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a, b = rng.uniform(0.2, 1.0, 2)
            struct = int(rng.integers(1, 4))
            samples = make_samples(struct, a, b, 200, rng)
            fit = fit_on(struct, samples)
            assert abs(fit.impact_params[0] - a) < 1e-4
            assert abs(fit.impact_params[1] - b) < 1e-4
            assert fit.fit_rmse < 1e-6

    def test_grid_search_oracle_agreement(self):
        # Brute-force 0.01-step grid over the parameter box as the oracle.
        rng = np.random.default_rng(13)
        grid = np.arange(0.0, 1.5001, 0.01)
        for _ in range(10):
            a, b = rng.uniform(0.2, 1.0, 2)
            samples = make_samples(2, a, b, 60, rng, noise_var=1.0)
            fit = fit_on(2, samples)
            arr_q = np.array([s.qoe for s in samples])
            arr_r = np.array([s.r for s in samples])
            arr_qu = np.array([s.q for s in samples])
            arr_b = np.array([s.b for s in samples])
            arr_c = np.array([s.c for s in samples])
            s_vec = np.clip(1 + 4 * arr_qu, 1, 5)
            best = np.inf
            for ga in grid:
                i = 1.0 / (1.0 + ga * (arr_b - 1) + grid[None, :].T * (arr_c - 1))
                pred = np.clip(s_vec * i, 1, 5)
                sse = ((arr_q - pred) ** 2).sum(axis=1)
                best = min(best, sse.min())
            pa, pb = fit.impact_params
            i = 1.0 / (1.0 + pa * (arr_b - 1) + pb * (arr_c - 1))
            fit_sse = float(((arr_q - np.clip(s_vec * i, 1, 5)) ** 2).sum())
            assert fit_sse <= best + 1e-3

    def test_noisy_rmse_tracks_generator_std(self):
        rng = np.random.default_rng(14)
        var = qoe.STRUCTURE_VARIANCE[2]
        samples = make_samples(2, 0.5, 0.3, 500, rng, noise_var=var, r_max=0.0)
        fit = fit_on(2, samples)
        # Truncation shrinks the observed std below sqrt(var); compare against
        # the empirical deviation of samples from their generator means.
        dev = []
        for s in samples:
            mean = qoe.qos_score(2, s.r, s.q) * qoe.impact(s.b, s.c, 0.5, 0.3)
            dev.append(s.qoe - min(max(mean, 1.0), 5.0))
        emp_std = float(np.sqrt(np.mean(np.square(dev))))
        assert abs(fit.fit_rmse - emp_std) / emp_std < 0.15

    def test_neutral_context_unidentifiable(self):
        rng = np.random.default_rng(15)
        samples = [qoe.FactorSample(3.0 + rng.random(), 1.0, 0.5, 1.0, 1.0)
                   for _ in range(50)]
        with pytest.raises(InsufficientData):
            fit_on(3, samples)

    def test_too_few(self):
        with pytest.raises(InsufficientData):
            fit_on(1, [qoe.FactorSample(3, 0, 0.5, 1.5, 1.5)])

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        samples = make_samples(3, 0.4, 0.8, 100, rng, noise_var=0.8)
        f1 = fit_on(3, samples)
        f2 = fit_on(3, samples)
        assert f1 == f2


class TestShouldUpdate:
    def _fit_and_recent(self, alpha_fit, alpha_recent, seed):
        rng = np.random.default_rng(seed)
        fit_samples = make_samples(2, alpha_fit, 0.3, 300, rng, noise_var=0.1)
        model = fit_on(2, fit_samples)
        recent = make_samples(2, alpha_recent, 0.3, 100, rng, noise_var=0.1)
        return model, recent

    def test_stable_model_not_updated(self):
        model, recent = self._fit_and_recent(0.5, 0.5, 17)
        assert not qoe.should_update(model, recent, rmse_tolerance=1.5)

    def test_shifted_params_trigger_update(self):
        model, recent = self._fit_and_recent(0.2, 1.0, 18)
        assert qoe.should_update(model, recent, rmse_tolerance=1.5)

    def test_zero_tolerance_always_updates(self):
        model, recent = self._fit_and_recent(0.5, 0.5, 19)
        assert qoe.should_update(model, recent, rmse_tolerance=0.0)


class TestFitBestStructure:
    def test_recovers_generating_structure(self):
        rng = np.random.default_rng(20)
        trials = 30
        sets, structs = [], []
        for t in range(trials):
            struct = 1 + t % 3
            a, b = rng.uniform(0.2, 1.0, 2)
            sets.append(make_samples(struct, a, b, 120, rng,
                                     noise_var=qoe.STRUCTURE_VARIANCE[struct]))
            structs.append(struct)
        models = qoe.fit_best_structure(sets)  # one call, one lock-step fit
        hits = sum(m.structure_index == s for m, s in zip(models, structs))
        assert hits >= int(0.85 * trials)


# --- reference fit -------------------------------------------------------------
# The fit as it was before the shared sample columns: per-call column builds,
# np.clip, and predictions recomputed whole for every trial step.  The
# column-based fit must reproduce it bit for bit.

def _ref_qos_vec(structure_index, r, q):
    if structure_index == 1:
        return 5.0 - qoe.REBUFFER_SLOPE * r
    if structure_index == 2:
        return 1.0 + qoe.QUALITY_SLOPE * q
    if structure_index == 3:
        return 1.0 + qoe.QUALITY_SLOPE * q - qoe.REBUFFER_SLOPE * r
    raise UnknownStructure(f"structure_index={structure_index}")


def _ref_predictions(structure_index, params, r, q, b, c):
    alpha, beta = params
    s = np.clip(_ref_qos_vec(structure_index, r, q), qoe.MOS_LO, qoe.MOS_HI)
    i = 1.0 / (1.0 + alpha * (b - 1.0) + beta * (c - 1.0))
    return np.clip(s * i, qoe.MOS_LO, qoe.MOS_HI), s, i


def ref_fit_model(structure_index, samples, start=(0.5, 0.5), max_iter=200):
    if len(samples) < 2:
        raise InsufficientData(f"need >= 2 samples, got {len(samples)}")
    y = np.array([s.qoe for s in samples])
    r = np.array([s.r for s in samples])
    q = np.array([s.q for s in samples])
    b = np.array([s.b for s in samples])
    c = np.array([s.c for s in samples])
    if np.ptp(b) == 0.0 and np.ptp(c) == 0.0:
        raise InsufficientData("impact parameters unidentifiable: (B, C) constant")
    params = np.array(start, dtype=float)
    pred, s, i = _ref_predictions(structure_index, params, r, q, b, c)
    resid = y - pred
    sse = float(resid @ resid)
    lam = 1e-3
    converged = False
    for _ in range(max_iter):
        live = (pred > qoe.MOS_LO) & (pred < qoe.MOS_HI)
        d_alpha = np.where(live, -s * i * i * (b - 1.0), 0.0)
        d_beta = np.where(live, -s * i * i * (c - 1.0), 0.0)
        jac = np.column_stack([d_alpha, d_beta])
        g = jac.T @ resid
        h = jac.T @ jac
        if float(np.abs(g).max(initial=0.0)) < 1e-12:
            converged = True
            break
        accepted = False
        for _ in range(30):
            step = np.linalg.solve(h + lam * np.eye(2), g)
            cand = np.maximum(params + step, 0.0)
            pred_c, s_c, i_c = _ref_predictions(structure_index, cand, r, q, b, c)
            resid_c = y - pred_c
            sse_c = float(resid_c @ resid_c)
            if sse_c <= sse:
                small = (sse - sse_c < 1e-14 * (sse + 1e-30)
                         or float(np.abs(cand - params).max()) < 1e-12)
                params, pred, s, i, resid, sse = cand, pred_c, s_c, i_c, resid_c, sse_c
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                if small:
                    converged = True
                break
            lam *= 3.0
        if not accepted:
            converged = True
        if converged:
            break
    rmse = math.sqrt(sse / len(samples))
    return qoe.QoEModel(structure_index, (float(params[0]), float(params[1])),
                        rmse, len(samples), converged)


def ref_structure_log_likelihood(model, samples):
    var = qoe.STRUCTURE_VARIANCE[model.structure_index]
    sigma = math.sqrt(var)
    r = np.array([s.r for s in samples])
    q = np.array([s.q for s in samples])
    b = np.array([s.b for s in samples])
    c = np.array([s.c for s in samples])
    x = np.array([s.qoe for s in samples])
    _, s_vec, i_vec = _ref_predictions(model.structure_index, model.impact_params,
                                       r, q, b, c)
    mean = s_vec * i_vec
    z = np.maximum(ndtr((qoe.MOS_HI - mean) / sigma) - ndtr((qoe.MOS_LO - mean) / sigma),
                   1e-300)
    ll = (-0.5 * math.log(2.0 * math.pi * var)
          - (x - mean) ** 2 / (2.0 * var)
          - np.log(z))
    return float(ll.sum())


def _outcome(fn, *args, **kw):
    """A call's result, or the type and message of the error it raised."""
    try:
        return fn(*args, **kw)
    except InsufficientData as exc:
        return type(exc), str(exc)


def ref_pick(samples, max_iter):
    """The reference structure pick: the highest likelihood among the
    structures the reference fits, or None where it fits none."""
    best, best_ll = None, -np.inf
    for struct in qoe.STRUCTURES:
        try:
            model = ref_fit_model(struct, samples, max_iter=max_iter)
        except InsufficientData:
            continue
        ll = ref_structure_log_likelihood(model, samples)
        if ll > best_ll:
            best, best_ll = model, ll
    return best


def model_bytes(model):
    """A model with its floats as hex, so that -0.0 and 0.0 differ."""
    if model is None:
        return None
    return (model.structure_index, tuple(x.hex() for x in model.impact_params),
            model.fit_rmse.hex(), model.sample_count, model.converged)


@st.composite
def sample_sets(draw, min_n=2, max_n=40):
    """Sample sets around a generating model.  A negative true alpha or beta
    drives the fit onto its zero bound; constant B or C, two or three
    samples and clamped scores (r up to 12 s) are all in range."""
    n = draw(st.integers(min_n, max_n))
    struct = draw(st.integers(1, 3))
    alpha = draw(st.floats(-0.45, 1.5))
    beta = draw(st.floats(-0.45, 1.5))
    const_b, const_c = draw(st.booleans()), draw(st.booleans())
    unit = st.floats(0.0, 1.0)
    b0, c0 = 1.0 + draw(unit), 1.0 + draw(unit)
    out = []
    for _ in range(n):
        r, q = 12.0 * draw(unit), draw(unit)
        b = b0 if const_b else 1.0 + draw(unit)
        c = c0 if const_c else 1.0 + draw(unit)
        mean = qoe.qos_score(struct, r, q) * qoe.impact(b, c, alpha, beta)
        x = min(max(mean + draw(st.floats(-1.5, 1.5)), qoe.MOS_LO), qoe.MOS_HI)
        out.append(qoe.FactorSample(x, r, q, b, c))
    return out


def _fit_cases():
    """Deterministic sets hitting each edge the fit has; where the edge
    shows in the model, `check` asserts that it is reached."""
    rng = np.random.default_rng(21)
    # C constant within the user, as every simulated user has it
    const_c = [qoe.FactorSample(float(rng.uniform(2, 4)), float(rng.uniform(0, 3)),
                                float(rng.random()), float(rng.uniform(1, 2)), 1.4)
               for _ in range(30)]
    # QoE rising with B: the best alpha is negative, so the fit stops at 0
    rising = [qoe.FactorSample(1.0 + 2.0 * (b - 1.0) + 1.5, 0.0, 0.5, b, 1.0 + 0.5 * (b - 1.0) ** 2)
              for b in np.linspace(1.0, 2.0, 12).tolist()]
    return [
        ("const_c", 3, const_c, 200, lambda m: True),
        ("alpha_bound", 2, rising, 200, lambda m: m.impact_params[0] == 0.0),
        ("max_iter", 3, make_samples(3, 0.7, 0.2, 40, rng, noise_var=0.8), 1,
         lambda m: not m.converged),
        ("n2", 3, make_samples(2, 0.5, 0.5, 2, rng, noise_var=1.0), 200, lambda m: True),
        ("n3", 3, make_samples(1, 0.3, 0.9, 3, rng, noise_var=8.0), 200, lambda m: True),
    ]


def random_set(rng):
    """A sample set around a random generating model, in the ranges of
    `sample_sets`, drawn from a numpy generator."""
    n, struct = int(rng.integers(2, 41)), int(rng.integers(1, 4))
    alpha, beta = rng.uniform(-0.45, 1.5, 2)
    out = []
    for _ in range(n):
        r, q, b, c = 12.0 * rng.random(), rng.random(), 1.0 + rng.random(), 1.0 + rng.random()
        mean = qoe.qos_score(struct, r, q) * qoe.impact(b, c, alpha, beta)
        x = min(max(mean + rng.uniform(-1.5, 1.5), qoe.MOS_LO), qoe.MOS_HI)
        out.append(qoe.FactorSample(float(x), r, q, b, c))
    return out


def ref_trials_per_iteration(struct, samples, monkeypatch):
    """The trial count of each iteration of the reference fit: it builds
    the Jacobian once per iteration and solves once per trial."""
    counts = []
    column_stack, solve = np.column_stack, np.linalg.solve

    def new_iteration(*args):
        counts.append(0)
        return column_stack(*args)

    def trial(*args):
        counts[-1] += 1
        return solve(*args)

    with monkeypatch.context() as m:
        m.setattr(np, "column_stack", new_iteration)
        m.setattr(np.linalg, "solve", trial)
        ref_fit_model(struct, samples)
    return counts


class TestFitMatchesReference:
    # sets found by search whose fits spend the whole budget of 30 trials
    # in one iteration: all 30 rejected (seed 1084), or the 30th accepted
    # (seed 14580), and one accepting its 29th (seed 4292)
    @pytest.mark.parametrize("seed, struct, longest", [(1084, 2, 30), (14580, 3, 30),
                                                       (4292, 3, 29)])
    def test_long_rejection_runs(self, seed, struct, longest, monkeypatch):
        samples = random_set(np.random.default_rng(seed))
        assert max(ref_trials_per_iteration(struct, samples, monkeypatch)) == longest
        assert model_bytes(fit_on(struct, samples)) == model_bytes(
            ref_fit_model(struct, samples))
        assert [model_bytes(m) for m in qoe.fit_best_structure([samples, samples[::-1]])] == [
            model_bytes(ref_pick(samples, 200)), model_bytes(ref_pick(samples[::-1], 200))]

    @pytest.mark.parametrize("name,struct,samples,max_iter,check", _fit_cases(),
                             ids=[c[0] for c in _fit_cases()])
    def test_edge_cases(self, name, struct, samples, max_iter, check):
        got = fit_on(struct, samples, max_iter=max_iter)
        assert got == ref_fit_model(struct, samples, max_iter=max_iter)
        assert check(got)
        assert (log_likelihood(got, samples)
                == ref_structure_log_likelihood(got, samples))

    @settings(max_examples=300, deadline=None)
    @given(sample_sets(), st.sampled_from([1, 2, 3, 200]))
    def test_bit_identical(self, samples, max_iter):
        best, best_ll = None, -np.inf
        for struct in qoe.STRUCTURES:
            got = _outcome(fit_on, struct, samples, max_iter=max_iter)
            assert got == _outcome(ref_fit_model, struct, samples, max_iter=max_iter)
            if isinstance(got, qoe.QoEModel):
                assert min(got.impact_params) >= 0.0 and got.fit_rmse >= 0.0
                ll = log_likelihood(got, samples)
                assert ll == ref_structure_log_likelihood(got, samples)
                if ll > best_ll:
                    best, best_ll = got, ll
        assert [model_bytes(m) for m in qoe.fit_best_structure(
            [samples], max_iter=max_iter)] == [model_bytes(best)]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=2).flatmap(
               lambda sizes: st.lists(st.sampled_from(sizes).flatmap(
                   lambda n: sample_sets(n, n)), min_size=1, max_size=6)),
           st.sampled_from([1, 2, 3, 200]))
    def test_one_call_fits_every_set(self, sets, max_iter):
        # sizes drawn from a pool of one or two, so that sets of one sample
        # count share the lock-step loop
        got = qoe.fit_best_structure(sets, max_iter=max_iter)
        assert [model_bytes(m) for m in got] == [
            model_bytes(ref_pick(samples, max_iter)) for samples in sets]

"""Estimates that go through ``dml.engine.linear_score_result`` against
frozen copies of the hand-written formulas they replaced.

Each ``_ref_*`` function keeps the earlier closed form verbatim: the
estimate as a ratio of sample moments and the HC0 variance as the
second moment of the (uncentred) influence values. The engine centres
its influence values and sums in a different order, so the two agree
to rounding: estimates to 1e-12 and SEs and joint variances to 1e-10,
relative to the larger of 1 and the reference's magnitude.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from dmlkit.cate import compare_models, toc_qini
from dmlkit.cli.dgps import (_draw_sem, _draw_weak_iv, _est_ovb,
                             _est_weak_iv, sem_population)
from dmlkit.dml import (dml_gate, dml_pliv, dml_plm, rct_estimators,
                        rdd_sharp)
from dmlkit.dml.engine import (influence_covariance, linear_score_result,
                               normal_interval)
from dmlkit.dml.estimators import irm_signals
from dmlkit.dml.rct import MODES
from dmlkit.dml.rdd import KERNELS
from dmlkit.double_lasso import (_lasso_residual, _rule_fit, _support_refit,
                                 desparsified_lasso, double_lasso,
                                 many_targets, simultaneous_critical_value)
from dmlkit.errors import BadLevel, SingularJacobian
from dmlkit.learners import LinearLearner, LogisticLearner, make_folds
from dmlkit.linalg import constant_columns, ols_fit, robust_variance
from dmlkit.rng import derive_seed
from dmlkit.sensitivity import ovb_bound

ESTIMATE_RTOL = 1e-12
VARIANCE_RTOL = 1e-10


def _close(actual, reference, rtol):
    reference = np.asarray(reference, dtype=float)
    scale = max(1.0, float(np.nanmax(np.abs(reference))))
    np.testing.assert_allclose(actual, reference, rtol=rtol,
                               atol=rtol * scale, equal_nan=True)


def _ref_gate(phi, groups):
    labels = np.unique(groups)
    n = phi.size
    estimates = np.empty(labels.size)
    variances = np.empty(labels.size)
    for j, lab in enumerate(labels):
        mask = groups == lab
        share = float(np.mean(mask))
        estimates[j] = float(np.mean(phi[mask]))
        influence = np.zeros(n)
        influence[mask] = (phi[mask] - estimates[j]) / share
        variances[j] = float(np.mean(influence**2))
        if np.sum(mask) < 2:
            variances[j] = np.nan
    return estimates, np.sqrt(variances / n)


def _ref_many_targets(y, D, W):
    n, p1 = D.shape
    ry_all = np.empty((n, p1))
    rd_all = np.empty((n, p1))
    estimates = np.empty(p1)
    for ell in range(p1):
        controls = np.column_stack([np.delete(D, ell, axis=1), W])
        ry = _lasso_residual(y, controls, "plugin")
        rd = _lasso_residual(D[:, ell], controls, "plugin")
        estimates[ell] = np.mean(rd * ry) / float(np.mean(rd**2))
        ry_all[:, ell] = ry
        rd_all[:, ell] = rd
    eps = ry_all - rd_all * estimates[None, :]
    denoms = np.mean(rd_all**2, axis=0)
    cross = (rd_all * eps).T @ (rd_all * eps) / n
    V = cross / denoms[:, None] / denoms[None, :]
    return estimates, 0.5 * (V + V.T)


def _ref_desparsified(y, d, W):
    joint = _rule_fit(y, np.column_stack([d, W]), "plugin")
    rd = d - _rule_fit(d, W, "plugin").predict(W)
    denom = float(np.mean(d * rd))
    partial_y = y - joint.intercept - W @ joint.coefficients[1:]
    estimate = float(np.mean(partial_y * rd) / denom)
    eps = partial_y - estimate * d
    variance = float(np.mean(rd**2 * eps**2)) / denom**2
    return estimate, np.sqrt(variance / y.size)


def _ref_compare(ti, tj, signals):
    delta_obs = (signals - ti) ** 2 - (signals - tj) ** 2
    delta = float(np.mean(delta_obs))
    variance = float(np.mean((delta_obs - delta) ** 2))
    return delta, variance


def _ref_weak_iv(data, theta0):
    ry = data["y"] - np.mean(data["y"])
    rd = data["d"] - np.mean(data["d"])
    rz = data["z"] - np.mean(data["z"])
    est = float(rz @ ry / (rz @ rd))
    eps = ry - est * rd
    V = float(np.mean(rz**2 * eps**2) / np.mean(rz * rd) ** 2)
    se = np.sqrt(V / ry.size)
    lo, hi = normal_interval(est, se, 0.05)
    return est, se, float(lo <= theta0 <= hi)


def _ref_ovb(data, alpha):
    y, d = data["y"], data["d"]
    rd = d - np.mean(d)
    beta_short = float(rd @ y / (rd @ rd))
    eps = y - np.mean(y) - beta_short * rd
    se = float(np.sqrt(np.mean(rd**2 * eps**2) / np.mean(rd**2) ** 2
                       / y.size))
    pop = sem_population()
    bound = ovb_bound(beta_short, pop["r2_y"], pop["r2_d"], pop["s"])
    lo = normal_interval(bound.lower, se, 0.05)[0]
    hi = normal_interval(bound.upper, se, 0.05)[1]
    return beta_short, se, float(lo <= alpha <= hi)


def _ref_double_lasso(y, d, W, lam_rule, fold_seed):
    ry = _lasso_residual(y, W, lam_rule, fold_seed)
    rd = _lasso_residual(d, W, lam_rule, fold_seed)
    denom = float(np.mean(rd**2))
    estimate = float(np.mean(rd * ry) / denom)
    eps = ry - estimate * rd
    variance = float(np.mean(rd**2 * eps**2)) / denom**2
    return estimate, variance, ry, rd


def _ref_support_refit(y, d, W, keep):
    n = y.size
    fit = ols_fit(np.column_stack([np.ones(n), d, W[:, keep]]), y)
    variance = float(robust_variance(fit, "HC0").matrix[1, 1] * n)
    return float(fit.coefficients[1]), np.sqrt(variance / n)


def _ref_two_by_two_variance(eps, d):
    n = eps.size
    dt = d - np.mean(d)
    ot = 1.0 - d
    v11 = np.mean(eps**2 * dt**2) / np.mean(dt**2) ** 2
    v22 = np.mean(eps**2 * ot**2) / np.mean(ot**2) ** 2
    v12 = np.mean(eps**2 * dt * ot) / (np.mean(ot**2) * np.mean(dt**2))
    return np.array([[v11, v12], [v12, v22]]) / n


def _ref_rct(y, d, W, mode):
    n = y.size
    Wc = W - W.mean(axis=0)
    Wc = Wc[:, ~constant_columns(Wc)]
    if mode == "CL":
        mu1 = float(np.mean(y[d == 1]))
        mu0 = float(np.mean(y[d == 0]))
        ate = mu1 - mu0
        eps = y - np.where(d == 1, mu1, mu0)
    else:
        design = np.column_stack([np.ones(n), d, Wc])
        if mode == "IRA":
            design = np.column_stack([design, d[:, None] * Wc])
        fit = ols_fit(design, y)
        ate = float(fit.coefficients[1])
        mu0 = float(fit.coefficients[0])
        eps = fit.residuals
    cov = _ref_two_by_two_variance(eps, d)
    se = float(np.sqrt(cov[0, 0]))
    grad = np.array([1.0 / mu0, -ate / mu0**2])
    rel_se = float(np.sqrt(grad @ cov @ grad))
    return ate, se, ate / mu0, rel_se


def _ref_rdd(y, x, bandwidth, kernel, Z):
    u = x / bandwidth
    w = KERNELS[kernel](u)
    keep = w > 0.0
    treat = (x >= 0.0).astype(float)
    design = np.column_stack([np.ones(y.size), treat, u, treat * u, Z])
    fit = ols_fit(design[keep], y[keep], weights=w[keep])
    var = robust_variance(fit, "HC0")
    return float(fit.coefficients[1]), float(var.std_errors[1])


@given(st.integers(0, 10_000), st.integers(1, 4))
def test_gate_matches_the_hand_formula(seed, groups_count):
    r = np.random.default_rng(seed)
    n = 80
    X = r.standard_normal((n, 2))
    d = (r.uniform(size=n) < 0.5).astype(float)
    y = d * (1.0 + X[:, 0]) + r.standard_normal(n)
    groups = r.integers(0, groups_count, size=n)
    groups[0] = groups_count  # a one-row group, whose SE is NaN
    plan = make_folds(n, 3, seed)
    res = dml_gate(y, d, X, groups, LinearLearner(), LogisticLearner(), plan)
    phi, _, _ = irm_signals(y, d, X, LinearLearner(), LogisticLearner(), plan)
    estimates, se = _ref_gate(phi, groups)
    _close(res.estimates, estimates, ESTIMATE_RTOL)
    _close(res.std_errors, se, VARIANCE_RTOL)
    assert np.isnan(res.std_errors[-1])


@given(st.integers(0, 10_000))
def test_many_targets_match_the_hand_formula(seed):
    r = np.random.default_rng(seed)
    n = 90
    D = r.standard_normal((n, 3))
    W = r.standard_normal((n, 6))
    y = D @ np.array([1.0, 0.0, -0.5]) + W[:, 0] + r.standard_normal(n)
    res = many_targets(y, D, W)
    estimates, V = _ref_many_targets(y, D, W)
    _close(res.estimates, estimates, ESTIMATE_RTOL)
    _close(res.joint_variance, V, VARIANCE_RTOL)
    _close(res.std_errors, np.sqrt(np.diag(V) / n), VARIANCE_RTOL)


@given(st.integers(0, 10_000))
def test_desparsified_lasso_matches_the_hand_formula(seed):
    r = np.random.default_rng(seed)
    n = 100
    W = r.standard_normal((n, 8))
    d = W[:, 0] + r.standard_normal(n)
    y = 0.7 * d + W[:, 1] + r.standard_normal(n)
    res = desparsified_lasso(y, d, W)
    estimate, se = _ref_desparsified(y, d, W)
    _close(res.estimate, estimate, ESTIMATE_RTOL)
    _close(res.std_error, se, VARIANCE_RTOL)
    _close(res.joint_variance, [[se**2 * n]], VARIANCE_RTOL)


@given(st.integers(0, 10_000))
def test_compare_models_matches_the_hand_formula(seed):
    r = np.random.default_rng(seed)
    s, ti, tj = r.standard_normal((3, 60))
    out = compare_models(ti, tj, s)
    delta, variance = _ref_compare(ti, tj, s)
    _close(out["delta"], delta, ESTIMATE_RTOL)
    _close(out["variance"], variance, VARIANCE_RTOL)
    _close(out["se"], np.sqrt(variance / s.size), VARIANCE_RTOL)


@given(st.integers(0, 10_000))
def test_weak_iv_slope_matches_the_hand_formula(seed):
    data = _draw_weak_iv(300, np.random.default_rng(seed))
    record = _est_weak_iv(data, {"theta": 1.0}, seed)
    est, se, covered = _ref_weak_iv(data, 1.0)
    _close(record["estimate"], est, ESTIMATE_RTOL)
    _close(record["std_error"], se, VARIANCE_RTOL)
    assert record["covered_wald"] == covered


@given(st.integers(0, 10_000))
def test_ovb_slope_matches_the_hand_formula(seed):
    data = _draw_sem(300, np.random.default_rng(seed))
    record = _est_ovb(data, {"alpha": 1.0}, seed)
    estimate, se, covered = _ref_ovb(data, 1.0)
    _close(record["estimate"], estimate, ESTIMATE_RTOL)
    assert record["covered"] == covered
    rd = data["d"] - np.mean(data["d"])
    ry = data["y"] - np.mean(data["y"])
    _close(linear_score_result(rd * rd, rd * ry).std_error, se,
           VARIANCE_RTOL)


@given(st.integers(0, 10_000), st.sampled_from(["plugin", "zero", "cv"]))
def test_double_lasso_matches_the_hand_formula(seed, lam_rule):
    r = np.random.default_rng(seed)
    n = 100
    W = r.standard_normal((n, 8))
    d = W[:, 0] + r.standard_normal(n)
    y = 0.7 * d + W[:, 1] + r.standard_normal(n)
    res = double_lasso(y, d, W, lam_rule=lam_rule, seed=seed)
    estimate, variance, ry, rd = _ref_double_lasso(
        y, d, W, lam_rule, derive_seed(seed, "lasso-cv", 0))
    _close(res.estimate, estimate, ESTIMATE_RTOL)
    _close(res.std_error, np.sqrt(variance / n), VARIANCE_RTOL)
    _close(res.joint_variance, [[variance]], VARIANCE_RTOL)
    np.testing.assert_array_equal(res.residual_outcome, ry)
    np.testing.assert_array_equal(res.residual_targets, rd[:, None])


@given(st.integers(0, 10_000), st.lists(st.integers(0, 5), max_size=6))
def test_support_refit_matches_ols_with_hc0(seed, keep):
    r = np.random.default_rng(seed)
    n = 80
    W = r.standard_normal((n, 6))
    d = W[:, 0] + r.standard_normal(n)
    y = 0.5 * d + W[:, 1] + (1.0 + W[:, 2]**2) * r.standard_normal(n)
    keep = sorted(set(keep))
    res = _support_refit(y, d, W, keep, 0.05)
    estimate, se = _ref_support_refit(y, d, W, keep)
    _close(res.estimate, estimate, ESTIMATE_RTOL)
    _close(res.std_error, se, VARIANCE_RTOL)
    _close(res.joint_variance, [[se**2 * n]], VARIANCE_RTOL)


@given(st.integers(0, 10_000), st.sampled_from(MODES + ("cra", "ira")))
def test_rct_matches_the_two_by_two_variance(seed, mode):
    r = np.random.default_rng(seed)
    n = 120
    W = r.standard_normal((n, 3))
    d = (r.uniform(size=n) < 0.4).astype(float)
    d[:2] = 1.0, 0.0  # both arms present
    y = 3.0 + d * (1.0 + W[:, 0]) + W[:, 1] + r.standard_normal(n)
    res = rct_estimators(y, d, W, mode=mode)
    ate, se, rel, rel_se = _ref_rct(y, d, W, mode.upper())
    _close(res.estimate, ate, ESTIMATE_RTOL)
    _close(res.std_error, se, VARIANCE_RTOL)
    _close(res.diagnostics["relative_ate"], rel, ESTIMATE_RTOL)
    _close(res.diagnostics["relative_ate_se"], rel_se, VARIANCE_RTOL)


@given(st.integers(0, 10_000), st.sampled_from(sorted(KERNELS)),
       st.integers(0, 2))
def test_rdd_matches_the_wls_sandwich(seed, kernel, covariates):
    r = np.random.default_rng(seed)
    n = 300
    x = r.uniform(-1.0, 1.0, n)
    Z = r.standard_normal((n, covariates))
    y = (0.5 * x + 1.0 * (x >= 0) + Z.sum(axis=1)
         + (1.0 + x**2) * r.standard_normal(n))
    res = rdd_sharp(y, x, cutoff=0.0, bandwidth=0.6, kernel=kernel, Z=Z)
    tau, se = _ref_rdd(y, x, 0.6, kernel, Z)
    _close(res.estimate, tau, ESTIMATE_RTOL)
    _close(res.std_error, se, VARIANCE_RTOL)


# ---------------------------------------------------------------------------
# The Jacobian checks are relative to E_n[|psi_a|]


def _plm_draw(n=500, seed=5):
    r = np.random.default_rng(seed)
    X = r.standard_normal((n, 3))
    z = X[:, 0] + r.standard_normal(n)
    d = 0.8 * z + X[:, 1] + r.standard_normal(n)
    y = 2.0 * d + X[:, 2] + r.standard_normal(n)
    return y, d, z, X


@pytest.mark.parametrize("s", [1e-7, 1e7])
def test_plm_estimate_scales_with_the_treatment(s):
    y, d, _, X = _plm_draw()
    plan = make_folds(y.size, 5, 0)
    base = dml_plm(y, d, X, LinearLearner(), LinearLearner(), plan)
    scaled = dml_plm(y, s * d, X, LinearLearner(), LinearLearner(), plan)
    assert scaled.theta * s == pytest.approx(base.theta, rel=1e-9)
    assert scaled.std_error * s == pytest.approx(base.std_error, rel=1e-9)


@pytest.mark.parametrize("s", [1e-7, 1e7])
def test_pliv_estimate_scales_with_treatment_and_instrument(s):
    y, d, z, X = _plm_draw()
    plan = make_folds(y.size, 5, 0)
    learners = LinearLearner(), LinearLearner(), LinearLearner()
    base = dml_pliv(y, d, z, X, *learners, plan)
    scaled = dml_pliv(y, s * d, s * z, X, *learners, plan)
    assert scaled.theta * s == pytest.approx(base.theta, rel=1e-9)


def test_cancelling_jacobian_is_singular():
    with pytest.raises(SingularJacobian):
        linear_score_result(np.tile([1.0, -1.0], 5), np.ones(10))


@pytest.mark.parametrize("alpha", [3.0, 1.0, 0.0, -0.05, np.nan])
def test_level_outside_unit_interval_raises(alpha):
    # Before, alpha = 3 gave a NaN interval and alpha = 0 an infinite one.
    with pytest.raises(BadLevel, match="alpha"):
        linear_score_result(np.ones(10), np.arange(10.0), alpha=alpha)
    with pytest.raises(BadLevel):
        normal_interval(np.zeros(2), np.ones(2), alpha, critical_value=2.0)
    # The sup-t critical value took alpha = 3 to numpy's ValueError and
    # alpha = 0 or 1 to a finite number.
    with pytest.raises(BadLevel):
        simultaneous_critical_value(np.eye(2), [0.05, alpha], draws=16)


def test_valid_level_keeps_its_interval():
    result = linear_score_result(np.ones(10), np.arange(10.0), alpha=0.05)
    c = 1.959963984540054
    assert result.ci == (4.5 - c * result.std_error,
                         4.5 + c * result.std_error)


# ---------------------------------------------------------------------------
# One influence covariance serves every variance


@given(hnp.arrays(np.float64,
                  hnp.array_shapes(min_dims=2, max_dims=2, min_side=2,
                                   max_side=40),
                  elements=st.floats(-1e3, 1e3)).map(lambda a: a.round(6)))
def test_influence_covariance_is_the_biased_sample_covariance(phi):
    V = influence_covariance(phi)
    ref = np.atleast_2d(np.cov(phi, rowvar=False, bias=True))
    assert V.shape == ref.shape == (phi.shape[1],) * 2
    # Each entry relative to sqrt(V_ii V_jj), the scale of its column pair.
    scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
    assert np.all(np.abs(V - ref) <= 1e-12 * scale)


def test_influence_covariance_of_a_vector_is_the_score_variance():
    r = np.random.default_rng(8)
    res = linear_score_result(1.0 + r.uniform(size=50),
                              r.standard_normal(50))
    V = influence_covariance(res.influence)
    assert V.shape == (1, 1)
    assert V[0, 0] == res.variance[0]


def test_area_ses_are_the_curve_variances_along_dq():
    # Bit for bit, on every draw: the area SEs come from the curves'
    # joint variances, not from a second pass over the influence values.
    n = 300
    for seed in range(8):
        r = np.random.default_rng(seed)
        tau = r.standard_normal(n)
        s = tau + r.standard_normal(n)
        curves = toc_qini(tau, s, r.standard_normal(n))
        dq = np.append(np.diff(curves.grid), 1.0 - curves.grid[-1])
        assert curves.autoc_se == np.sqrt(dq @ curves.toc_variance @ dq / n)
        assert curves.auqc_se == np.sqrt(dq @ curves.qini_variance @ dq / n)

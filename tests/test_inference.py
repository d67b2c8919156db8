"""The shared result base, the sup-t band helper and the top-q rule."""

import numpy as np
import pytest
from scipy import stats

from dmlkit.cate import blp_cate, toc_qini
from dmlkit.cate.validation import top_share_rule
from dmlkit.dml import DmlResult
from dmlkit.dml.engine import normal_interval
from dmlkit.double_lasso import (TargetInference, band_critical_value,
                                 simultaneous_critical_value)

Z975 = stats.norm.ppf(0.975)


class TestResultBase:
    def test_interval_is_derived_not_passed(self):
        res = DmlResult(estimates=np.array([1.0, 2.0]),
                        std_errors=np.array([0.5, 0.25]), alpha=0.05, n=10,
                        influence=np.zeros((10, 2)), variance=np.ones(2))
        lower, upper = normal_interval(res.estimates, res.std_errors, 0.05)
        assert np.array_equal(res.ci_lower, lower)
        assert np.array_equal(res.ci_upper, upper)
        assert res.theta == res.estimate == 1.0
        assert res.std_error == 0.5
        assert res.ci == (float(lower[0]), float(upper[0]))
        with pytest.raises(TypeError):
            DmlResult(estimates=np.ones(1), std_errors=np.ones(1), alpha=0.05,
                      n=1, influence=np.zeros(1), variance=np.ones(1),
                      ci_lower=np.zeros(1))

    def test_target_band_and_p_values(self):
        est, se = np.array([1.0, -3.0, 0.0]), np.array([0.5, 1.0, 0.0])
        res = TargetInference(estimates=est, std_errors=se, alpha=0.1, n=5,
                              joint_variance=np.diag(se**2 * 5),
                              critical_value=2.5)
        assert np.array_equal(res.band_lower, est - 2.5 * se)
        assert np.array_equal(res.band_upper, est + 2.5 * se)
        assert res.p_values[:2] == pytest.approx(
            2.0 * stats.norm.sf([2.0, 3.0]))
        # A zero standard error makes the estimate exact.
        assert res.p_values[2] == 0.0

    def test_default_band_is_pointwise(self):
        res = TargetInference(estimates=np.array([0.3]),
                              std_errors=np.array([0.1]), alpha=0.05, n=4,
                              joint_variance=np.array([[0.04]]))
        assert res.critical_value == float(Z975)
        assert np.array_equal(res.band_lower, res.ci_lower)
        assert np.array_equal(res.band_upper, res.ci_upper)

    def test_blp_coefficients_alias_estimates(self):
        r = np.random.default_rng(3)
        basis = np.column_stack([np.ones(50), r.standard_normal(50)])
        res = blp_cate(basis @ [1.0, 2.0] + r.standard_normal(50), basis)
        assert res.coefficients is res.estimates
        with pytest.raises(AttributeError):
            res.coefficients = np.zeros(2)


class TestBandCriticalValue:
    CORR = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.6], [0.0, 0.6, 1.0]])

    def test_several_levels_from_one_draw(self):
        levels = [0.05, 0.025, 0.2]
        both = simultaneous_critical_value(self.CORR, levels, seed=3)
        single = [simultaneous_critical_value(self.CORR, a, seed=3)
                  for a in levels]
        assert isinstance(single[0], float)
        assert both.tolist() == single

    def test_several_levels_one_target(self):
        both = simultaneous_critical_value(np.eye(1), [0.05, 0.1])
        assert both.tolist() == [float(stats.norm.ppf(0.975)),
                                 float(stats.norm.ppf(0.95))]

    def test_scales_covariance_to_correlation(self):
        scale = np.array([2.0, 0.5, 3.0])
        cov = self.CORR * scale[:, None] * scale[None, :]
        assert band_critical_value(cov, 0.05, seed=8) \
            == simultaneous_critical_value(self.CORR, 0.05, seed=8)

    def test_zero_variance_estimate_adds_nothing(self):
        # One random coordinate: the sup-t value is the normal quantile
        # up to Monte Carlo error, not that of two independent ones.
        c = band_critical_value(np.diag([4.0, 0.0]), 0.05, seed=2)
        assert c == pytest.approx(Z975, abs=0.03)

    def test_toc_band_treats_full_coverage_as_exact(self):
        # n = 256 makes the q = 1 tie fraction exactly 1, so TOC(1) is 0
        # with zero variance.
        r = np.random.default_rng(21)
        n = 256
        tau = r.standard_normal(n)
        s = tau + r.standard_normal(n)
        curves = toc_qini(tau, s, tau, seed=5)
        V = curves.toc_variance
        assert not V[-1].any() and not V[:, -1].any()
        scale = np.sqrt(np.diag(V))
        safe = np.where(scale > 0, scale, 1.0)
        corr = V / safe[:, None] / safe[None, :]
        c_two = simultaneous_critical_value(corr, 0.05, seed=5)
        c_one = simultaneous_critical_value(corr, 0.025, seed=5)
        se = np.sqrt(np.diag(V) / n)
        assert np.array_equal(curves.toc_band[0], curves.toc - c_two * se)
        assert np.array_equal(curves.toc_band[1], curves.toc + c_two * se)
        assert np.array_equal(curves.toc_lower_band, curves.toc - c_one * se)


class TestTopShareRule:
    def test_ties_split_to_hit_the_share(self):
        ref = np.array([1.0, 2.0, 2.0, 2.0, 3.0])
        mu, lam, pi = top_share_rule(ref, ref, 0.4)
        assert mu == 2.0
        assert lam == pytest.approx(1.0 / 3.0)
        assert np.mean(pi) == pytest.approx(0.4)
        assert pi.tolist() == [0.0, lam, lam, lam, 1.0]

    def test_no_ties_at_threshold(self):
        ref = np.array([0.0, 1.0, 2.0, 3.0])
        mu, lam, pi = top_share_rule(np.array([0.5, 3.5]), ref, 0.5)
        assert (mu, lam) == (1.5, 0.0)
        assert pi.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("alpha", [0.05, [0.05, 0.025]])
@pytest.mark.parametrize("size", [1, 3])
def test_stacked_correlations_share_one_set_of_draws(size, alpha):
    r = np.random.default_rng(16)
    A = r.standard_normal((2, size, size + 2))
    covs = A @ A.transpose(0, 2, 1)
    stacked = band_critical_value(covs, alpha, seed=4)
    assert stacked.shape == (2,) + np.shape(alpha)
    for cov, got in zip(covs, stacked):
        want = band_critical_value(cov, alpha, seed=4)
        assert np.array_equal(got, want)


def test_uplift_bands_equal_two_separate_band_calls():
    r = np.random.default_rng(17)
    n, alpha = 400, 0.1
    tau = r.standard_normal(n)
    s = tau + r.standard_normal(n)
    curves = toc_qini(tau, s, r.standard_normal(n), alpha=alpha, seed=6)
    for values, V, band, lower in [
            (curves.toc, curves.toc_variance, curves.toc_band,
             curves.toc_lower_band),
            (curves.qini, curves.qini_variance, curves.qini_band,
             curves.qini_lower_band)]:
        c_two, c_one = band_critical_value(V, [alpha, alpha / 2.0], 6)
        se = np.sqrt(np.diag(V) / n)
        two = normal_interval(values, se, alpha, critical_value=c_two)
        assert np.array_equal(band[0], two[0])
        assert np.array_equal(band[1], two[1])
        assert np.array_equal(
            lower, normal_interval(values, se, alpha, critical_value=c_one)[0])

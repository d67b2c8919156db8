import csv

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dmlkit.cli.dgps import sem_population
from dmlkit.errors import BadR2, NotADistribution, SingularProxyMatrix
from dmlkit.dml import dml_plm
from dmlkit.learners import (LinearLearner, MeanLearner, cross_fit_predict,
                             make_folds)
from dmlkit.sensitivity import (balance_check, ovb_bound, ovb_from_data,
                                proxy_discrete, proxy_linear_iv)


class TestOvbBound:
    def test_quarter_point(self):
        out = ovb_bound(1.0, r2_y=0.25, r2_d=0.2, s=1.0)
        assert out.bias_bound == pytest.approx(0.25)
        assert out.lower == pytest.approx(0.75)
        assert out.upper == pytest.approx(1.25)

    def test_unit_point(self):
        out = ovb_bound(0.0, r2_y=0.5, r2_d=0.5, s=2.0)
        assert out.bias_bound == pytest.approx(1.0)

    def test_scales_with_sqrt_s(self):
        a = ovb_bound(0.0, 0.3, 0.3, 1.0).bias_bound
        b = ovb_bound(0.0, 0.3, 0.3, 2.0).bias_bound
        assert b == pytest.approx(np.sqrt(2.0) * a)

    def test_no_outcome_confounding_gives_point(self):
        out = ovb_bound(2.0, r2_y=0.0, r2_d=0.4, s=1.5)
        assert out.lower == out.upper == 2.0

    def test_bad_inputs(self):
        with pytest.raises(BadR2):
            ovb_bound(0.0, 1.0, 0.2, 1.0)
        with pytest.raises(BadR2):
            ovb_bound(0.0, 0.2, -0.1, 1.0)
        with pytest.raises(BadR2):
            ovb_bound(0.0, 0.2, 0.2, 0.0)

    @given(st.floats(0.0, 0.9), st.floats(0.0, 0.9), st.floats(0.1, 5.0))
    def test_monotone_and_symmetric_interval(self, r2_y, r2_d, s):
        out = ovb_bound(1.0, r2_y, r2_d, s)
        assert out.bias_bound >= 0.0
        assert out.upper - 1.0 == pytest.approx(1.0 - out.lower)

    def test_analytic_sem_bias_recovered(self):
        # In the closed-form confounded model the bound is sharp: fed its
        # own population partial R-squareds it returns the exact bias.
        pop = sem_population()
        out = ovb_bound(pop["beta_short"], pop["r2_y"], pop["r2_d"],
                        pop["s"])
        assert out.bias_bound == pytest.approx(pop["phi"], abs=1e-10)
        assert out.lower == pytest.approx(1.0, abs=1e-10)  # true alpha


class TestOvbFromData:
    def test_contour_csv_layout(self, tmp_path):
        r = np.random.default_rng(0)
        n = 60
        X = r.standard_normal((n, 2))
        d = r.standard_normal(n)
        y = d + r.standard_normal(n)
        out = ovb_from_data(y, d, X, MeanLearner(), MeanLearner(),
                            make_folds(n, 3, seed=1), r2_y=0.2, r2_d=0.2,
                            contour_points=5)
        path = tmp_path / "contour.csv"
        out.write_contour_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r2_y", "r2_d", "phi_bound"]
        assert len(rows) == 1 + 25
        origin = [row for row in rows[1:]
                  if float(row[0]) == 0.0 and float(row[1]) == 0.0]
        assert float(origin[0][2]) == 0.0

    def test_matches_manual_bound(self):
        r = np.random.default_rng(1)
        n = 80
        X = r.standard_normal((n, 2))
        d = r.standard_normal(n)
        y = 0.5 * d + r.standard_normal(n)
        plan = make_folds(n, 4, seed=2)
        out = ovb_from_data(y, d, X, MeanLearner(), MeanLearner(), plan,
                            r2_y=0.3, r2_d=0.2)
        direct = ovb_bound(out.estimate, 0.3, 0.2, out.s)
        assert out.bias_bound == pytest.approx(direct.bias_bound)


def _binary_sem(p_q=0.3, flip=0.1):
    """Joint law of (Q, S, D, Y), all binary, with S a noisy proxy of Q
    and S independent of D given Q. Returns the proxy inputs plus the
    exact g-formula answer."""
    pq = np.array([1.0 - p_q, p_q])
    p_s_q = np.array([[1.0 - flip, flip], [flip, 1.0 - flip]])  # s x q
    p_d_q = np.array([[0.8, 0.4], [0.2, 0.6]])  # d x q
    p_y_dq = {  # y x q per treatment level
        0: np.array([[0.9, 0.5], [0.1, 0.5]]),
        1: np.array([[0.6, 0.2], [0.4, 0.8]]),
    }
    pi_s = p_s_q @ pq
    pi_y_dq, pi_s_qd, truth = {}, {}, {}
    for d in (0, 1):
        pi_y_dq[d] = p_y_dq[d]
        # S independent of D given Q, so p(s|q,d) = p(s|q).
        pi_s_qd[d] = p_s_q
        truth[d] = p_y_dq[d] @ pq
    return pi_y_dq, pi_s_qd, pi_s, truth


class TestProxyDiscrete:
    def test_matches_g_formula_exactly(self):
        pi_y_dq, pi_s_qd, pi_s, truth = _binary_sem()
        out = proxy_discrete(pi_y_dq, pi_s_qd, pi_s)
        for d in (0, 1):
            assert out[d] == pytest.approx(truth[d], abs=1e-10)
            assert out[d].sum() == pytest.approx(1.0, abs=1e-10)

    def test_perfect_proxy_is_backdoor(self):
        pi_y_dq, _, _, truth = _binary_sem()
        pq = np.array([0.7, 0.3])
        ident = {0: np.eye(2), 1: np.eye(2)}
        out = proxy_discrete(pi_y_dq, ident, pq)
        for d in (0, 1):
            assert out[d] == pytest.approx(truth[d], abs=1e-12)

    def test_treatment_irrelevant_outcome_gives_marginal(self):
        pi_y_dq, pi_s_qd, pi_s, _ = _binary_sem()
        same = {0: pi_y_dq[0], 1: pi_y_dq[0]}
        out = proxy_discrete(same, pi_s_qd, pi_s)
        assert out[0] == pytest.approx(out[1], abs=1e-12)

    def test_not_a_distribution(self):
        pi_y_dq, pi_s_qd, pi_s, _ = _binary_sem()
        with pytest.raises(NotADistribution):
            proxy_discrete(pi_y_dq, pi_s_qd, np.array([0.5, 0.6]))
        bad_y = {0: np.array([[0.9, 0.5], [0.2, 0.5]])}
        with pytest.raises(NotADistribution):
            proxy_discrete(bad_y, {0: np.eye(2)}, np.array([0.5, 0.5]))

    def test_singular_proxy_matrix(self):
        pi_y_dq, _, _, _ = _binary_sem()
        uninformative = {0: np.full((2, 2), 0.5), 1: np.full((2, 2), 0.5)}
        with pytest.raises(SingularProxyMatrix):
            proxy_discrete(pi_y_dq, uninformative, np.array([0.5, 0.5]))


class TestProxyLinearIv:
    def test_recovers_effect_under_latent_confounding(self):
        r = np.random.default_rng(3)
        n = 4000
        a = r.standard_normal(n)  # latent confounder
        s = a + 0.3 * r.standard_normal(n)
        q = a + 0.3 * r.standard_normal(n)
        d = a + r.standard_normal(n)
        y = 1.0 * d + 2.0 * a + r.standard_normal(n)
        X = np.zeros((n, 1))
        out = proxy_linear_iv(y, d, s, q, X, MeanLearner(),
                              make_folds(n, 2, seed=4))
        assert out["estimate"] == pytest.approx(1.0, abs=4 * out["std_error"])
        assert out["first_stage"]["strong"]
        lo, hi = out["ci"]
        assert lo < out["estimate"] < hi

    def test_naive_regression_is_biased_here(self):
        r = np.random.default_rng(4)
        n = 4000
        a = r.standard_normal(n)
        d = a + r.standard_normal(n)
        y = 1.0 * d + 2.0 * a + r.standard_normal(n)
        rd = d - d.mean()
        naive = float(rd @ (y - y.mean()) / (rd @ rd))
        assert naive > 1.5  # omitted confounder pushes the slope up


class TestBalanceCheck:
    def test_constant_covariates_vacuous(self):
        out = balance_check(np.arange(10.0), np.ones((10, 2)))
        assert out["vacuous"]
        assert np.isnan(out["p_value"])

    def test_direct_dependence_rejected(self):
        r = np.random.default_rng(5)
        W = r.standard_normal((300, 2))
        H = 2.0 * W[:, 0] + 0.1 * r.standard_normal(300)
        out = balance_check(H, W)
        assert out["reject"]
        assert out["r2"] > 0.9

    def test_correct_propensity_passes(self):
        r = np.random.default_rng(6)
        n = 500
        W = r.standard_normal((n, 3))
        d = (r.uniform(size=n) < 0.5).astype(float)
        y = r.standard_normal(n)
        H = (d / 0.5 - (1 - d) / 0.5) * y
        out = balance_check(H, W)
        assert not out["reject"]
        assert out["dof"] == 3


class _CountingLinear:
    def __init__(self):
        self.fits = 0

    def fit(self, X, y, weights=None):
        self.fits += 1
        return LinearLearner().fit(X, y, weights=weights)


class TestOvbFitsEachNuisanceOnce:
    def test_one_fit_per_fold_and_same_bound(self):
        r = np.random.default_rng(3)
        n = 90
        X = r.standard_normal((n, 2))
        d = X[:, 0] + r.standard_normal(n)
        y = 0.5 * d + X[:, 1] + r.standard_normal(n)
        plan = make_folds(n, 3, seed=4)
        learner_l, learner_m = _CountingLinear(), _CountingLinear()
        out = ovb_from_data(y, d, X, learner_l, learner_m, plan,
                            r2_y=0.3, r2_d=0.2)
        assert (learner_l.fits, learner_m.fits) == (plan.K, plan.K)
        # The bound built by hand from dml_plm and one residualization.
        beta = dml_plm(y, d, X, LinearLearner(), LinearLearner(), plan).theta
        ry = y - cross_fit_predict(LinearLearner(), X, y, plan)[0]
        rd = d - cross_fit_predict(LinearLearner(), X, d, plan)[0]
        s = float(np.mean((ry - beta * rd) ** 2) / np.mean(rd**2))
        direct = ovb_bound(beta, 0.3, 0.2, s)
        assert (out.estimate, out.s, out.bias_bound, out.lower, out.upper) \
            == (direct.estimate, direct.s, direct.bias_bound, direct.lower,
                direct.upper)


@pytest.mark.parametrize("value", [0.1, 0.5])
def test_balance_check_drops_any_constant_column(value):
    # Fifty 0.1s have a standard deviation of about 1e-17 after rounding;
    # the column is as constant as one of 0.5s and is dropped.
    r = np.random.default_rng(8)
    w = r.standard_normal(50)
    H = w + r.standard_normal(50)
    out = balance_check(H, np.column_stack([w, np.full(50, value)]))
    assert out["dof"] == 1
    assert out["wald"] == balance_check(H, w)["wald"]

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from dmlkit.errors import (DimensionMismatch, FoldTooSmall, NonFinitePenalty)
from dmlkit.learners import make_folds
from dmlkit.linalg import ols_fit
from dmlkit.penalized import (KKT_TOL, cv_fit, elastic_net_fit, lasso_fit,
                              lasso_path, lasso_plugin, plugin_lambda,
                              post_lasso, post_lasso_coefficients, ridge_fit)

# Mean-zero scalar designs with Sum x^2 = 4 and Sum x*y = 10, used by the
# hand-solved univariate penalty examples below.
SCALAR_X2 = np.array([np.sqrt(2.0), -np.sqrt(2.0)])
SCALAR_Y2 = np.array([5.0 / np.sqrt(2.0), -5.0 / np.sqrt(2.0)])
SCALAR_X4 = np.array([1.0, 1.0, -1.0, -1.0])
SCALAR_Y4 = np.array([2.5, 2.5, -2.5, -2.5])


def _random_problem(seed, n_max=60, p_max=8):
    r = np.random.default_rng(seed)
    n = int(r.integers(10, n_max + 1))
    p = int(r.integers(1, p_max + 1))
    X = r.standard_normal((n, p))
    y = r.standard_normal(n)
    return X, y


class TestLassoFit:
    def test_zero_penalty_matches_ols(self):
        X, y = _random_problem(3)
        fit = lasso_fit(X, y, lam=0.0)
        ols = ols_fit(np.column_stack([np.ones(y.size), X]), y)
        assert np.max(np.abs(fit.coefficients - ols.coefficients[1:])) < 1e-8
        assert fit.intercept == pytest.approx(ols.coefficients[0], abs=1e-8)

    def test_univariate_soft_threshold(self):
        # Sum x^2 = 4, Sum x*y = 10, psi = 1, lam = 4 -> (10 - 2)/4 = 2.
        fit = lasso_fit(SCALAR_X2, SCALAR_Y2, lam=4.0, loadings=[1.0])
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-7)

    def test_large_penalty_kills_coefficient(self):
        fit = lasso_fit(SCALAR_X2, SCALAR_Y2, lam=20.0, loadings=[1.0])
        assert fit.coefficients[0] == 0.0
        assert fit.active_set.size == 0

    def test_negative_penalty_rejected(self):
        with pytest.raises(NonFinitePenalty):
            lasso_fit(SCALAR_X2, SCALAR_Y2, lam=-1.0)

    def test_constant_column_flagged_degenerate(self):
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        fit = lasso_fit(X, np.arange(6.0), lam=0.5)
        assert fit.degenerate_columns == [0]
        assert fit.coefficients[0] == 0.0

    @given(st.integers(0, 10_000), st.floats(0.0, 50.0))
    def test_kkt_certificate_on_every_fit(self, seed, lam):
        X, y = _random_problem(seed)
        fit = lasso_fit(X, y, lam=lam)
        scale = max(1.0, lam, 2.0 * y.size * float(np.abs(y).max()))
        assert fit.kkt_gap <= KKT_TOL * scale

    @given(st.integers(0, 10_000))
    def test_scale_invariance_of_predictions(self, seed):
        X, y = _random_problem(seed)
        c = 7.5
        base = lasso_fit(X, y, lam=3.0)
        scaled_X = X.copy()
        scaled_X[:, 0] *= c
        scaled = lasso_fit(scaled_X, y, lam=3.0)
        assert scaled.coefficients[0] == pytest.approx(
            base.coefficients[0] / c, abs=1e-8)
        assert np.max(np.abs(scaled.predict(scaled_X)
                             - base.predict(X))) < 1e-7

    def test_predict_rejects_a_design_of_another_width(self):
        X, y = _random_problem(12)
        fit = lasso_fit(X, y, lam=3.0)
        p = X.shape[1]
        assert fit.predict(X).shape == (y.size,)
        for width in (1, p - 1, p + 3):
            with pytest.raises(DimensionMismatch):
                fit.predict(np.ones((4, width)))
        with pytest.raises(DimensionMismatch):
            fit.predict(np.ones(4))  # a vector is one column

    def test_path_matches_cold_fits(self):
        X, y = _random_problem(11)
        lams = [20.0, 5.0, 1.0, 0.2]
        warm = lasso_path(X, y, lams)
        for lam, fit in zip(lams, warm):
            cold = lasso_fit(X, y, lam=lam)
            assert np.max(np.abs(fit.coefficients
                                 - cold.coefficients)) < 1e-6


class TestPluginLambda:
    def test_hand_formula(self):
        r = np.random.default_rng(0)
        X = r.standard_normal((100, 10))
        y = r.standard_normal(100)
        y = (y - y.mean()) / np.std(y) + 1.0  # sigma_hat starts at exactly 1
        rule = plugin_lambda(X, y, c=1.1, a=0.05, sigma_iters=0)
        expected = 2.0 * 1.1 * 1.0 * 10.0 * stats.norm.ppf(1.0 - 0.05 / 20.0)
        assert rule["lam"] == pytest.approx(expected)
        assert abs(rule["lam"] - 61.75) < 0.01
        assert rule["z"] == pytest.approx(2.8070, abs=1e-3)

    def test_feller_quantile_bound(self):
        r = np.random.default_rng(1)
        rule = plugin_lambda(r.standard_normal((50, 10)),
                             r.standard_normal(50))
        assert rule["z"] <= np.sqrt(2.0 * np.log(2.0 * 10.0 / 0.05))

    def test_constant_outcome_gives_zero_penalty(self):
        rule = plugin_lambda(np.arange(10.0)[:, None], np.full(10, 2.0))
        assert rule["lam"] == 0.0

    @given(st.integers(0, 5_000))
    def test_monotone_in_scale_and_n(self, seed):
        r = np.random.default_rng(seed)
        X = r.standard_normal((40, 4))
        y = r.standard_normal(40)
        base = plugin_lambda(X, y, sigma_iters=0)["lam"]
        louder = plugin_lambda(X, 2.0 * y, sigma_iters=0)["lam"]
        assert louder >= base
        X2 = np.vstack([X, X])
        y2 = np.concatenate([y, y])
        bigger = plugin_lambda(X2, y2, sigma_iters=0)["lam"]
        assert bigger >= base

    def test_weakly_increasing_in_p(self):
        r = np.random.default_rng(2)
        X = r.standard_normal((60, 6))
        y = r.standard_normal(60)
        narrow = plugin_lambda(X[:, :2], y, sigma_iters=0)["lam"]
        wide = plugin_lambda(X, y, sigma_iters=0)["lam"]
        assert wide >= narrow

    def test_heteroskedastic_loadings(self):
        r = np.random.default_rng(3)
        X = r.standard_normal((80, 3))
        y = r.standard_normal(80)
        rule = plugin_lambda(X, y, heteroskedastic=True)
        assert rule["sigma_hat"] == 1.0
        assert rule["loadings"].shape == (3,)
        assert np.all(rule["loadings"] >= 0)

    # a = 2 with p = 2 and c = 0 both gave lambda = 0: unpenalized least
    # squares under the name of a Lasso.
    @pytest.mark.parametrize("a, c", [
        (2.0, 1.1), (1.0, 1.1), (0.0, 1.1), (-0.1, 1.1), (np.nan, 1.1),
        (0.05, 0.0), (0.05, -1.0), (0.05, np.inf), (0.05, np.nan),
    ])
    @pytest.mark.parametrize("heteroskedastic", [False, True])
    def test_level_and_constant_are_checked(self, a, c, heteroskedastic):
        r = np.random.default_rng(4)
        X, y = r.standard_normal((240, 2)), r.standard_normal(240)
        with pytest.raises(NonFinitePenalty, match="plug-in"):
            plugin_lambda(X, y, c=c, a=a, heteroskedastic=heteroskedastic)
        with pytest.raises(NonFinitePenalty, match="plug-in"):
            lasso_plugin(X, y, c=c, a=a)


class TestPostLasso:
    def test_full_active_set_equals_ols(self):
        X, y = _random_problem(5)
        fit = lasso_fit(X, y, lam=0.0)
        refit = post_lasso(X, y, fit)
        full = ols_fit(np.column_stack([np.ones(y.size), X]), y)
        assert refit.coefficients == pytest.approx(full.coefficients)

    def test_empty_active_set_predicts_mean(self):
        X, y = _random_problem(6)
        fit = lasso_fit(X, y, lam=1e9)
        refit = post_lasso(X, y, fit)
        assert refit.coefficients[0] == pytest.approx(float(np.mean(y)))

    def test_single_selection_univariate_slope(self):
        r = np.random.default_rng(7)
        x1 = r.standard_normal(50)
        x2 = r.standard_normal(50)
        y = 3.0 * x1 + 0.01 * r.standard_normal(50)
        X = np.column_stack([x1, x2])
        rule = plugin_lambda(X, y)
        fit = lasso_fit(X, y, lam=rule["lam"])
        assert list(fit.active_set) == [0]
        intercept, beta = post_lasso_coefficients(X, y, fit)
        direct = ols_fit(np.column_stack([np.ones(50), x1]), y)
        assert beta[0] == pytest.approx(direct.coefficients[1])
        assert beta[1] == 0.0

    def test_plugin_wrapper_records_sigma(self):
        X, y = _random_problem(8)
        fit = lasso_plugin(X, y)
        assert fit.sigma_hat is not None and fit.sigma_hat > 0


class TestRidgeAndElasticNet:
    def test_ridge_zero_penalty_is_ols(self):
        X, y = _random_problem(9)
        fit = ridge_fit(X, y, lam=0.0)
        ols = ols_fit(np.column_stack([np.ones(y.size), X]), y)
        assert fit.coefficients == pytest.approx(ols.coefficients[1:],
                                                 abs=1e-8)

    def test_ridge_scalar_closed_form(self):
        # Standardized regressor, Sum x^2 = n = 4, Sum x*y = 10, lam = 4.
        fit = ridge_fit(SCALAR_X4, SCALAR_Y4, lam=4.0)
        assert fit.coefficients[0] == pytest.approx(1.25)

    def test_ridge_huge_penalty_shrinks_to_zero(self):
        X, y = _random_problem(10)
        fit = ridge_fit(X, y, lam=1e12)
        assert np.max(np.abs(fit.coefficients)) < 1e-6

    def test_elastic_net_scalar_kkt(self):
        # Sum x^2 = 4, Sum x*y = 10, ridge 4, lasso 4 -> (10-2)/(4+4) = 1.
        fit = elastic_net_fit(SCALAR_X4, SCALAR_Y4, lam_ridge=4.0,
                              lam_lasso=4.0)
        assert fit.coefficients[0] == pytest.approx(1.0, abs=1e-7)

    def test_elastic_net_limits(self):
        X, y = _random_problem(12)
        as_lasso = elastic_net_fit(X, y, lam_ridge=0.0, lam_lasso=2.0)
        plain = lasso_fit(X, y, lam=2.0, loadings=np.ones(X.shape[1]))
        assert as_lasso.coefficients == pytest.approx(plain.coefficients,
                                                      abs=1e-7)
        as_ridge = elastic_net_fit(X, y, lam_ridge=2.0, lam_lasso=0.0)
        ridge = lasso_fit(X, y, lam=0.0, lam_ridge=2.0)
        assert as_ridge.coefficients == pytest.approx(ridge.coefficients,
                                                      abs=1e-7)


class TestCvFit:
    def test_single_grid_point_selected(self):
        X, y = _random_problem(13)
        plan = make_folds(y.size, 3, seed=0)
        report = cv_fit("lasso", X, y, [1.5], plan)
        assert report.selected_parameter == 1.5
        assert report.fold_mses.shape == (1, 3)

    def test_duplicated_grid_breaks_tie_to_first(self):
        X, y = _random_problem(14)
        plan = make_folds(y.size, 3, seed=0)
        report = cv_fit("lasso", X, y, [2.0, 2.0], plan)
        assert report.selected_index == 0

    def test_cv_mse_is_mean_of_fold_mses(self):
        X, y = _random_problem(15)
        plan = make_folds(y.size, 4, seed=1)
        report = cv_fit("ridge", X, y, [0.0, 1.0, 10.0], plan)
        assert report.cv_mse == pytest.approx(report.fold_mses.mean(axis=1))

    def test_strong_signal_prefers_small_ridge_penalty(self):
        r = np.random.default_rng(16)
        X = r.standard_normal((60, 2))
        y = X @ np.array([3.0, -2.0]) + 0.1 * r.standard_normal(60)
        plan = make_folds(60, 5, seed=2)
        report = cv_fit("ridge", X, y, [0.0, 1e6], plan)
        assert report.selected_index == 0

    def test_fold_too_small(self):
        X, y = _random_problem(17)
        plan = make_folds(4, 4, seed=0)
        with pytest.raises(FoldTooSmall):
            cv_fit("lasso", X[:4], y[:4], [1.0], plan)

    def test_empty_grid_rejected(self):
        X, y = _random_problem(18)
        plan = make_folds(y.size, 3, seed=0)
        with pytest.raises(DimensionMismatch):
            cv_fit("lasso", X, y, [], plan)


class TestSparseRecovery:
    def test_plugin_lasso_is_sparse_and_predictive(self):
        # Decaying-coefficient design, p >> n: plug-in Lasso should select
        # a handful of regressors and predict nearly as well as an oracle
        # OLS on the two dominant coefficients.
        from dmlkit.cli.dgps import simulate_once

        shortfalls = []
        for rep in range(20):
            record = simulate_once("example_3_1_1", "plugin_lasso", 300,
                                   master_seed=101, rep=rep)
            assert record["active_count"] <= 25
            shortfalls.append(record["oracle_r2"] - record["oos_r2"])
        # Both R^2 values are noisy estimates on a finite evaluation
        # sample, so the 0.05 proximity claim is checked in aggregate.
        assert np.median(shortfalls) <= 0.05
        assert max(shortfalls) <= 0.10


def _kkt_gap_loop(Xc, yc, beta, lam, lam_ridge, loadings):
    """Coordinate-by-coordinate form the vectorised gap must reproduce."""
    r = yc - Xc @ beta
    grad = 2.0 * (Xc.T @ r) - 2.0 * lam_ridge * beta
    gap = 0.0
    for j in range(beta.size):
        bound = lam * loadings[j]
        if beta[j] != 0.0:
            gap = max(gap, abs(abs(grad[j]) - bound))
            gap = max(gap, abs(grad[j] - np.sign(beta[j]) * bound))
        else:
            gap = max(gap, max(abs(grad[j]) - bound, 0.0))
    return gap


class TestKktGap:
    @given(st.integers(0, 10_000))
    def test_matches_coordinate_loop(self, seed):
        from dmlkit.penalized import _kkt_gap

        r = np.random.default_rng(seed)
        n, p = int(r.integers(5, 40)), int(r.integers(1, 30))
        Xc = r.standard_normal((n, p))
        yc = r.standard_normal(n)
        beta = r.standard_normal(p) * (r.uniform(size=p) < 0.5)
        loadings = r.uniform(0.0, 2.0, p) * (r.uniform(size=p) < 0.9)
        lam = float(r.choice([0.0, 0.1, 10.0, 1e3]))
        lam_ridge = float(r.choice([0.0, 0.5]))
        assert _kkt_gap(Xc, yc, beta, lam, lam_ridge, loadings) == \
            _kkt_gap_loop(Xc, yc, beta, lam, lam_ridge, loadings)

    def test_certified_fit_matches_loop(self):
        from dmlkit.penalized import _kkt_gap

        X, y = _random_problem(3)
        fit = lasso_fit(X, y, lam=5.0)
        Xs = (X - X.mean(axis=0)) / X.std(axis=0)
        args = (Xs, y - y.mean(), fit._standardized_coefficients, 5.0, 0.0,
                np.ones(X.shape[1]))
        assert _kkt_gap(*args) == _kkt_gap_loop(*args)


def test_objective_increase_raises_no_convergence(monkeypatch):
    import dmlkit.penalized as penalized
    from dmlkit.errors import NoConvergence

    class _WrongWaySoftThreshold:
        """numpy, except that soft-thresholding steps to the wrong sign."""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def sign(v):
            return -np.sign(v)

    X, y = _random_problem(4)
    monkeypatch.setattr(penalized, "np", _WrongWaySoftThreshold())
    with pytest.raises(NoConvergence, match="objective increased"):
        penalized._coordinate_descent(X - X.mean(axis=0), y - y.mean(), 1.0,
                                      0.0, np.ones(X.shape[1]))


def test_rounding_constant_column_is_degenerate():
    # Six 0.1s centre to 1.39e-17, not to zero: the column must still be
    # found constant, get loading zero and vanish from the design.
    from dmlkit.penalized import _standardize

    r = np.random.default_rng(3)
    x, y = r.standard_normal(6), r.standard_normal(6)
    X = np.column_stack([x, np.full(6, 0.1)])
    assert np.any(X[:, 1] - X[:, 1].mean() != 0.0)
    fit = lasso_fit(X, y, lam=0.01)
    assert fit.degenerate_columns == [1]
    assert fit.loadings[1] == 0.0 and fit.coefficients[1] == 0.0
    Xs, _, _, _, scale = _standardize(X, y)
    assert scale[1] == 0.0 and not np.any(Xs[:, 1])
    alone = lasso_fit(x, y, lam=0.01).coefficients[0]
    assert fit.coefficients[0] == pytest.approx(alone, rel=1e-12)


@pytest.mark.parametrize("value", [0.1, 0.3, 0.7, 1.1, 3.3, -2.7, 1e200,
                                   1e-100])
def test_every_constant_column_is_found(value):
    # _standardize runs the exact test only on columns whose scale is
    # rounding dust of their mean; every constant column must be one, and
    # a column one ulp from constant must not.
    from dmlkit.penalized import _standardize

    for n in range(1, 200):
        X = np.column_stack([np.full(n, value),
                             np.append(np.full(n - 1, value),
                                       np.nextafter(value, np.inf))])
        with np.errstate(over="ignore"):  # 1e200 squares to inf
            scale = _standardize(X, np.zeros(n))[4]
        assert scale[0] == 0.0
        assert (scale[1] > 0.0) == (n > 1 and X[0, 1] != X[-1, 1])

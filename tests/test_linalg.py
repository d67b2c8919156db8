import numpy as np
import pytest
from hypothesis import given, strategies as st

from dmlkit import linalg
from dmlkit.double_lasso import double_selection
from dmlkit.errors import (DegreesOfFreedom, DimensionMismatch, LeverageOne,
                           RankDeficient)
from dmlkit.linalg import (ols_fit, partial_out, predictive_metrics,
                           robust_variance)


def _random_problem(seed, n_max=40, p_max=5):
    r = np.random.default_rng(seed)
    n = int(r.integers(8, n_max + 1))
    p = int(r.integers(1, p_max + 1))
    X = r.standard_normal((n, p))
    y = r.standard_normal(n)
    return X, y


class TestOlsFit:
    def test_intercept_only_is_mean(self):
        fit = ols_fit(np.ones((3, 1)), [1.0, 2.0, 3.0])
        assert fit.coefficients == pytest.approx([2.0])

    def test_two_column_closed_form(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        y = np.array([1.0, 2.0, 4.0])
        fit = ols_fit(X, y)
        # (X'X)^-1 X'y worked out by hand.
        assert fit.coefficients == pytest.approx([5.0 / 6.0, 1.5])

    def test_perfect_fit(self):
        X = np.column_stack([np.ones(4), np.arange(4.0)])
        y = X @ np.array([1.0, 2.0])
        fit = ols_fit(X, y)
        assert np.allclose(fit.residuals, 0.0, atol=1e-12)
        assert fit.r2_sample == pytest.approx(1.0)

    def test_collinear_design_rejected(self):
        X = np.column_stack([np.ones(5), np.ones(5)])
        with pytest.raises(RankDeficient):
            ols_fit(X, np.arange(5.0))

    def test_minimum_norm_opt_in(self):
        X = np.column_stack([np.ones(5), np.ones(5)])
        fit = ols_fit(X, np.full(5, 3.0), minimum_norm=True)
        assert fit.fitted == pytest.approx(np.full(5, 3.0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ols_fit(np.ones((3, 1)), np.ones(4))

    def test_uniform_weights_match_unweighted(self):
        X, y = _random_problem(0)
        plain = ols_fit(X, y)
        weighted = ols_fit(X, y, weights=np.full(y.size, 2.0))
        assert weighted.coefficients == pytest.approx(plain.coefficients)

    def test_weighted_solves_weighted_normal_equations(self):
        X, y = _random_problem(1)
        w = np.random.default_rng(1).uniform(0.5, 2.0, size=y.size)
        fit = ols_fit(X, y, weights=w)
        score = X.T @ (w * fit.residuals)
        assert np.max(np.abs(score)) < 1e-8 * y.size

    @given(st.integers(0, 10_000))
    def test_normal_equation_orthogonality(self, seed):
        X, y = _random_problem(seed)
        fit = ols_fit(X, y)
        assert np.max(np.abs(X.T @ fit.residuals / y.size)) <= 1e-8

    @given(st.integers(0, 10_000))
    def test_anova_identity_with_intercept(self, seed):
        X, y = _random_problem(seed)
        X = np.column_stack([np.ones(y.size), X])
        fit = ols_fit(X, y)
        total = np.mean(y**2)
        parts = np.mean(fit.fitted**2) + np.mean(fit.residuals**2)
        assert total == pytest.approx(parts, abs=1e-8)


class TestRobustVariance:
    def _unit_residual_fit(self):
        # Intercept only, n = 2, residuals (1, -1).
        return ols_fit(np.ones((2, 1)), np.array([1.0, -1.0]))

    def test_hc0_hand_sandwich(self):
        v = robust_variance(self._unit_residual_fit(), kind="HC0")
        assert v.std_errors[0] ** 2 == pytest.approx(0.5)

    def test_hc1_scale_relation(self):
        fit = self._unit_residual_fit()
        hc0 = robust_variance(fit, kind="HC0")
        hc1 = robust_variance(fit, kind="HC1")
        assert hc1.matrix[0, 0] == pytest.approx(2.0 * hc0.matrix[0, 0])

    def test_hc3_leverage_weights(self):
        # Leverage 1/2 each, so each squared residual gets weight 4.
        v = robust_variance(self._unit_residual_fit(), kind="HC3")
        assert v.std_errors[0] ** 2 == pytest.approx(2.0)

    def test_hc3_rejects_leverage_one(self):
        X = np.column_stack([np.ones(3), [1.0, 0.0, 0.0]])
        fit = ols_fit(X, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(LeverageOne):
            robust_variance(fit, kind="HC3")

    def test_hc1_needs_degrees_of_freedom(self):
        fit = ols_fit(np.eye(2), np.array([1.0, 2.0]))
        with pytest.raises(DegreesOfFreedom):
            robust_variance(fit, kind="HC1")

    @given(st.integers(0, 10_000))
    def test_hc1_is_hc0_times_dof_ratio(self, seed):
        X, y = _random_problem(seed)
        fit = ols_fit(X, y)
        hc0 = robust_variance(fit, kind="HC0")
        hc1 = robust_variance(fit, kind="HC1")
        ratio = y.size / (y.size - X.shape[1])
        assert np.allclose(hc1.matrix, ratio * hc0.matrix, rtol=1e-10)

    @given(st.integers(0, 10_000))
    def test_hc3_dominates_hc0_diagonal(self, seed):
        X, y = _random_problem(seed)
        fit = ols_fit(X, y)
        hc0 = robust_variance(fit, kind="HC0")
        hc3 = robust_variance(fit, kind="HC3")
        assert np.all(np.diag(hc3.matrix) >= np.diag(hc0.matrix) - 1e-12)

    @given(st.integers(0, 10_000))
    def test_symmetric_psd(self, seed):
        X, y = _random_problem(seed)
        fit = ols_fit(X, y)
        for kind in ("HC0", "HC1", "HC3"):
            V = robust_variance(fit, kind=kind).matrix
            assert np.allclose(V, V.T)
            assert np.min(np.linalg.eigvalsh(V)) >= -1e-10


class TestPartialOut:
    def test_ones_column_demeans(self):
        v = np.array([1.0, 2.0, 6.0])
        out = partial_out(v, np.ones((3, 1)))
        assert out == pytest.approx(v - 3.0)

    def test_orthogonal_input_unchanged(self):
        W = np.array([[1.0], [1.0], [1.0], [1.0]])
        v = np.array([1.0, -1.0, 1.0, -1.0])
        assert partial_out(v, W) == pytest.approx(v)

    def test_fwl_on_hand_dataset(self):
        W = np.ones((3, 1))
        d = np.array([0.0, 1.0, 2.0])
        y = np.array([1.0, 2.0, 4.0])
        ry = partial_out(y, W)
        rd = partial_out(d, W)
        slope = float(rd @ ry / (rd @ rd))
        joint = ols_fit(np.column_stack([np.ones(3), d]), y)
        assert slope == pytest.approx(joint.coefficients[1])

    @given(st.integers(0, 10_000))
    def test_fwl_equivalence_random(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(10, 51))
        p = int(r.integers(1, 5))
        W = np.column_stack([np.ones(n), r.standard_normal((n, p - 1))]) \
            if p > 1 else np.ones((n, 1))
        d = r.standard_normal(n)
        y = r.standard_normal(n)
        ry = partial_out(y, W)
        rd = partial_out(d, W)
        slope = float(rd @ ry / (rd @ rd))
        joint = ols_fit(np.column_stack([d, W]), y)
        assert slope == pytest.approx(joint.coefficients[0], abs=1e-8)

    @given(st.integers(0, 10_000))
    def test_residuals_orthogonal_to_controls(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(10, 41))
        W = r.standard_normal((n, 3))
        out = partial_out(r.standard_normal(n), W)
        assert np.max(np.abs(W.T @ out / n)) < 1e-8


    @pytest.mark.parametrize("weighted", [False, True])
    def test_one_factorization_matches_per_column_fits(self, weighted):
        r = np.random.default_rng(17)
        n = 50
        W = np.column_stack([np.ones(n), r.standard_normal((n, 4))])
        V = r.standard_normal((n, 3)) * [1.0, 1e3, 1e-3]
        w = r.uniform(0.1, 5.0, n) if weighted else None
        got = partial_out(V, W, weights=w)
        for j in range(V.shape[1]):
            want = ols_fit(W, V[:, j], weights=w).residuals
            assert (np.max(np.abs(got[:, j] - want))
                    <= 1e-12 * np.max(np.abs(want)))
        assert np.array_equal(partial_out(V[:, 1], W, weights=w), got[:, 1])

    def test_rank_deficient_controls_raise(self):
        r = np.random.default_rng(5)
        x = r.standard_normal(20)
        W = np.column_stack([np.ones(20), x, 2.0 * x])
        with pytest.raises(RankDeficient, match="numerical rank 2 < 3"):
            partial_out(r.standard_normal((20, 2)), W)
        with pytest.raises(RankDeficient):
            partial_out(x, W, weights=np.full(20, 0.5))

    def test_double_selection_factors_its_controls_once(self, monkeypatch):
        calls = []
        original = linalg._factor

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(linalg, "_factor", counting)
        r = np.random.default_rng(9)
        W = r.standard_normal((80, 6))
        d = W[:, 0] + r.standard_normal(80)
        y = d + W[:, 1] + r.standard_normal(80)
        res = double_selection(y, d, W)
        assert len(calls) == 1
        controls = calls[0]  # the constant and the selected controls
        assert controls.shape[1] >= 3
        joint = ols_fit(np.column_stack([d, controls]), y)
        assert res.estimate == pytest.approx(joint.coefficients[0], rel=1e-10)


class TestPredictiveMetrics:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        m = predictive_metrics(y, y, p=1)
        assert m["mse_test"] == pytest.approx(0.0)
        assert m["r2_test"] == pytest.approx(1.0)

    def test_adjustment_factor(self):
        y_true = np.array([1.0, -1.0, 1.0, -1.0])
        m = predictive_metrics(y_true, np.zeros(4), p=2)
        assert m["mse_test"] == pytest.approx(1.0)
        assert m["mse_adjusted"] == pytest.approx(2.0)

    def test_p_equals_n_rejected(self):
        y = np.array([1.0, 2.0])
        with pytest.raises(DegreesOfFreedom):
            predictive_metrics(y, y, p=2)

    def test_r2_uses_uncentered_denominator(self):
        y_true = np.array([2.0, 2.0, 2.0])
        m = predictive_metrics(y_true, np.zeros(3), p=1)
        assert m["r2_test"] == pytest.approx(0.0)

    def test_centered_variant_uses_train_mean(self):
        y_true = np.array([1.0, 3.0])
        m = predictive_metrics(y_true, np.full(2, 2.0), p=1, center=True,
                               train_mean=2.0)
        assert m["r2_test"] == pytest.approx(0.0)


class TestWeightedSandwich:
    def test_matches_explicit_wls_sandwich(self):
        # (X'WX)^{-1} X'W^2 diag(e^2) X (X'WX)^{-1} for non-constant w.
        r = np.random.default_rng(12)
        n = 300
        X = np.column_stack([np.ones(n), r.uniform(-1.0, 1.0, (n, 2))])
        w = r.uniform(0.05, 2.0, n)
        y = X @ np.array([1.0, 2.0, -1.0]) + (1.0 + X[:, 1] ** 2) * \
            r.standard_normal(n)
        fit = ols_fit(X, y, weights=w)
        bread = np.linalg.inv(X.T @ (X * w[:, None]))
        meat = X.T @ (X * (w**2 * fit.residuals**2)[:, None])
        expected = bread @ meat @ bread
        got = robust_variance(fit, kind="HC0").matrix
        assert np.allclose(got, expected, rtol=1e-10, atol=0.0)


def _reference_leverage(X, w, full_rank):
    """The hat-matrix diagonal by the explicit formulas: a solve against
    X'WX for a full-rank design, the pseudo-inverse of Xw'Xw otherwise."""
    if full_rank:
        G = np.linalg.solve(X.T @ (X * w[:, None]), (X * w[:, None]).T).T
        return np.sum(X * G, axis=1)
    Xw = X * np.sqrt(w)[:, None]
    return np.sum((Xw @ np.linalg.pinv(Xw.T @ Xw)) * Xw, axis=1)


def _leverage_case(seed, case):
    r = np.random.default_rng(seed)
    n = int(r.integers(10, 60))
    p = int(r.integers(1, 6))
    X = np.column_stack([np.ones(n), r.standard_normal((n, p))])
    w = np.ones(n)
    if case == "weighted":
        w = r.uniform(0.1, 3.0, n)
        w[r.choice(n, size=3, replace=False)] = 0.0
    elif case == "rank_deficient":
        # A scaled copy, a sum of two columns and an all-zero column.
        X = np.column_stack([X, 2.0 * X[:, -1], X[:, 0] + X[:, -1],
                             np.zeros(n)])
    return X, r.standard_normal(n), w


@pytest.mark.parametrize("case", ["full_rank", "weighted", "rank_deficient"])
@given(seed=st.integers(0, 10_000))
def test_leverage_is_the_hat_matrix_diagonal(case, seed):
    X, y, w = _leverage_case(seed, case)
    full_rank = case != "rank_deficient"
    fit = ols_fit(X, y, weights=w, minimum_norm=not full_rank)
    assert (fit.rank == X.shape[1]) == full_rank
    expected = _reference_leverage(X, w, full_rank)
    assert np.max(np.abs(fit.leverage - expected)) <= 1e-12

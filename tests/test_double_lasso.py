import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from dmlkit.double_lasso import (desparsified_lasso, double_lasso,
                                 double_selection, many_targets,
                                 naive_single_selection,
                                 simultaneous_critical_value)
from dmlkit.errors import (DimensionMismatch, RankDeficient,
                           WeakResidualVariation)
from dmlkit.linalg import ols_fit, robust_variance


def _confounded_data(seed, n=60, p=4):
    r = np.random.default_rng(seed)
    W = r.standard_normal((n, p))
    gamma = r.standard_normal(p) / 2.0
    d = W @ gamma + r.standard_normal(n)
    y = 1.0 * d + W @ gamma + r.standard_normal(n)
    return y, d, W


class TestDoubleLasso:
    def test_no_controls_is_demeaned_slope(self):
        r = np.random.default_rng(0)
        d = r.standard_normal(30)
        y = 2.0 * d + r.standard_normal(30)
        res = double_lasso(y, d, None)
        rd = d - d.mean()
        ry = y - y.mean()
        assert res.estimate == pytest.approx(float(rd @ ry / (rd @ rd)))

    @given(st.integers(0, 10_000))
    def test_zero_penalty_adaptivity(self, seed):
        # With lam = 0 all three high-dimensional procedures collapse to
        # the OLS coefficient of d in the full regression.
        y, d, W = _confounded_data(seed)
        design = np.column_stack([np.ones(y.size), d, W])
        target = ols_fit(design, y).coefficients[1]
        for proc in (double_lasso, double_selection, desparsified_lasso):
            res = proc(y, d, W, lam_rule="zero")
            assert res.estimate == pytest.approx(target, abs=1e-8)

    def test_orthogonal_controls_select_nothing(self):
        r = np.random.default_rng(5)
        d = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        y = np.array([1.0, -2.0, 2.0, -1.0, 1.5, -1.5])
        W = np.column_stack([np.tile([1.0, 1.0, -1.0, -1.0], 3)[:6]])
        W = W - W.mean(axis=0)
        res = double_lasso(y, d, np.column_stack([W, r.standard_normal(6)]))
        rd = d - d.mean()
        ry = y - y.mean()
        # Lasso keeps nothing useful, so the estimate is within numerical
        # reach of the demeaned slope.
        assert res.estimate == pytest.approx(float(rd @ ry / (rd @ rd)),
                                             abs=0.2)

    def test_constant_target_rejected(self):
        y = np.arange(10.0)
        with pytest.raises(WeakResidualVariation):
            double_lasso(y, np.ones(10), None)

    def test_se_matches_sandwich_formula(self):
        y, d, W = _confounded_data(7)
        res = double_lasso(y, d, W)
        ry = res.residual_outcome
        rd = res.residual_targets[:, 0]
        eps = ry - res.estimate * rd
        denom = np.mean(rd**2)
        V = np.mean(rd**2 * eps**2) / denom**2
        assert res.std_error == pytest.approx(np.sqrt(V / y.size))

    def test_cv_rule_runs(self):
        y, d, W = _confounded_data(8)
        res = double_lasso(y, d, W, lam_rule="cv")
        assert np.isfinite(res.estimate)
        assert res.ci_lower[0] < res.estimate < res.ci_upper[0]


class TestSimultaneousCriticalValue:
    def test_scalar_is_normal_quantile(self):
        c = simultaneous_critical_value(np.eye(1), alpha=0.05)
        assert c == pytest.approx(stats.norm.ppf(0.975))

    def test_two_independent_targets(self):
        # P(max of two independent |N(0,1)| <= c) = (2 Phi(c) - 1)^2.
        c = simultaneous_critical_value(np.eye(2), alpha=0.05, seed=3)
        exact = stats.norm.ppf((1.0 + np.sqrt(0.95)) / 2.0)
        assert c == pytest.approx(exact, abs=0.02)
        assert exact == pytest.approx(2.2365, abs=1e-3)

    def test_perfect_correlation_collapses_to_pointwise(self):
        corr = np.ones((2, 2))
        c = simultaneous_critical_value(corr, alpha=0.05, seed=4)
        assert c == pytest.approx(stats.norm.ppf(0.975), abs=0.02)

    def test_deterministic_in_seed(self):
        corr = np.array([[1.0, 0.3], [0.3, 1.0]])
        a = simultaneous_critical_value(corr, alpha=0.05, seed=9)
        b = simultaneous_critical_value(corr, alpha=0.05, seed=9)
        assert a == b

    @pytest.mark.parametrize("p", [2, 4, 20, 38])
    def test_blocks_match_one_product_over_all_draws(self, p):
        # The draws are reduced in blocks; the value must equal, bit for
        # bit, the sup-norm quantile of one (draws, p) product. 20003
        # draws leave a short last block.
        from dmlkit.rng import stream
        A = np.random.default_rng(p).standard_normal((p, p + 3))
        cov = A @ A.T
        sd = np.sqrt(np.diag(cov))
        corr = cov / sd[:, None] / sd[None, :]
        vals, vecs = np.linalg.eigh(corr)
        root = vecs * np.sqrt(np.clip(vals, 0.0, None))
        for draws in (20003, 100_000):
            z = stream(5, "simultaneous-band").standard_normal((draws, p))
            sup = np.max(np.abs(z @ root.T), axis=1)
            expected = float(np.quantile(sup, 0.95))
            assert simultaneous_critical_value(
                corr, alpha=0.05, seed=5, draws=draws) == expected


class TestManyTargets:
    def test_band_contains_pointwise_ci(self):
        r = np.random.default_rng(11)
        n = 80
        D = r.standard_normal((n, 3))
        W = r.standard_normal((n, 5))
        y = D @ np.array([1.0, 0.0, -1.0]) + r.standard_normal(n)
        res = many_targets(y, D, W)
        assert np.all(res.band_lower <= res.ci_lower + 1e-12)
        assert np.all(res.band_upper >= res.ci_upper - 1e-12)
        assert res.critical_value >= stats.norm.ppf(0.975) - 1e-9

    def test_joint_variance_symmetric_psd(self):
        r = np.random.default_rng(12)
        n = 60
        D = r.standard_normal((n, 4))
        y = r.standard_normal(n)
        res = many_targets(y, D, None)
        V = res.joint_variance
        assert np.allclose(V, V.T)
        assert np.min(np.linalg.eigvalsh(V)) >= -1e-10

    def test_single_target_matches_double_lasso(self):
        y, d, W = _confounded_data(13)
        joint = many_targets(y, d[:, None], W)
        single = double_lasso(y, d, W)
        assert joint.estimates[0] == pytest.approx(single.estimate)
        assert joint.critical_value == pytest.approx(stats.norm.ppf(0.975))

    @settings(max_examples=5)
    @given(st.integers(0, 200))
    def test_null_targets_covered(self, seed):
        r = np.random.default_rng(seed)
        n = 120
        D = r.standard_normal((n, 6))
        y = r.standard_normal(n)  # every target coefficient is zero
        res = many_targets(y, D, None, seed=seed)
        inside = np.mean((res.band_lower <= 0.0) & (0.0 <= res.band_upper))
        assert inside >= 0.5  # loose per-draw sanity; level checked in MC


class TestDoubleSelection:
    def test_no_selection_is_bivariate_ols(self):
        r = np.random.default_rng(14)
        n = 50
        d = r.standard_normal(n)
        y = 1.0 + 0.5 * d + r.standard_normal(n)
        W = r.standard_normal((n, 3)) * 1e-8  # nothing selectable
        res = double_selection(y, d, W)
        direct = ols_fit(np.column_stack([np.ones(n), d]), y)
        assert res.estimate == pytest.approx(direct.coefficients[1])

    def test_disjoint_selections_union_design(self):
        r = np.random.default_rng(15)
        n = 200
        w1 = r.standard_normal(n)
        w2 = r.standard_normal(n)
        noise = r.standard_normal((n, 2)) * 1e-6
        d = 3.0 * w2 + 0.05 * r.standard_normal(n)
        y = d + 3.0 * w1 + 0.05 * r.standard_normal(n)
        W = np.column_stack([w1, w2, noise])
        res = double_selection(y, d, W)
        direct = ols_fit(np.column_stack([np.ones(n), d, w1, w2]), y)
        assert res.estimate == pytest.approx(direct.coefficients[1])
        v = robust_variance(direct, "HC0")
        assert res.std_error == pytest.approx(v.std_errors[1])


class TestDesparsified:
    def test_no_controls_ratio(self):
        r = np.random.default_rng(16)
        d = r.standard_normal(40)
        y = 2.0 * d + r.standard_normal(40)
        res = desparsified_lasso(y, d, None)
        assert np.isfinite(res.estimate)

    def test_constant_target_rejected(self):
        with pytest.raises(WeakResidualVariation):
            desparsified_lasso(np.arange(12.0), np.zeros(12), None)


class TestNaiveSelection:
    def test_carries_warning(self):
        y, d, W = _confounded_data(17)
        res = naive_single_selection(y, d, W)
        assert res.warning is not None
        assert "orthogonal" in res.warning

    def test_no_controls_is_ols_slope(self):
        r = np.random.default_rng(18)
        d = r.standard_normal(30)
        y = 1.5 * d + r.standard_normal(30)
        res = naive_single_selection(y, d, np.empty((30, 0)))
        direct = ols_fit(np.column_stack([np.ones(30), d]), y)
        assert res.estimate == pytest.approx(direct.coefficients[1])

    def test_strong_confounder_of_d_only_is_omitted(self):
        # A control that predicts d strongly but y only through d: naive
        # selection on the y-equation omits it and inherits bias.
        n = 400
        reps_naive, reps_double = [], []
        for rep in range(30):
            rr = np.random.default_rng(1000 + rep)
            w = rr.standard_normal(n)
            d = w + 0.7 * rr.standard_normal(n)
            # w's direct effect on y sits below the plug-in detection
            # threshold (~0.12 at this n), so the y-equation Lasso drops
            # it while the d-equation Lasso keeps it.
            y = 0.0 * d + 0.1 * w + rr.standard_normal(n)
            W = w[:, None]
            reps_naive.append(naive_single_selection(y, d, W).estimate)
            reps_double.append(double_lasso(y, d, W).estimate)
        # Population algebra: the omitted confounder pushes the naive
        # slope toward 0.1 * cov(w, d) / var(d) = 0.1/1.49 ~ 0.067.
        assert abs(np.median(reps_double)) < 0.04
        assert np.median(reps_naive) > 0.04


class TestMonteCarlo:
    def test_naive_bias_dominates_double_lasso(self):
        # Confounded p = n design: the naive median bias is more than
        # twice the orthogonal one (checked at acceptance scale too).
        from dmlkit.cli.dgps import simulate_once

        naive, double = [], []
        for rep in range(40):
            naive.append(simulate_once("example_4_3_1", "naive", 100, 7,
                                       rep)["error"])
            double.append(simulate_once("example_4_3_1", "double_lasso",
                                        100, 7, rep)["error"])
        assert abs(np.median(naive)) > 2.0 * abs(np.median(double))


SINGLE_TARGET = [double_lasso, double_selection, desparsified_lasso,
                 naive_single_selection]


@pytest.mark.parametrize("procedure", SINGLE_TARGET + [many_targets])
def test_short_target_is_a_dimension_mismatch(procedure):
    y, d, W = _confounded_data(0, n=30)
    with pytest.raises(DimensionMismatch, match="y and d"):
        procedure(y, d[:-1], W)


@pytest.mark.parametrize("procedure", SINGLE_TARGET + [many_targets])
def test_short_controls_are_a_dimension_mismatch(procedure):
    y, d, W = _confounded_data(0, n=30)
    with pytest.raises(DimensionMismatch):
        procedure(y, d, W[:-1])


@pytest.mark.parametrize("procedure",
                         [double_lasso, desparsified_lasso, many_targets])
def test_all_zero_target_is_weak_variation(procedure):
    y, _, W = _confounded_data(0, n=30)
    with pytest.raises(WeakResidualVariation):
        procedure(y, np.zeros(30), W)


@pytest.mark.parametrize("procedure", SINGLE_TARGET + [many_targets])
def test_two_rows_are_a_dimension_mismatch(procedure):
    # With n = 2 and one control the residuals leave no variation, and
    # the SE would come out at rounding level (a zero-width interval).
    y, d, W = _confounded_data(0, n=2, p=1)
    with pytest.raises(DimensionMismatch, match="n > 2"):
        procedure(y, d, W)


def test_target_collinear_with_a_kept_control_is_weak_variation():
    # The refit partials d out of the kept controls; a control that is
    # an affine copy of d, which the d-equation Lasso keeps, leaves d no
    # residual variation.
    y, d, W = _confounded_data(3, n=60, p=3)
    with pytest.raises(WeakResidualVariation):
        double_selection(y, d, np.column_stack([2.0 * d + 1.0, W]))


@pytest.fixture
def cv_fold_plans(monkeypatch):
    """The fold assignments that CV Lasso fits draw, in call order."""
    import dmlkit.learners

    plans = []
    make_folds = dmlkit.learners.make_folds

    def recording(n, K, seed):
        plan = make_folds(n, K, seed)
        plans.append(tuple(plan.assignment))
        return plan

    monkeypatch.setattr(dmlkit.learners, "make_folds", recording)
    return plans


def test_cv_fold_plans_follow_the_seed(cv_fold_plans):
    # The outcome and the target of one target share a fold plan; the
    # plan changes with the seed and from target to target.
    y, d, W = _confounded_data(8)
    runs = []
    for seed in (1, 2):
        cv_fold_plans.clear()
        double_lasso(y, d, W, lam_rule="cv", seed=seed)
        runs.append(list(cv_fold_plans))
    assert len(runs[0]) == 2 and runs[0][0] == runs[0][1]
    assert runs[0] != runs[1]
    cv_fold_plans.clear()
    many_targets(y, np.column_stack([d, W[:, 0]]), W[:, 1:], lam_rule="cv",
                 seed=1)
    first, _, second, _ = cv_fold_plans
    assert cv_fold_plans == [first, first, second, second]
    assert first != second


def test_selection_of_n_or_more_controls_is_rank_deficient():
    # With no penalty the Lasso keeps all 30 controls of a 20-row draw;
    # their least-squares refit has no residual left to take, so the
    # fit fails rather than fall back to the unadjusted slope.
    y, d, W = _confounded_data(0, n=20, p=30)
    with pytest.raises(RankDeficient):
        double_lasso(y, d, W, lam_rule="zero")

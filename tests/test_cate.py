import numpy as np
import pytest
from hypothesis import given, strategies as st

from dmlkit.cate import (blp_cate, calibration, compare_models, dr_loss,
                         dr_score, dr_signal, ensemble,
                         heterogeneity_blp_test, meta_learn,
                         optimal_policy_value, policy_learn, policy_value,
                         three_way_split, toc_qini)
from dmlkit.dml import dml_irm_ate, dml_plm
from dmlkit.errors import (ConstantModel, DimensionMismatch, EmptyBin,
                           IndistinguishableModels, WeightsNotSupported)
from dmlkit.learners import (FunctionLearner, LassoPluginLearner,
                             LinearLearner, LogisticLearner, MeanLearner,
                             ZeroLearner, make_folds, no_crossfit_plan)

HALF = FunctionLearner(lambda X: np.full(X.shape[0], 0.5))

IRM_Y = np.array([1.0, 0.0, 2.0, 1.0])
IRM_D = np.array([1.0, 0.0, 1.0, 0.0])


class TestDrSignal:
    def test_known_nuisances(self):
        sig = dr_signal(IRM_Y, IRM_D, np.zeros((4, 1)), ZeroLearner(), HALF,
                        no_crossfit_plan(4))
        assert sig.values == pytest.approx([2.0, 0.0, 4.0, -2.0])
        assert sig.ate == pytest.approx(1.0)

    def test_mean_matches_irm_ate(self):
        r = np.random.default_rng(0)
        n = 120
        X = r.standard_normal((n, 2))
        d = (r.uniform(size=n) < 0.5).astype(float)
        y = d * (1.0 + X[:, 0]) + r.standard_normal(n)
        plan = make_folds(n, 4, seed=1)
        sig = dr_signal(y, d, X, MeanLearner(), LogisticLearner(), plan)
        ate = dml_irm_ate(y, d, X, MeanLearner(), LogisticLearner(), plan)
        assert sig.ate == pytest.approx(ate.theta)


class TestThreeWaySplit:
    def test_partitions(self):
        train, score, test = three_way_split(100, seed=3)
        joined = np.concatenate([train, score, test])
        assert np.array_equal(np.sort(joined), np.arange(100))
        assert train.size == 60 and score.size == 20 and test.size == 20

    def test_deterministic(self):
        a = three_way_split(50, seed=4)
        b = three_way_split(50, seed=4)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            three_way_split(10, seed=0, fractions=(0.5, 0.5, 0.5))


class TestScoring:
    def test_hand_loss(self):
        out = dr_score(np.array([2.0, 2.0]), np.array([1.0, 3.0]))
        assert out["loss"] == pytest.approx(1.0)
        # The constant model is its own baseline, so the score is zero.
        assert out["score"] == pytest.approx(0.0)

    def test_better_model_scores_positive(self):
        signals = np.array([0.0, 0.0, 2.0, 2.0])
        out = dr_score(np.array([0.0, 0.0, 2.0, 2.0]), signals)
        assert out["score"] == pytest.approx(1.0)

    def test_compare_hand_values(self):
        out = compare_models(np.zeros(2), np.full(2, 2.0),
                             np.array([0.0, 2.0]))
        assert out["delta"] == pytest.approx(0.0)
        assert out["variance"] == pytest.approx(16.0)

    def test_compare_antisymmetric(self):
        r = np.random.default_rng(5)
        s = r.standard_normal(40)
        ti = r.standard_normal(40)
        tj = r.standard_normal(40)
        ab = compare_models(ti, tj, s)
        ba = compare_models(tj, ti, s)
        assert ab["delta"] == pytest.approx(-ba["delta"])
        assert ab["se"] == pytest.approx(ba["se"])

    def test_identical_models_rejected(self):
        s = np.array([0.0, 1.0, 2.0])
        with pytest.raises(IndistinguishableModels):
            compare_models(np.ones(3), np.ones(3), s)


class TestEnsemble:
    def test_single_model(self):
        s = np.array([1.0, 2.0, 3.0])
        for method in ("best", "convex", "qagg"):
            out = ensemble(s * 0.9, s, method=method)
            assert out["weights"] == pytest.approx([1.0])

    def test_duplicated_model_uniform(self):
        s = np.array([1.0, -1.0, 2.0])
        P = np.column_stack([s * 0.5, s * 0.5])
        out = ensemble(P, s, method="qagg")
        assert out["weights"] == pytest.approx([0.5, 0.5])

    def test_hand_quadratic(self):
        # Constant models 0 and 2 against signals (0, 2): the penalized
        # objective is 4w^2 - 4w + 4 in the weight on either model, so
        # the minimizer is the even split.
        s = np.array([0.0, 2.0])
        P = np.column_stack([np.zeros(2), np.full(2, 2.0)])
        out = ensemble(P, s, method="qagg")
        assert out["weights"] == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_best_breaks_ties_to_first(self):
        s = np.array([0.0, 2.0])
        P = np.column_stack([np.zeros(2), np.full(2, 2.0)])
        out = ensemble(P, s, method="best")
        assert out["weights"] == pytest.approx([1.0, 0.0])

    @given(st.integers(0, 10_000))
    def test_weights_on_simplex(self, seed):
        r = np.random.default_rng(seed)
        P = r.standard_normal((30, 4))
        s = r.standard_normal(30)
        for method in ("convex", "qagg"):
            w = ensemble(P, s, method=method)["weights"]
            assert np.all(w >= -1e-8)
            assert np.sum(w) == pytest.approx(1.0, abs=1e-8)

    def test_convex_no_worse_than_best_single(self):
        r = np.random.default_rng(6)
        P = r.standard_normal((50, 3))
        s = r.standard_normal(50)
        out = ensemble(P, s, method="convex")
        assert dr_loss(out["combined"], s) <= np.min(out["losses"]) + 1e-6

    def test_fixed_intercept_recenters(self):
        r = np.random.default_rng(7)
        P = r.standard_normal((20, 2))
        s = r.standard_normal(20)
        out = ensemble(P, s, method="convex", fix_intercept_to=3.0)
        assert np.mean(out["combined"]) == pytest.approx(3.0)


class TestBlp:
    def test_hand_slope(self):
        signals = np.array([0.0, 1.0, 2.0, 3.0])
        tau = np.array([0.0, 0.0, 1.0, 1.0])
        out = heterogeneity_blp_test(tau, signals)
        assert out["slope"] == pytest.approx(2.0)
        assert out["intercept"] == pytest.approx(1.5)

    def test_self_regression_unit_slope(self):
        r = np.random.default_rng(8)
        tau = r.standard_normal(50)
        out = heterogeneity_blp_test(tau, tau)
        assert out["slope"] == pytest.approx(1.0)
        assert out["reject"]

    def test_constant_model_rejected(self):
        with pytest.raises(ConstantModel):
            heterogeneity_blp_test(np.ones(10), np.arange(10.0))

    def test_group_indicator_basis_gives_group_means(self):
        signals = np.array([2.0, 0.0, 4.0, -2.0])
        basis = np.column_stack([[1.0, 0.0, 1.0, 0.0],
                                 [0.0, 1.0, 0.0, 1.0]])
        out = blp_cate(signals, basis)
        assert out.coefficients == pytest.approx([3.0, -1.0])

    def test_uniform_band_contains_pointwise(self):
        r = np.random.default_rng(9)
        x = r.standard_normal(80)
        signals = 1.0 + 0.5 * x + r.standard_normal(80)
        basis = np.column_stack([np.ones(80), x])
        grid = np.column_stack([np.ones(11), np.linspace(-2, 2, 11)])
        out = blp_cate(signals, basis, eval_basis=grid, seed=2)
        assert np.all(out.grid_uniform[0] <= out.grid_pointwise[0] + 1e-12)
        assert np.all(out.grid_uniform[1] >= out.grid_pointwise[1] - 1e-12)
        assert out.uniform_critical_value >= 1.959


class TestCalibration:
    def test_two_bin_hand_values(self):
        rep = calibration(np.array([0.0, 0.0, 1.0, 1.0]),
                          np.array([0.0, 0.0, 2.0, 2.0]),
                          np.array([0.0, 0.0, 1.0, 1.0]), K=2)
        assert rep.dr_means == pytest.approx([0.0, 2.0])
        assert rep.model_means == pytest.approx([0.0, 1.0])
        assert rep.cal1 == pytest.approx(0.5)
        assert rep.cal2 == pytest.approx(0.5)

    def test_single_bin_is_ate_gap(self):
        tau = np.array([1.0, 2.0, 3.0])
        s = np.array([0.0, 0.0, 3.0])
        rep = calibration(tau, s, tau, K=1)
        assert rep.cal1 == pytest.approx(abs(np.mean(s) - np.mean(tau)))

    def test_perfectly_calibrated_model(self):
        tau = np.array([0.0, 0.0, 2.0, 2.0])
        rep = calibration(tau, tau, tau, K=2)
        assert rep.cal1 == 0.0 and rep.cal2 == 0.0

    def test_empty_bin_raises(self):
        with pytest.raises(EmptyBin):
            calibration(np.zeros(4), np.zeros(4),
                        np.array([0.0, 0.0, 1.0, 1.0]), K=2)
        with pytest.raises(EmptyBin):
            calibration(np.zeros(4), np.zeros(4), np.zeros(4), K=0)

    def test_squared_error_decomposition(self):
        # Exhaustive enumeration: the population gap between the model
        # and the true effect splits exactly into the squared per-bin
        # calibration error plus the within-bin distortion.
        r = np.random.default_rng(10)
        tau0 = r.integers(0, 5, size=200).astype(float)  # true effects
        tau_star = tau0 + r.normal(0.0, 1.0, size=200).round(1)
        K = 4
        rep = calibration(tau_star, tau0, tau_star, K=K)
        edges = rep.bin_edges
        assignment = np.searchsorted(edges, tau_star, side="right")
        dis = 0.0
        for k in range(K):
            mask = assignment == k
            centered = (tau_star[mask] - np.mean(tau_star[mask])) \
                - (tau0[mask] - np.mean(tau0[mask]))
            dis += np.mean(mask) * np.mean(centered**2)
        total = float(np.mean((tau_star - tau0) ** 2))
        assert total == pytest.approx(rep.cal2 + dis, abs=1e-10)


UP_SIGNALS = np.array([4.0, 2.0, 0.0, -2.0])
UP_MODEL = np.array([4.0, 3.0, 2.0, 1.0])


class TestUpliftCurves:
    def test_hand_values_at_half(self):
        grid = np.array([0.5, 1.0])
        curves = toc_qini(UP_MODEL, UP_SIGNALS, UP_MODEL, grid=grid)
        assert curves.toc[0] == pytest.approx(2.0)
        assert curves.qini[0] == pytest.approx(1.0)

    def test_zero_at_full_coverage(self):
        curves = toc_qini(UP_MODEL, UP_SIGNALS, UP_MODEL)
        assert curves.toc[-1] == 0.0
        assert curves.qini[-1] == 0.0

    def test_covariance_identities(self):
        r = np.random.default_rng(11)
        s = r.standard_normal(200)
        tau = r.standard_normal(200)
        curves = toc_qini(tau, s, tau)
        theta = np.mean(s)
        for ell, q in enumerate(curves.grid):
            ind = (tau > curves.thresholds[ell]).astype(float) \
                + curves.tie_lambdas[ell] * (tau == curves.thresholds[ell])
            gate_top = float(s @ ind / np.sum(ind))
            assert curves.toc[ell] == pytest.approx(gate_top - theta,
                                                    abs=1e-10)
            assert curves.qini[ell] == pytest.approx(
                curves.toc[ell] * curves.shares[ell], abs=1e-10)

    def test_constant_model_flat_curves(self):
        s = np.array([3.0, -1.0, 2.0, 0.0])
        tau = np.full(4, 1.0)
        curves = toc_qini(tau, s, tau)
        assert curves.toc == pytest.approx(np.zeros(curves.grid.size),
                                           abs=1e-12)
        assert curves.autoc == pytest.approx(0.0, abs=1e-12)

    def test_area_is_forward_difference_sum(self):
        curves = toc_qini(UP_MODEL, UP_SIGNALS, UP_MODEL,
                          grid=np.array([0.25, 0.5, 1.0]))
        dq = np.array([0.25, 0.5, 0.0])
        assert curves.autoc == pytest.approx(float(curves.toc @ dq))

    def test_empty_top_group_falls_back_to_the_highest_test_rows(self):
        # The non-test top quarter sits above every test prediction: that
        # point treats the test rows tied at 4.0, the rest are unchanged.
        ref = np.array([1.0, 2.0, 3.0, 9.0])
        model = np.array([4.0, 4.0, 2.0, 1.0])
        grid = np.array([0.25, 0.5, 1.0])
        curves = toc_qini(model, UP_SIGNALS, ref, grid=grid)
        assert curves.adjusted.tolist() == [True, False, False]
        assert curves.thresholds[0] == 4.0 and curves.tie_lambdas[0] == 1.0
        assert curves.shares.tolist() == [0.5, 0.5, 1.0]
        assert curves.toc[0] == curves.toc[1] == pytest.approx(2.0)

    def test_csv_layout(self, tmp_path):
        curves = toc_qini(UP_MODEL, UP_SIGNALS, UP_MODEL,
                          grid=np.array([0.5, 1.0]))
        path = tmp_path / "curves.csv"
        curves.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "q,toc,toc_lo,toc_hi,qini,qini_lo,qini_hi"
        assert len(lines) == 3


class TestPolicy:
    def test_trivial_policies(self):
        assert policy_value(np.zeros(4), UP_SIGNALS).theta == 0.0
        assert policy_value(np.ones(4), UP_SIGNALS).theta == pytest.approx(
            np.mean(UP_SIGNALS))

    def test_top_half_value(self):
        pi = np.array([1.0, 1.0, 0.0, 0.0])
        assert policy_value(pi, UP_SIGNALS).theta == pytest.approx(1.5)

    def test_policy_bounds_checked(self):
        from dmlkit.errors import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            policy_value(np.array([0.5, 1.5]), np.zeros(2))

    def test_optimal_all_negative_treats_no_one(self):
        out = optimal_policy_value(UP_SIGNALS, np.full(4, -1.0))
        assert out.theta == 0.0
        assert out.diagnostics["treated_share"] == 0.0

    def test_optimal_all_positive_is_ate(self):
        out = optimal_policy_value(UP_SIGNALS, np.full(4, 1.0))
        assert out.theta == pytest.approx(np.mean(UP_SIGNALS))

    def test_budget_matches_subset_oracle(self):
        r = np.random.default_rng(12)
        s = r.standard_normal(8)
        tau = s.copy()  # perfect model: top-q by tau = top-q by signal
        out = optimal_policy_value(s, tau, q=0.25)
        best_two = np.sort(s)[-2:]
        assert out.theta == pytest.approx(np.sum(best_two) / 8.0)

    def test_learned_split_at_half(self):
        X = np.array([0.0, 1.0, 2.0, 3.0])[:, None] / 3.0
        signals = np.array([-1.0, -1.0, 1.0, 1.0])
        out = policy_learn(signals, X, max_depth=1, min_leaf=1)
        assert out["policy"].assign(X) == pytest.approx([0.0, 0.0, 1.0, 1.0])
        assert out["in_sample_value"] == pytest.approx(0.5)

    def test_all_positive_signals_treat_everyone(self):
        X = np.arange(6.0)[:, None]
        out = policy_learn(np.ones(6), X, max_depth=1, min_leaf=1)
        assert out["policy"].assign(X) == pytest.approx(np.ones(6))


class TestMetaLearners:
    def _rct(self, seed=13, n=200):
        r = np.random.default_rng(seed)
        Z = r.standard_normal((n, 1))
        d = np.tile([1.0, 0.0], n // 2)
        y = 1.0 + 2.0 * d + 3.0 * Z[:, 0] + 0.0 * r.standard_normal(n)
        return y, d, Z

    def test_s_learner_exact_on_linear_truth(self):
        y, d, Z = self._rct()
        model = meta_learn("S", y, d, Z, LinearLearner(), HALF,
                           MeanLearner(), no_crossfit_plan(y.size))
        assert model.predict(Z) == pytest.approx(np.full(y.size, 2.0))

    def test_t_learner_cell_means(self):
        y = IRM_Y
        d = IRM_D
        Z = np.zeros((4, 1))
        model = meta_learn("T", y, d, Z, MeanLearner(), HALF, MeanLearner(),
                           no_crossfit_plan(4))
        expect = np.mean(y[d == 1]) - np.mean(y[d == 0])
        assert model.predict(Z) == pytest.approx(np.full(4, expect))

    def test_x_learner_matches_t_at_balanced_propensity(self):
        y = IRM_Y
        d = IRM_D
        Z = np.zeros((4, 1))
        t_model = meta_learn("T", y, d, Z, MeanLearner(), HALF, MeanLearner(),
                             no_crossfit_plan(4))
        x_model = meta_learn("X", y, d, Z, MeanLearner(), HALF, MeanLearner(),
                             no_crossfit_plan(4))
        assert x_model.predict(Z) == pytest.approx(t_model.predict(Z))

    def test_dr_learner_constant_fit_is_ate(self):
        model = meta_learn("DR", IRM_Y, IRM_D, np.zeros((4, 1)),
                           ZeroLearner(), HALF, MeanLearner(),
                           no_crossfit_plan(4))
        assert model.predict(np.zeros((4, 1))) == pytest.approx(np.ones(4))

    def test_r_learner_constant_fit_is_plm(self):
        r = np.random.default_rng(14)
        n = 150
        Z = r.standard_normal((n, 2))
        d = (r.uniform(size=n) < 0.5).astype(float)
        y = 1.5 * d + Z[:, 0] + r.standard_normal(n)
        plan = make_folds(n, 3, seed=15)
        model = meta_learn("R", y, d, Z, MeanLearner(), MeanLearner(),
                           MeanLearner(), plan)
        plm = dml_plm(y, d, Z, MeanLearner(), MeanLearner(), plan)
        assert model.predict(Z[:1]) == pytest.approx([plm.theta])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            meta_learn("Q", IRM_Y, IRM_D, None, MeanLearner(), HALF,
                       MeanLearner(), no_crossfit_plan(4))

    def test_one_arm_empty(self):
        from dmlkit.errors import OneArmEmpty
        with pytest.raises(OneArmEmpty):
            meta_learn("T", IRM_Y, np.ones(4), None, MeanLearner(), HALF,
                       MeanLearner(), no_crossfit_plan(4))


class _PredictCounter:
    """Wraps a learner; its fitted models count their predict calls."""

    def __init__(self, learner):
        self.learner = learner
        self.calls = 0

    def fit(self, X, y, weights=None):
        fitted = self.learner.fit(X, y, weights=weights)
        counter = self

        class _Counted:
            def predict(self, X):
                counter.calls += 1
                return fitted.predict(X)

        return _Counted()


class _LabelRecorder:
    """Final-stage learner that keeps the labels it was fit to."""

    def fit(self, X, y, weights=None):
        self.labels = np.asarray(y, dtype=float)
        return MeanLearner().fit(X, y)


def _tree_rct(n=120, seed=21):
    r = np.random.default_rng(seed)
    Z = r.standard_normal((n, 2))
    d = (r.uniform(size=n) < 0.5).astype(float)
    y = d * (1.0 + Z[:, 0]) + Z[:, 1] + r.standard_normal(n)
    return y, d, Z


def test_s_learner_predicts_each_fold_twice():
    # Two predict passes per fold (own arm, other arm), and the labels
    # are still g(1, Z) - g(0, Z) bit for bit.
    from dmlkit.learners import TreeLearner, cross_fit_predict

    y, d, Z = _tree_rct()
    plan = make_folds(y.size, 4, seed=22)
    learner = TreeLearner(max_depth=3, min_leaf=5)
    counting = _PredictCounter(learner)
    recorder = _LabelRecorder()
    meta_learn("S", y, d, Z, counting, HALF, recorder, plan)
    assert counting.calls == 2 * plan.K
    _, fits = cross_fit_predict(learner, np.column_stack([d, Z]), y, plan)
    expect = np.empty(y.size)
    for k, g in enumerate(fits):
        test = plan.fold_indices(k)
        one = np.column_stack([np.ones(test.size), Z[test]])
        zero = np.column_stack([np.zeros(test.size), Z[test]])
        expect[test] = g.predict(one) - g.predict(zero)
    np.testing.assert_array_equal(recorder.labels, expect)


class _FitCounter:
    """A mean learner that counts its fits."""

    fits = 0

    def fit(self, X, y, weights=None):
        self.fits += 1
        return MeanLearner().fit(X, y, weights=weights)


@pytest.mark.parametrize("kind", ["R", "dax"])
def test_weighted_meta_learner_rejects_lasso_before_any_fit(kind):
    y, d, Z = _tree_rct()
    counter = _FitCounter()
    with pytest.raises(WeightsNotSupported, match="weights"):
        meta_learn(kind, y, d, Z, counter, counter, LassoPluginLearner(),
                   make_folds(y.size, 2, seed=1))
    assert counter.fits == 0


@pytest.mark.parametrize("kind", ["X", "DAX"])
def test_x_learners_report_trim_count(kind):
    low = FunctionLearner(lambda X: np.full(X.shape[0], 0.001))
    model = meta_learn(kind, IRM_Y, IRM_D, np.zeros((4, 1)), MeanLearner(),
                       low, MeanLearner(), no_crossfit_plan(4), trim=0.01)
    assert model.metadata["trim_count"] == 4


def test_calibration_merges_tied_cut_points():
    # Every cut point ties with the smallest non-test prediction, so the
    # five bins collapse into one.
    nontest = np.array([1.0] * 9 + [3.0])
    tau = np.array([1.0, 1.0, 2.0, 3.0])
    rep = calibration(tau, np.array([0.0, 2.0, 2.0, 4.0]), nontest, K=5)
    assert rep.counts.tolist() == [4]
    assert rep.dr_means == pytest.approx([2.0])
    # Cut points 0, 1, 1, 1: the three tied ones merge into one edge.
    nontest = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 2.0])
    rep = calibration(np.array([0.0, 1.0, 1.5, 2.0]), np.zeros(4), nontest,
                      K=4)
    assert rep.bin_edges.tolist() == [1.0]
    assert rep.counts.tolist() == [1, 3]


def test_blp_eval_basis_must_match_the_basis_columns():
    r = np.random.default_rng(3)
    B = np.column_stack([np.ones(50), r.standard_normal(50)])
    with pytest.raises(DimensionMismatch, match="3 columns"):
        blp_cate(r.standard_normal(50), B, eval_basis=np.ones((3, 3)))


def _scaled_cate_draw():
    r = np.random.default_rng(11)
    tau = r.standard_normal(200)
    signals = 0.8 * tau + r.standard_normal(200)
    return tau, tau + 0.5 * r.standard_normal(200), signals


@pytest.mark.parametrize("s", [1e-7, 1e7])
def test_compare_models_does_not_depend_on_units(s):
    ti, tj, signals = _scaled_cate_draw()
    base = compare_models(ti, tj, signals)
    out = compare_models(s * ti, s * tj, s * signals)
    assert out["delta"] == pytest.approx(s * s * base["delta"], rel=1e-9)
    assert out["se"] == pytest.approx(s * s * base["se"], rel=1e-9)
    with pytest.raises(IndistinguishableModels):
        compare_models(s * ti, s * ti, s * signals)
    with pytest.raises(IndistinguishableModels):
        compare_models(np.zeros(200), np.zeros(200), signals)


@pytest.mark.parametrize("s", [1e-7, 1e7])
def test_heterogeneity_test_does_not_depend_on_units(s):
    tau, _, signals = _scaled_cate_draw()
    base = heterogeneity_blp_test(tau, signals)
    out = heterogeneity_blp_test(s * tau, signals)
    assert out["slope"] == pytest.approx(base["slope"] / s, rel=1e-9)
    assert out["intercept"] == pytest.approx(base["intercept"], rel=1e-9)
    assert out["p_value"] == pytest.approx(base["p_value"], rel=1e-6)
    for constant in (np.full(200, s), np.full(200, 0.1 * s), np.zeros(200)):
        with pytest.raises(ConstantModel):
            heterogeneity_blp_test(constant, signals)

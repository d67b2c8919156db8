import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dmlkit.errors import (BadFoldCount, DimensionMismatch, FoldTooSmall,
                           OneArmEmpty, Separation)
from dmlkit.learners import (BoostLearner, CrossFitPlan, ForestLearner,
                             LassoPluginLearner, LinearLearner,
                             LogisticLearner, MeanLearner, TreeLearner,
                             ZeroLearner, boost_fit, cross_fit_predict,
                             cross_fit_residuals, forest_fit, learner_select,
                             logistic_fit, make_folds, no_crossfit_plan,
                             perm_importance, tree_fit)
from dmlkit import learners
from dmlkit.learners import _presort, _rank_keys, _resample_sort


class _Memorizer:
    """Learner that memorizes training rows and answers with the label of
    the nearest one; the canonical overfitter."""

    def fit(self, X, y, weights=None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)

        class P:
            def predict(self, Xn):
                Xn = np.asarray(Xn, dtype=float)
                d2 = ((Xn[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
                return y[np.argmin(d2, axis=1)]

        return P()


class TestFolds:
    def test_even_split(self):
        plan = make_folds(10, 5, seed=0)
        sizes = sorted(plan.fold_indices(k).size for k in range(5))
        assert sizes == [2, 2, 2, 2, 2]

    def test_leave_one_out(self):
        plan = make_folds(6, 6, seed=1)
        assert all(plan.fold_indices(k).size == 1 for k in range(6))

    def test_pigeonhole_sizes(self):
        plan = make_folds(11, 5, seed=2)
        sizes = sorted(plan.fold_indices(k).size for k in range(5))
        assert sizes == [2, 2, 2, 2, 3]

    def test_partition_property(self):
        plan = make_folds(23, 4, seed=3)
        joined = np.sort(np.concatenate([plan.fold_indices(k)
                                         for k in range(4)]))
        assert np.array_equal(joined, np.arange(23))

    def test_bad_fold_counts(self):
        with pytest.raises(BadFoldCount):
            make_folds(10, 1, seed=0)
        with pytest.raises(BadFoldCount):
            make_folds(5, 6, seed=0)

    def test_deterministic_per_seed(self):
        a = make_folds(30, 5, seed=9)
        b = make_folds(30, 5, seed=9)
        c = make_folds(30, 5, seed=10)
        assert np.array_equal(a.assignment, b.assignment)
        assert not np.array_equal(a.assignment, c.assignment)

    def test_no_crossfit_plan_is_full_sample(self):
        plan = no_crossfit_plan(7)
        assert plan.K == 1
        assert np.array_equal(plan.complement_indices(0), np.arange(7))


class TestCrossFitPredict:
    def test_out_of_fold_means(self):
        plan = CrossFitPlan(n=4, K=2,
                            assignment=np.array([0, 0, 1, 1]), seed=0)
        y = np.array([1.0, 3.0, 5.0, 7.0])
        preds, _ = cross_fit_predict(MeanLearner(), np.zeros((4, 1)), y, plan)
        assert preds == pytest.approx([6.0, 6.0, 2.0, 2.0])

    def test_zero_learner(self):
        plan = make_folds(8, 2, seed=0)
        preds, _ = cross_fit_predict(ZeroLearner(), np.ones((8, 1)),
                                     np.arange(8.0), plan)
        assert preds == pytest.approx(np.zeros(8))

    def test_memorizer_overfits_in_fold_only(self):
        r = np.random.default_rng(4)
        X = r.standard_normal((40, 2))
        y = r.standard_normal(40)  # pure noise
        plan = make_folds(40, 2, seed=5)
        oof, predictors = cross_fit_predict(_Memorizer(), X, y, plan)
        oof_mse = np.mean((y - oof) ** 2)
        in_fold = predictors[0].predict(X[plan.complement_indices(0)])
        in_mse = np.mean((y[plan.complement_indices(0)] - in_fold) ** 2)
        assert in_mse == pytest.approx(0.0)
        assert oof_mse > 0.5

    def test_honest_contract_under_label_corruption(self):
        r = np.random.default_rng(6)
        X = r.standard_normal((20, 2))
        y = r.standard_normal(20)
        plan = make_folds(20, 4, seed=7)
        base, _ = cross_fit_predict(LinearLearner(), X, y, plan)
        fold0 = plan.fold_indices(0)
        y2 = y.copy()
        y2[fold0] += 100.0
        corrupted, _ = cross_fit_predict(LinearLearner(), X, y2, plan)
        # Fold-0 rows are predicted without fold-0 labels, so corrupting
        # those labels cannot move their own predictions.
        assert corrupted[fold0] == pytest.approx(base[fold0])
        others = np.setdiff1d(np.arange(20), fold0)
        assert not np.allclose(corrupted[others], base[others])


class TestTrees:
    def test_depth_zero_predicts_mean(self):
        tree = tree_fit(np.arange(4.0)[:, None], np.array([1.0, 2.0, 3.0, 6.0]),
                        max_depth=0)
        assert tree.predict(np.array([[10.0]]))[0] == pytest.approx(3.0)

    def test_single_split_enumeration(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])[:, None]
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = tree_fit(x, y, max_depth=1)
        assert tree.predict(x) == pytest.approx(y)
        assert tree.predict(np.array([[2.4]]))[0] == 0.0
        assert tree.predict(np.array([[2.6]]))[0] == 1.0

    def test_constant_outcome_single_leaf(self):
        tree = tree_fit(np.arange(5.0)[:, None], np.full(5, 2.0), max_depth=4)
        assert np.all(tree.predict(np.arange(5.0)[:, None]) == 2.0)

    @given(st.integers(0, 10_000))
    def test_training_rows_get_leaf_means(self, seed):
        r = np.random.default_rng(seed)
        X = r.standard_normal((30, 2))
        y = r.standard_normal(30)
        tree = tree_fit(X, y, max_depth=3, min_leaf=2)
        preds = tree.predict(X)
        for value in np.unique(preds):
            rows = preds == value
            assert np.mean(y[rows]) == pytest.approx(value, abs=1e-10)

    def test_deep_tree_interpolates_distinct_rows(self):
        r = np.random.default_rng(8)
        X = r.standard_normal((16, 1))
        y = r.standard_normal(16)
        tree = tree_fit(X, y, max_depth=16, min_leaf=1)
        assert tree.predict(X) == pytest.approx(y)


class TestForest:
    def test_single_full_tree_equals_tree_fit(self):
        r = np.random.default_rng(9)
        X = r.standard_normal((25, 3))
        y = r.standard_normal(25)
        forest = forest_fit(X, y, B=1, sample_mode="full", max_depth=4,
                            min_leaf=2, seed=0)
        tree = tree_fit(X, y, max_depth=4, min_leaf=2)
        assert forest.predict(X) == pytest.approx(tree.predict(X))

    def test_identical_resamples_average_to_one_tree(self):
        r = np.random.default_rng(10)
        X = r.standard_normal((20, 2))
        y = r.standard_normal(20)
        a = forest_fit(X, y, B=3, sample_mode="full", max_depth=3, seed=1)
        single = tree_fit(X, y, max_depth=3, min_leaf=5)
        assert a.predict(X) == pytest.approx(single.predict(X))

    @given(st.integers(0, 5_000))
    def test_prediction_within_outcome_range(self, seed):
        r = np.random.default_rng(seed)
        X = r.standard_normal((30, 2))
        y = r.standard_normal(30)
        forest = forest_fit(X, y, B=5, seed=seed)
        preds = forest.predict(r.standard_normal((10, 2)))
        assert np.all(preds >= y.min() - 1e-12)
        assert np.all(preds <= y.max() + 1e-12)

    def test_deterministic_per_seed(self):
        r = np.random.default_rng(11)
        X = r.standard_normal((40, 3))
        y = r.standard_normal(40)
        Xn = r.standard_normal((15, 3))
        a = ForestLearner(B=10, seed=21).fit(X, y).predict(Xn)
        b = ForestLearner(B=10, seed=21).fit(X, y).predict(Xn)
        assert np.array_equal(a, b)


class TestBoosting:
    def test_constant_base_geometric_recursion(self):
        y = np.array([1.0, 2.0, 3.0])  # mean 2
        pred = boost_fit(np.zeros((3, 1)), y, J=2, rate=0.5,
                         base=MeanLearner()).predict(np.zeros((1, 1)))
        assert pred[0] == pytest.approx(2.0 * (1.0 - 0.5**2))

    def test_full_rate_unrestricted_tree_fits_training_data(self):
        r = np.random.default_rng(12)
        X = r.standard_normal((12, 1))
        y = r.standard_normal(12)
        pred = boost_fit(X, y, J=1, rate=1.0,
                         base=TreeLearner(max_depth=12, min_leaf=1))
        assert pred.predict(X) == pytest.approx(y)

    def test_rate_outside_unit_interval_rejected(self):
        with pytest.raises(DimensionMismatch):
            boost_fit(np.zeros((4, 1)), np.arange(4.0), J=2, rate=0.0)

    def test_training_mse_non_increasing_in_rounds(self):
        r = np.random.default_rng(13)
        X = r.standard_normal((60, 2))
        y = X[:, 0] + 0.5 * r.standard_normal(60)
        mses = []
        for J in (1, 3, 10, 30):
            pred = boost_fit(X, y, J=J, rate=0.3).predict(X)
            mses.append(np.mean((y - pred) ** 2))
        assert all(b <= a + 1e-10 for a, b in zip(mses, mses[1:]))


class TestLogistic:
    def test_intercept_only_sample_proportion(self):
        pred = logistic_fit(np.zeros((4, 1)), np.array([1.0, 1.0, 1.0, 0.0]))
        probs = pred.predict_proba(np.zeros((2, 1)))
        assert probs == pytest.approx([0.75, 0.75], abs=1e-6)

    def test_balanced_no_covariates(self):
        pred = logistic_fit(np.zeros((4, 1)), np.array([1.0, 0.0, 1.0, 0.0]))
        assert pred.predict_proba(np.zeros((1, 1)))[0] == pytest.approx(0.5)

    def test_one_class_rejected(self):
        with pytest.raises(OneArmEmpty):
            logistic_fit(np.zeros((4, 1)), np.ones(4))

    def test_separation_raises_with_clipped_predictor(self):
        X = np.linspace(-1, 1, 20)[:, None]
        d = (X[:, 0] > 0).astype(float)
        with pytest.raises(Separation) as exc:
            logistic_fit(X, d, clip=0.01)
        probs = exc.value.predictor.predict_proba(X)
        assert np.all(probs >= 0.01) and np.all(probs <= 0.99)

    def test_learner_wrapper_swallows_separation(self):
        X = np.linspace(-1, 1, 20)[:, None]
        d = (X[:, 0] > 0).astype(float)
        pred = LogisticLearner().fit(X, d)
        probs = pred.predict_proba(X)
        assert np.all((probs >= 0.01) & (probs <= 0.99))

    def test_predict_rejects_a_design_of_another_width(self):
        r = np.random.default_rng(9)
        X = r.standard_normal((40, 3))
        d = (X[:, 0] + r.standard_normal(40) > 0).astype(float)
        pred = logistic_fit(X, d)
        assert pred.predict(X).shape == (40,)
        for Xq in (np.ones((4, 6)), np.ones((4, 1)), np.ones(4)):
            with pytest.raises(DimensionMismatch):
                pred.predict_proba(Xq)


class TestLearnerSelect:
    def test_single_candidate(self):
        plan = make_folds(10, 2, seed=0)
        out = learner_select([MeanLearner()], np.zeros((10, 1)),
                             np.arange(10.0), plan)
        assert out["best_index"] == 0

    def test_mean_beats_zero_on_shifted_outcome(self):
        plan = make_folds(20, 4, seed=1)
        y = np.full(20, 5.0) + 0.01 * np.random.default_rng(0).standard_normal(20)
        out = learner_select([ZeroLearner(), MeanLearner()],
                             np.zeros((20, 1)), y, plan)
        assert out["best_index"] == 1
        assert out["mspe"][1] < out["mspe"][0]

    def test_identical_candidates_tie_to_first(self):
        plan = make_folds(12, 3, seed=2)
        out = learner_select([MeanLearner(), MeanLearner()],
                             np.zeros((12, 1)), np.arange(12.0), plan)
        assert out["best_index"] == 0


class TestPermImportance:
    def test_ignored_feature_zero(self):
        r = np.random.default_rng(14)
        X = r.standard_normal((30, 2))
        y = X[:, 0].copy()
        model = LinearLearner().fit(X[:, :1], y)

        class OnlyFirst:
            def predict(self, Xn):
                return model.predict(np.asarray(Xn)[:, :1])

        imp = perm_importance(OnlyFirst(), X, y, reps=5, seed=0)
        assert imp[1] == 0.0
        assert imp[0] > 0.0

    def test_perfect_linear_model_importance_scale(self):
        # For y = x and the identity model, permuting x gives expected
        # MSE E[(x_perm - x)^2] = 2 Var(x) (up to finite-n factors).
        r = np.random.default_rng(15)
        x = r.standard_normal(500)
        X = x[:, None]

        class Identity:
            def predict(self, Xn):
                return np.asarray(Xn)[:, 0]

        imp = perm_importance(Identity(), X, x, reps=40, seed=1)
        assert imp[0] == pytest.approx(2.0 * np.var(x), rel=0.15)

    def test_exhaustive_oracle_at_n_4(self):
        import itertools

        x = np.array([0.0, 1.0, 2.0, 4.0])
        X = x[:, None]

        class Identity:
            def predict(self, Xn):
                return np.asarray(Xn)[:, 0]

        exact = np.mean([np.mean((x[list(p)] - x) ** 2)
                         for p in itertools.permutations(range(4))])
        imp = perm_importance(Identity(), X, x, reps=400, seed=2)
        assert imp[0] == pytest.approx(exact, rel=0.2)


class TestLassoPluginLearner:
    def test_predicts_sparse_signal(self):
        r = np.random.default_rng(16)
        X = r.standard_normal((80, 10))
        y = 2.0 * X[:, 0] + 0.1 * r.standard_normal(80)
        pred = LassoPluginLearner().fit(X, y)
        mse = np.mean((y - pred.predict(X)) ** 2)
        assert mse < 0.1


# Frozen per-feature split search and recursive grow that the presorted
# tree_fit must reproduce node for node: one argsort and one pair of
# cumsums per feature per node.
def _reference_best_split(Xn, yn, wn, features, min_leaf):
    best = None
    wy = wn * yn
    wy2 = wn * yn * yn
    total_w = wn.sum()
    total_wy = wy.sum()
    base_sse = wy2.sum() - total_wy**2 / total_w if total_w > 0 else 0.0
    for j in features:
        order = np.argsort(Xn[:, j], kind="stable")
        xs = Xn[order, j]
        boundaries = np.flatnonzero(xs[1:] > xs[:-1]) + 1
        if boundaries.size == 0:
            continue
        cw = np.cumsum(wn[order])
        cwy = np.cumsum(wy[order])
        counts = boundaries
        ok = (counts >= min_leaf) & (xs.size - counts >= min_leaf)
        if not np.any(ok):
            continue
        lw = cw[boundaries - 1]
        lwy = cwy[boundaries - 1]
        rw = total_w - lw
        rwy = total_wy - lwy
        with np.errstate(divide="ignore", invalid="ignore"):
            score = np.where(
                (lw > 0) & (rw > 0), lwy**2 / lw + rwy**2 / rw, -np.inf
            )
        score = np.where(ok, score, -np.inf)
        b = int(np.argmax(score))
        if not np.isfinite(score[b]):
            continue
        gain = float(score[b]) - (total_wy**2 / total_w)
        threshold = 0.5 * (xs[boundaries[b] - 1] + xs[boundaries[b]])
        if best is None or gain > best[2] + 1e-12:
            best = (j, float(threshold), gain)
    if best is None or best[2] <= 1e-12 * (1.0 + base_sse):
        return None
    return best


def _reference_tree(X, y, max_depth, min_leaf, weights=None, mtry=None,
                    rng=None):
    """Nodes as nested dicts; grown exactly as the per-feature search did."""
    n, p = X.shape
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)

    def grow(idx, depth):
        wn = w[idx]
        yn = y[idx]
        value = (float(np.sum(wn * yn) / np.sum(wn)) if np.sum(wn) > 0
                 else float(np.mean(yn)))
        node = {"feature": -1, "threshold": 0.0, "value": value}
        if depth >= max_depth or idx.size < 2 * min_leaf:
            return node
        if np.all(yn == yn[0]):
            return node
        if mtry is not None and mtry < p:
            features = np.sort(rng.choice(p, size=mtry, replace=False))
        else:
            features = np.arange(p)
        split = _reference_best_split(X[idx], yn, wn, features, min_leaf)
        if split is None:
            return node
        j, threshold, _ = split
        mask = X[idx, j] <= threshold
        node.update(feature=j, threshold=threshold,
                    left=grow(idx[mask], depth + 1),
                    right=grow(idx[~mask], depth + 1))
        return node

    return grow(np.arange(n), 0)


def _reference_nodes(node):
    """(feature, threshold, value) in depth-first, left-first order."""
    out = [(node["feature"], node["threshold"], node["value"])]
    if node["feature"] >= 0:
        out += _reference_nodes(node["left"]) + _reference_nodes(node["right"])
    return out


def _reference_predict(node, X):
    out = np.empty(X.shape[0])
    for i, row in enumerate(X):
        at = node
        while at["feature"] >= 0:
            side = "left" if row[at["feature"]] <= at["threshold"] else "right"
            at = at[side]
        out[i] = at["value"]
    return out


def _split_search_case(name):
    r = np.random.default_rng(7)
    n, p = 120, 4
    X = r.standard_normal((n, p))
    y = X[:, 0] + np.sin(2.0 * X[:, 1]) + 0.5 * r.standard_normal(n)
    kw = {"max_depth": 6, "min_leaf": 1}
    if name == "ties":
        # Outcomes and weights span six decades, so adding up a group of
        # tied rows in another order moves the splits of this draw.
        r = np.random.default_rng(52)
        X = np.round(r.standard_normal((n, p)), 1)
        y = (np.round(X[:, 0] + 0.5 * r.standard_normal(n), 1)
             * 10 ** r.uniform(-3, 3, n))
        kw["weights"] = 10 ** r.uniform(-3, 3, n)
    elif name == "bootstrap":
        rows = r.integers(0, n, size=n)
        X, y = X[rows], y[rows]
    elif name == "zero_weights":
        w = r.uniform(size=n)
        w[r.uniform(size=n) < 0.4] = 0.0
        w[X[:, 0] > 1.0] = 0.0  # whole branches without weight
        kw["weights"] = w
    elif name == "mtry":
        kw.update(mtry=2, rng=np.random.default_rng(5), min_leaf=3)
        rows = r.integers(0, n, size=n)
        X, y = np.round(X[rows], 1), y[rows]
    elif name == "min_leaf":
        kw.update(max_depth=8, min_leaf=7)
    elif name == "constant":
        X[:, 2] = 3.0
        y[X[:, 0] > 0.5] = 1.25
    elif name == "constant_y":
        y = np.full(n, -0.75)
    elif name == "tall":
        # More cells than one scoring block, so blocks must tie-break in
        # feature order.
        n, p = 30_000, 5
        X = np.round(r.standard_normal((n, p)), 2)
        X[:, 3] = X[:, 1]  # equal gains across blocks
        y = X[:, 1] + r.standard_normal(n)
        kw["max_depth"] = 2
    return X, y, kw


class TestPresortedSplitSearch:
    @pytest.mark.parametrize("case", ["ties", "bootstrap", "zero_weights",
                                      "mtry", "min_leaf", "constant",
                                      "constant_y", "tall"])
    def test_matches_per_feature_search(self, case):
        X, y, kw = _split_search_case(case)
        ref_kw = dict(kw)
        if "rng" in ref_kw:
            ref_kw["rng"] = np.random.default_rng(5)
        ref = _reference_tree(X, y, **ref_kw)
        tree = tree_fit(X, y, **kw)
        assert list(zip(tree.feature.tolist(), tree.threshold.tolist(),
                        tree.value.tolist())) == _reference_nodes(ref)
        r = np.random.default_rng(1)
        fresh = np.round(r.standard_normal((200, X.shape[1])), 1)
        Xq = np.vstack([X[:500], fresh])
        assert np.array_equal(tree.predict(Xq), _reference_predict(ref, Xq))


class _Recorder:
    """Mean learner that keeps the labels it was trained on."""

    def fit(self, X, y, weights=None):
        seen = np.asarray(y, dtype=float).copy()

        class P:
            labels = seen

            def predict(self, Xn):
                return np.full(np.asarray(Xn).shape[0], seen.mean())

        return P()


class TestCrossFitRows:
    # Labels are the row ids, so each model reveals its training rows.
    y = np.arange(12.0)
    X = np.zeros((12, 1))
    rows = np.arange(12) % 4 != 0

    def test_folds_train_on_marked_rows_outside_the_fold(self):
        plan = CrossFitPlan(n=12, K=3, assignment=np.arange(12) % 3, seed=0)
        preds, predictors = cross_fit_predict(_Recorder(), self.X, self.y,
                                              plan, rows=self.rows)
        for k, predictor in enumerate(predictors):
            expected = np.flatnonzero(self.rows & (plan.assignment != k))
            assert np.array_equal(predictor.labels, expected)
            fold = plan.fold_indices(k)
            assert np.array_equal(preds[fold],
                                  np.full(fold.size, expected.mean()))

    def test_no_crossfit_plan_trains_in_sample(self):
        preds, predictors = cross_fit_predict(
            _Recorder(), self.X, self.y, no_crossfit_plan(12),
            rows=self.rows)
        assert np.array_equal(predictors[0].labels,
                              np.flatnonzero(self.rows))
        assert np.array_equal(preds, np.full(12, self.y[self.rows].mean()))

    def test_fold_without_marked_training_rows(self):
        plan = CrossFitPlan(n=12, K=3, assignment=np.arange(12) % 3, seed=0)
        with pytest.raises(FoldTooSmall):
            cross_fit_predict(_Recorder(), self.X, self.y, plan,
                              rows=plan.assignment == 1)


class TestMidpointRounding:
    def test_adjacent_values_split_at_the_lower_one(self):
        # Between adjacent floats a and b the midpoint can round to b;
        # splitting at it would send every row left.
        a = next(v for v in np.linspace(1.0, 2.0, 1000)
                 if 0.5 * (v + np.nextafter(v, 3.0)) == np.nextafter(v, 3.0))
        b = np.nextafter(a, 3.0)
        X = np.array([[a], [a], [b], [b]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tree = tree_fit(X, y, max_depth=3)
            preds = tree.predict(np.array([[a], [b], [b + 1.0]]))
        assert tree.feature[0] == 0 and tree.threshold[0] == a
        goes_left = X[:, 0] <= tree.threshold[0]
        assert goes_left.sum() == 2 and (~goes_left).sum() == 2
        assert not np.any(np.isnan(tree.value))
        assert preds.tolist() == [0.0, 1.0, 1.0]


def test_boost_learner_matches_boost_fit():
    r = np.random.default_rng(21)
    X = r.standard_normal((50, 3))
    y = X[:, 0] + r.standard_normal(50)
    w = r.uniform(0.5, 2.0, size=50)
    learner = BoostLearner(J=7, rate=0.3)
    got = learner.fit(X, y, weights=w).predict(X)
    want = boost_fit(X, y, J=7, rate=0.3, weights=w).predict(X)
    assert np.array_equal(got, want)


# The root order a tree starts from may come from a caller (a boosted
# fit's one presort, a forest's rank table) and unit weights skip the
# weight channel; every tree must stay the one tree_fit grows from X
# alone.
def _nodes(tree):
    return [getattr(tree, f).tolist()
            for f in ("feature", "threshold", "left", "right", "value")]


def _tied_draw(n=300, p=4, seed=31):
    # Outcomes and weights span six decades, so summing tied rows in
    # another order moves splits (as in _split_search_case's "ties").
    r = np.random.default_rng(seed)
    X = np.round(r.standard_normal((n, p)), 1)
    y = (np.round(X[:, 0] - X[:, 1] ** 2 + r.standard_normal(n), 1)
         * 10 ** r.uniform(-3, 3, n))
    return X, y, 10 ** r.uniform(-3, 3, n)


def _recording_tree_fit(monkeypatch):
    """Replace the module's tree_fit with a wrapper that records each
    call's (X, y, keyword arguments, tree)."""
    calls = []
    original = learners.tree_fit

    def recording(X, y, **kw):
        tree = original(X, y, **kw)
        calls.append((X, y, kw, tree))
        return tree

    monkeypatch.setattr(learners, "tree_fit", recording)
    return calls


def test_boost_and_forest_count_one_tree_fit_per_tree(monkeypatch):
    X, y, _ = _tied_draw(n=80)
    calls = _recording_tree_fit(monkeypatch)
    boost_fit(X, y, J=7)
    assert len(calls) == 7
    calls.clear()
    forest_fit(X, y, B=4, max_depth=3)
    assert len(calls) == 4


@pytest.mark.parametrize("case", ["ties", "bootstrap", "zero_weights",
                                  "mtry", "min_leaf", "constant",
                                  "constant_y", "tall"])
def test_unit_weights_match_explicit_ones(case):
    X, y, kw = _split_search_case(case)
    kw.pop("weights", None)
    trees = []
    for weights in (None, np.ones(y.size)):
        if "rng" in kw:
            kw["rng"] = np.random.default_rng(5)
        trees.append(_nodes(tree_fit(X, y, weights=weights, **kw)))
    assert trees[0] == trees[1]


@pytest.mark.parametrize("weighted", [False, True])
def test_forest_trees_match_tree_fit_on_their_resample(monkeypatch,
                                                       weighted):
    X, y, w = _tied_draw()
    calls = _recording_tree_fit(monkeypatch)
    forest = forest_fit(X, y, B=5, max_depth=7, min_leaf=2, seed=4,
                        weights=w if weighted else None)
    assert len(calls) == 5
    for Xb, yb, kw, tree in calls:
        assert "_sorted" in kw
        kw = {k: v for k, v in kw.items() if k != "_sorted"}
        assert _nodes(tree) == _nodes(tree_fit(Xb, yb, **kw))
    want = np.mean([tree.predict(X) for *_, tree in calls], axis=0)
    assert np.array_equal(forest.predict(X), want)


@pytest.mark.parametrize("fit", [
    lambda X, y: tree_fit(X, y, max_depth=3),
    lambda X, y: tree_fit(X, np.full(y.size, 2.0)),  # a single leaf
    lambda X, y: forest_fit(X, y, B=3, max_depth=3),
    lambda X, y: boost_fit(X, y, J=3),
], ids=["tree", "leaf", "forest", "boost"])
def test_tree_predict_rejects_a_design_of_another_width(fit):
    # A tree fitted on 3 columns must reject 6 (not read the first 3) and
    # 1 (not index past it); the forest and boost averages inherit this.
    r = np.random.default_rng(10)
    X = r.standard_normal((60, 3))
    model = fit(X, X[:, 0] + r.standard_normal(60))
    assert model.predict(X).shape == (60,)
    for Xq in (np.ones((4, 6)), np.ones((4, 1)), np.ones(4)):
        with pytest.raises(DimensionMismatch):
            model.predict(Xq)


def _partition_by_compress(order, xs, goes_left, grow_left, grow_right):
    """Frozen reference: the partition that gathered its mask by fancy
    index and each side by ``compress``."""
    p = order.shape[0]
    order, xs = order.ravel(), xs.ravel()
    keep = goes_left[order]
    left = right = None
    if grow_left:
        left = (order.compress(keep).reshape(p, -1),
                xs.compress(keep).reshape(p, -1))
    if grow_right:
        keep = ~keep
        right = (order.compress(keep).reshape(p, -1),
                 xs.compress(keep).reshape(p, -1))
    return left, right


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 400),
       p=st.integers(1, 6), source=st.sampled_from(["presort", "resample"]),
       share=st.floats(0.0, 1.0), grow_left=st.booleans(),
       grow_right=st.booleans())
def test_partition_matches_the_compress_reference(seed, m, p, source, share,
                                                   grow_left, grow_right):
    r = np.random.default_rng(seed)
    X = np.round(r.standard_normal((m, p)), 1)  # one decimal, so ties
    if source == "presort":
        order, xs = _presort(X)
    else:
        order, xs = _resample_sort(X, _rank_keys(X), r.integers(0, m, size=m))
    goes_left = r.uniform(size=m) < share
    got = learners._partition(order, xs, goes_left, grow_left, grow_right)
    want = _partition_by_compress(order, xs, goes_left, grow_left,
                                  grow_right)
    for side, grows, ref in zip(got, (grow_left, grow_right), want):
        if not grows:
            assert side is None
            continue
        assert side[0].dtype == np.int32 and side[1].dtype == float
        assert np.array_equal(side[0], ref[0])
        assert np.array_equal(side[1], ref[1])


def test_rank_key_order_is_the_stable_argsort():
    r = np.random.default_rng(8)
    n = 400
    X = np.round(r.standard_normal((n, 5)), 1)
    X[(X == 0.0) & (r.uniform(size=X.shape) < 0.5)] = -0.0
    X[r.uniform(size=X.shape) < 0.05] = np.nan
    X[:, 4] = 2.5
    keys = _rank_keys(X)
    for idx in [np.arange(n), n - 1 - np.arange(n)] + [
            r.integers(0, n, size=n) for _ in range(5)]:
        order, xs = _resample_sort(X, keys, idx)
        want = np.argsort(X[idx], axis=0, kind="stable").T
        assert order.dtype == np.int32
        assert np.array_equal(order, want)
        assert np.array_equal(xs, _presort(X[idx])[1], equal_nan=True)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("base", [None, TreeLearner(max_depth=3, min_leaf=4)])
def test_boost_fit_equals_a_loop_of_tree_fits(weighted, base):
    X, y, w = _tied_draw()
    w = w if weighted else None
    rate = 0.3
    model = boost_fit(X, y, J=12, rate=rate, base=base, weights=w)
    depth, leaf = (2, 1) if base is None else (base.max_depth, base.min_leaf)
    residual = y.copy()
    want = np.zeros(y.size)
    for stage in model._stages:
        tree = tree_fit(X, residual, max_depth=depth, min_leaf=leaf,
                        weights=w)
        assert _nodes(stage) == _nodes(tree)
        step = tree.predict(X)
        residual = residual - rate * step
        want += rate * step
    assert len(model._stages) == 12
    assert np.array_equal(model.predict(X), want)


def _logistic_full_design(X, d, weights=None):
    """Frozen reference: the IRLS loop that built the n x (p + 1) design
    and its weighted copy for every Hessian. Returns beta, or raises
    Separation as logistic_fit does."""
    n = X.shape[0]
    design = np.column_stack([np.ones(n), X])
    w = np.ones(n) if weights is None else weights
    beta = np.zeros(design.shape[1])
    for _ in range(learners.LOGISTIC_MAX_ITER):
        eta = np.clip(design @ beta, -learners.LOGISTIC_INDEX_CAP - 5.0,
                      learners.LOGISTIC_INDEX_CAP + 5.0)
        mu = 1.0 / (1.0 + np.exp(-eta))
        s = np.maximum(mu * (1.0 - mu), 1e-10) * w
        grad = design.T @ (w * (d - mu))
        hess = design.T @ (design * s[:, None])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        beta = beta + step
        if np.max(np.abs(step)) < learners.LOGISTIC_TOL:
            break
    if np.max(np.abs(design @ beta)) > learners.LOGISTIC_INDEX_CAP:
        raise Separation("reference fit separated")
    return beta


def _logistic_corners(test):
    # Every (p, height, weights) corner runs on every run of the suite.
    for p in (0, 1, 20):
        for tall in (False, True):
            for weighted in (False, True):
                test = example(p=p, tall=tall, weighted=weighted, seed=p,
                               short=0.5)(test)
    return test


@_logistic_corners
@given(p=st.sampled_from([0, 1, 20]), tall=st.booleans(),
       weighted=st.booleans(), seed=st.integers(0, 2**32 - 1),
       short=st.floats(0.0, 1.0))
def test_logistic_fit_matches_the_full_design_newton(p, tall, weighted,
                                                     seed, short):
    # Tall: three full Hessian blocks and a partial one; otherwise less
    # than one block, but enough rows per coefficient to avoid separation.
    block = learners._BLOCK_CELLS // (p + 1)
    lo = 20 * (p + 1)
    n = 3 * block + 17 if tall else lo + int(short * (block - 1 - lo))
    r = np.random.default_rng(seed)
    X = r.standard_normal((n, p))
    coef = 0.5 * r.standard_normal(p)
    d = (r.random(n) < 1.0 / (1.0 + np.exp(-0.3 - X @ coef))).astype(float)
    d[:2] = [0.0, 1.0]
    w = r.uniform(0.2, 3.0, n) if weighted else None
    try:
        want = _logistic_full_design(X, d, w)
    except Separation:
        with pytest.raises(Separation):
            logistic_fit(X, d, weights=w)
        return
    got = logistic_fit(X, d, weights=w).beta
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_logistic_fit_allocates_less_than_its_design():
    # The full-design loop peaked at 2.3x X.nbytes on this fit: the
    # design and its weighted copy.
    r = np.random.default_rng(48)
    X = r.standard_normal((48_000, 20))
    d = (r.random(48_000) < 1.0 / (1.0 + np.exp(-X[:, 0]))).astype(float)
    tracemalloc.start()
    try:
        logistic_fit(X, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes


# Drawn cases for the presorted search against the frozen reference:
# one-decimal X so values tie, bootstrap duplicates, zero weights and
# weights over six decades, every depth and leaf size, mtry subsets, and
# forest-shaped trees grown from a forest's rank table.
@example(seed=3, n=300, p=6, shape="forest", weights=None, depth=8,
         leaf=5, mtry=None)
@example(seed=4, n=300, p=6, shape="free", weights="zeros", depth=8,
         leaf=1, mtry=3)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
       p=st.integers(1, 6), shape=st.sampled_from(["free", "bootstrap",
                                                   "forest"]),
       weights=st.sampled_from([None, "zeros", "decades"]),
       depth=st.integers(0, 8), leaf=st.integers(1, 7),
       mtry=st.none() | st.integers(1, 6))
def test_tree_fit_matches_the_reference_on_drawn_cases(seed, n, p, shape,
                                                        weights, depth,
                                                        leaf, mtry):
    r = np.random.default_rng(seed)
    X = np.round(r.standard_normal((n, p)), 1)
    y = np.round(X[:, 0] - X[:, -1] ** 2 + r.standard_normal(n), 1)
    kw = {"max_depth": depth, "min_leaf": leaf}
    if weights == "zeros":
        w = r.uniform(size=n)
        w[r.uniform(size=n) < 0.4] = 0.0
        w[X[:, -1] > 1.0] = 0.0  # whole branches without weight
        kw["weights"] = w
    elif weights == "decades":
        y = y * 10 ** r.uniform(-3, 3, n)
        kw["weights"] = 10 ** r.uniform(-3, 3, n)
    if shape != "free":
        rows = r.integers(0, n, size=n)
        if shape == "forest":
            kw.update(max_depth=8, min_leaf=5,
                      _sorted=_resample_sort(X, _rank_keys(X), rows))
        X, y = X[rows], y[rows]
        if "weights" in kw:
            kw["weights"] = kw["weights"][rows]
    ref_kw = {k: v for k, v in kw.items() if k != "_sorted"}
    if mtry is not None:
        kw.update(mtry=mtry, rng=np.random.default_rng(seed))
        ref_kw.update(mtry=mtry, rng=np.random.default_rng(seed))
    tree = tree_fit(X, y, **kw)
    ref = _reference_tree(X, y, **ref_kw)
    assert list(zip(tree.feature.tolist(), tree.threshold.tolist(),
                    tree.value.tolist())) == _reference_nodes(ref)
    fresh = np.round(r.standard_normal((50, p)), 1)
    Xq = np.vstack([X, fresh])
    assert np.array_equal(tree.predict(Xq), _reference_predict(ref, Xq))


@pytest.mark.parametrize("case", ["zero_weights", "constant", "constant_y"])
def test_tree_search_warns_of_nothing(case):
    X, y, kw = _split_search_case(case)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tree_fit(X, y, **kw)


def test_a_branch_without_weight_warns_of_nothing(monkeypatch):
    # Summed in row order these weights come to 4 more than their running
    # sum in x order ever reaches, so a split can leave a child whose rows
    # all weigh 0. Its search scores only empty sides and must evaluate no
    # gain base.
    x = np.array([6.0, 1, 3, 7, 4, 9, 0, 5, 2, 8])
    y = np.array([3.0, 0, 2, 3, 3, 3, 0, 4, 2, 0])
    w = np.array([0.0, 0, 1, 1, 0, 0, 1, 0, 1e16, 0])
    totals = []
    original = learners._best_split

    def recording(*args):
        totals.append(args[-2])
        return original(*args)

    monkeypatch.setattr(learners, "_best_split", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tree = tree_fit(x[:, None], y, max_depth=3, weights=w)
        assert 0.0 in totals[1:]
        bare = tree_fit(x[:, None], y, max_depth=3, weights=np.zeros(10))
    ref = _reference_tree(x[:, None], y, max_depth=3, min_leaf=1, weights=w)
    assert list(zip(tree.feature.tolist(), tree.threshold.tolist(),
                    tree.value.tolist())) == _reference_nodes(ref)
    assert bare.feature.tolist() == [-1]
    assert bare.value[0] == np.mean(y)


@pytest.mark.parametrize("Xq", [np.ones((4, 6)), np.ones((4, 1)), np.ones(4)],
                         ids=["six-columns", "one-column", "vector"])
def test_linear_predict_rejects_a_design_of_another_width(Xq):
    # Raised as DmlkitError, not as numpy's matmul ValueError.
    r = np.random.default_rng(11)
    X = r.standard_normal((30, 3))
    model = LinearLearner().fit(X, X @ [1.0, -2.0, 0.5])
    assert model.predict(X).shape == (30,)
    with pytest.raises(DimensionMismatch):
        model.predict(Xq)


@pytest.mark.parametrize("plan", [make_folds(90, 5, seed=6),
                                  no_crossfit_plan(90)], ids=["K5", "K1"])
def test_cross_fit_residuals_are_v_minus_the_cross_fitted_prediction(plan):
    r = np.random.default_rng(14)
    X = r.standard_normal((90, 3))
    y = X[:, 0] - X[:, 1] ** 2 + r.standard_normal(90)
    d = (r.uniform(size=90) < 1 / (1 + np.exp(-X[:, 2]))).astype(float)
    pairs = [(LinearLearner(), y), (ForestLearner(B=4, max_depth=3), y),
             (LogisticLearner(), d)]
    residuals = cross_fit_residuals(X, plan, *pairs)
    assert len(residuals) == len(pairs)
    for (learner, v), got in zip(pairs, residuals):
        want = v - cross_fit_predict(learner, X, v, plan)[0]
        assert np.array_equal(got, want)

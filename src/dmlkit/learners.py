"""Pluggable regression/classification oracles and cross-fitting.

Everything downstream consumes two contracts: a Learner has
``fit(X, y, weights=None) -> Predictor`` and a Predictor has
``predict(X) -> vector``. Learners keep no fitted state; the ones with
settings are frozen dataclasses, so one instance serves every fold.
Classification learners additionally expose probabilities clipped away
from 0 and 1. Fold planning and the cross-fitted prediction loop live
here as well, together with the from-scratch tree, bagged forest,
boosting, and IRLS logistic oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (BadFoldCount, DimensionMismatch, FoldTooSmall,
                     OneArmEmpty, Separation, WeightsNotSupported)
from .linalg import as_columns, as_matrix, as_vectors, check_rows, ols_fit
from .rng import stream

DEFAULT_CLIP = 0.01
# IRLS for logistic_fit: at most this many Newton steps, stopping once
# no coefficient moves by more than the tolerance; a fitted linear index
# beyond the cap flags separation.
LOGISTIC_MAX_ITER = 100
LOGISTIC_TOL = 1e-10
LOGISTIC_INDEX_CAP = 30.0

# glibc hands freed heap back to the system once more than its trim
# threshold (128 KiB at start) lies free at the top. Tree growth frees
# arrays of about that size at every node, so each node faulted fresh
# pages in: about 19000 minor faults, 5-10% of the time, in a 5-fold
# PLM with two 10-tree forests on 2000 rows. Freeing one block too
# large for the heap raises the threshold to twice its size (glibc's
# dynamic threshold; larger frees raise it further). The block is
# never touched, so it takes no memory.
np.empty(1 << 17)


# ---------------------------------------------------------------------------
# Fold planning


@dataclass(frozen=True)
class CrossFitPlan:
    """Deterministic fold assignment for n rows into K folds."""

    n: int
    K: int
    assignment: np.ndarray  # fold id per row
    seed: int

    def fold_indices(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == k)

    def complement_indices(self, k: int) -> np.ndarray:
        if self.K == 1:
            # The in-sample ablation plan of ``no_crossfit_plan``: the
            # "out of fold" data is the full sample.
            return np.arange(self.n)
        return np.flatnonzero(self.assignment != k)


def make_folds(n: int, K: int, seed: int) -> CrossFitPlan:
    """Uniform random partition of {0..n-1} into K folds of near-equal size."""
    if not 2 <= K <= n:
        raise BadFoldCount(f"need 2 <= K <= n, got K={K}, n={n}")
    perm = stream(seed, "folds").permutation(n)
    assignment = np.empty(n, dtype=int)
    sizes = np.full(K, n // K)
    sizes[: n % K] += 1
    start = 0
    for k, size in enumerate(sizes):
        assignment[perm[start:start + size]] = k
        start += size
    return CrossFitPlan(n=n, K=K, assignment=assignment, seed=seed)


def no_crossfit_plan(n: int) -> CrossFitPlan:
    """K=1 in-sample ablation plan: nuisances are fit and predicted on
    the same rows. ``simulate``'s ``plm_smooth`` DGP runs it as its
    ``plm_overfit_nocrossfit`` estimator, to show the bias that
    cross-fitting removes."""
    return CrossFitPlan(n=n, K=1, assignment=np.zeros(n, dtype=int), seed=0)


def cross_fit_predict(learner, X, y, plan: CrossFitPlan, weights=None,
                      rows=None):
    """Out-of-fold predictions: row i is predicted by a model that never
    saw fold(i). ``rows``, a boolean mask of length n, keeps only the
    marked rows of each fold's training complement (a treatment arm or a
    DiD cell, say); every row is still predicted. Returns (predictions,
    per-fold predictors)."""
    y, weights = as_vectors(y=y, weights=weights)
    X = as_columns(X, y.size)
    check_rows(y=y, rows=rows)
    if plan.n != X.shape[0]:
        raise DimensionMismatch("plan size does not match data")
    preds = np.empty(plan.n)
    predictors = []
    for k in range(plan.K):
        test = plan.fold_indices(k)
        train = plan.complement_indices(k)
        if rows is not None:
            train = train[rows[train]]
        if train.size < 1:
            raise FoldTooSmall(f"fold {k} leaves no training rows")
        w = None if weights is None else weights[train]
        predictor = learner.fit(X[train], y[train], weights=w)
        predictors.append(predictor)
        if test.size:
            preds[test] = predictor.predict(X[test])
    return preds, predictors


def cross_fit_residuals(X, plan: CrossFitPlan, *pairs) -> list:
    """Cross-fitted residuals ``v - cross_fit_predict(learner, X, v,
    plan)[0]``, one per ``(learner, v)`` pair, in order: the partialling
    out that PLM, PLIV, score inversion, proxy IV and the R-learner
    share."""
    return [v - cross_fit_predict(learner, X, v, plan)[0]
            for learner, v in pairs]


def learner_select(candidates, X, y, plan: CrossFitPlan, weights=None) -> dict:
    """Pick the candidate with the smallest cross-fitted MSPE.

    Ties break to the lowest candidate index.
    """
    if not candidates:
        raise DimensionMismatch("need at least one candidate learner")
    y, w = as_vectors(y=y, weights=weights)
    mspes = np.empty(len(candidates))
    for i, cand in enumerate(candidates):
        preds, _ = cross_fit_predict(cand, X, y, plan, weights=w)
        # Score on the same weighted loss the candidates were fit to.
        mspes[i] = np.average((y - preds) ** 2, weights=w)
    return {"best_index": int(np.argmin(mspes)), "mspe": mspes}


# ---------------------------------------------------------------------------
# Simple oracles


class _FunctionPredictor:
    def __init__(self, fn, width: int | None = None):
        self._fn = fn
        self._width = width

    def predict(self, X):
        X = as_matrix(X, self._width)
        return np.asarray(self._fn(X), dtype=float)


class FunctionLearner:
    """Wrap a fixed function of X as a Learner (oracle nuisances in tests)."""

    def __init__(self, fn):
        self._fn = fn

    def fit(self, X, y, weights=None):
        return _FunctionPredictor(self._fn)


class ZeroLearner:
    def fit(self, X, y, weights=None):
        return _FunctionPredictor(lambda X: np.zeros(X.shape[0]))


class MeanLearner:
    def fit(self, X, y, weights=None):
        y, w = as_vectors(y=y, weights=weights)
        mu = float(np.mean(y) if w is None else np.sum(w * y) / np.sum(w))
        return _FunctionPredictor(lambda X, mu=mu: np.full(X.shape[0], mu))


class LinearLearner:
    """OLS with intercept; the workhorse low-dimensional nuisance oracle.

    ``linalg`` loads scipy.linalg on its first fit; building the learner
    loads it already, so a config that names one, validated before the
    run, does not leave the import to the run."""

    def __init__(self):
        import scipy.linalg  # noqa: F401

    def fit(self, X, y, weights=None):
        X = as_matrix(X)
        design = np.column_stack([np.ones(X.shape[0]), X])
        beta = ols_fit(design, y, weights=weights,
                       minimum_norm=True).coefficients
        return _FunctionPredictor(lambda Xn: beta[0] + Xn @ beta[1:],
                                  beta.size - 1)


@dataclass(frozen=True)
class LassoPluginLearner:
    """Plug-in-penalty Lasso; its predictor is the ``LassoFit``. The
    plug-in rule has no weighted form, so it takes no weights.

    ``penalized`` (and with it scipy's BLAS and LAPACK) is imported by
    the learner, not by this module, so a run without a Lasso learner
    never loads it; building one, as config validation does, loads it
    before the run starts."""

    c: float = 1.1
    a: float = 0.05
    takes_weights: ClassVar[bool] = False

    def __post_init__(self):
        from .penalized import _check_plugin_level
        _check_plugin_level(self.c, self.a)

    def fit(self, X, y, weights=None):
        if weights is not None:
            raise WeightsNotSupported("the plug-in Lasso takes no "
                                      "observation weights")
        from .penalized import lasso_plugin
        return lasso_plugin(as_matrix(X), y, c=self.c, a=self.a)


# ---------------------------------------------------------------------------
# Regression trees

# Split scoring works on blocks of at most this many (feature, row)
# cells, so the temporaries of a node stay small however tall the data.
_BLOCK_CELLS = 1 << 16


class RegressionTree:
    """Greedy binary regression tree with midpoint split candidates.

    The fitted tree is stored as parallel arrays indexed by node id, in
    depth-first order with the root at 0: at an internal node ``i``, rows
    with ``x[feature[i]] <= threshold[i]`` go to ``left[i]`` and the rest
    to ``right[i]``; at a leaf ``feature[i]`` is -1. ``value[i]`` is the
    weighted mean outcome of the training rows that reached node ``i``.
    Fitting is fully deterministic. Within a feature the lowest threshold
    wins among equal gains; across features, in ascending order, a later
    feature displaces the best so far only when its gain is larger by
    more than 1e-12, so a near-tie goes to whichever feature's rounding
    came out ahead, not always to the lower index. ``p`` is the
    column count of the training design; ``predict`` raises
    ``DimensionMismatch`` for any other.
    """

    def __init__(self, feature, threshold, left, right, value, p):
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.value = np.asarray(value, dtype=float)
        self.p = p

    def predict(self, X) -> np.ndarray:
        """Route every row down one level per pass until all sit at leaves."""
        X = as_matrix(X, self.p)
        node = np.zeros(X.shape[0], dtype=np.intp)
        rows = np.arange(X.shape[0]) if self.feature[0] >= 0 else node[:0]
        while rows.size:
            at = node[rows]
            go_left = X[rows, self.feature[at]] <= self.threshold[at]
            at = np.where(go_left, self.left[at], self.right[at])
            node[rows] = at
            rows = rows[self.feature[at] >= 0]
        return self.value[node]


def _best_split(order, xs, channels, features, min_leaf, total_w, total_wy):
    """Best (feature, threshold, gain) among a node's usable midpoints,
    or None when it has none.

    ``order`` and ``xs`` hold, per feature, the node's row ids and their
    values in ascending value order. ``features`` lists the candidate
    features in ascending order, or is None for all p: each block of
    features is then a slice of ``order`` and ``xs``, not a copy
    gathered by index. ``channels`` is the stack (w, w*y) or, for unit
    weights, y alone: the left weight at size i is then exactly i, so no
    weight channel is gathered or summed and no score divides by zero.
    Each block of candidate features is scored from one cumulative sum
    of the sorted channels; the gain of a split is its weighted SSE
    reduction. Features compete through their best scores alone, and
    the midpoint cut is computed once, for the winner.
    """
    m = order.shape[1]
    # Left-side sizes that leave at least min_leaf rows on each side; a
    # size i splits between sorted positions i - 1 and i.
    lo, hi = min_leaf, m - min_leaf
    unit = channels.ndim == 1
    if unit:
        lw = np.arange(lo, hi + 1, dtype=float)
        rw = total_w - lw
    count = order.shape[0] if features is None else features.size
    step = max(1, _BLOCK_CELLS // m)
    best = base = None  # best: (candidate index, left size, gain)
    for start in range(0, count, step):
        block = (slice(start, start + step) if features is None
                 else features[start:start + step])
        cum = channels.take(order[block, :hi], axis=-1).cumsum(axis=-1)
        if unit:
            lwy = cum[:, lo - 1:]
            score = lwy**2 / lw + (total_wy - lwy)**2 / rw
        else:
            lw, lwy = cum[0, :, lo - 1:], cum[1, :, lo - 1:]
            rw = total_w - lw
            with np.errstate(divide="ignore", invalid="ignore"):
                score = lwy**2 / lw + (total_wy - lwy)**2 / rw
        x = xs[block]
        usable = x[:, lo:hi + 1] > x[:, lo - 1:hi]
        if not unit:
            usable &= (lw > 0) & (rw > 0)
        np.putmask(score, ~usable, -np.inf)
        # Each feature's best score and its first position.
        top, pos = score.max(axis=1), score.argmax(axis=1)
        for k, (t, i) in enumerate(zip(top.tolist(), pos.tolist()), start):
            if not math.isfinite(t):
                continue
            if base is None:
                base = total_wy**2 / total_w
            gain = t - base
            if best is None or gain > best[2] + 1e-12:
                best = (k, lo + i, gain)
    if best is None:
        return None
    k, i, gain = best
    j = k if features is None else int(features[k])
    below, above = xs[j, i - 1], xs[j, i]
    cut = float(0.5 * (below + above))
    # Between adjacent floats the midpoint can round up to the upper
    # value, which would send every row left.
    if cut >= above:
        cut = float(below)
    return j, cut, gain


def _partition(order, xs, goes_left, grow_left, grow_right):
    """Split each column's sorted rows into (left, right), keeping order.
    Only the sides marked to grow are built; the others are None.

    Every gather goes through ``take``: indexing by the int32 ``order``
    (``goes_left[order]``) takes numpy's slow fancy-index path, and
    ``compress`` would find the mask's nonzeros again for each of the
    two arrays. Taking at the nonzeros of a mask, found once per side,
    gives the same elements in the same order as ``compress``."""
    p = order.shape[0]
    order, xs = order.ravel(), xs.ravel()
    keep = goes_left.take(order)
    left = right = None
    if grow_left:
        at = keep.nonzero()[0]
        left = order.take(at).reshape(p, -1), xs.take(at).reshape(p, -1)
    if grow_right:
        at = (~keep).nonzero()[0]
        right = order.take(at).reshape(p, -1), xs.take(at).reshape(p, -1)
    return left, right


def _column_values(X, rows):
    """``X[rows[j], j]`` per column j, for a (p, m) array of row ids.
    One ``take`` on the raveled X gathers them faster than the fancy
    index of ``take_along_axis``; the flat indices are intp, so int32
    row ids times p cannot overflow."""
    p = X.shape[1]
    return X.ravel().take(rows * np.intp(p) + np.arange(p)[:, None])


def _presort(X):
    """A tree root's (order, xs): per column, the row ids in stable
    ascending value order (ties in row order) and the values in that
    order."""
    order = np.argsort(X, axis=0, kind="stable").T.astype(np.int32)
    return order, _column_values(X, order)


def _check_tree(max_depth, min_leaf) -> None:
    if min_leaf < 1:
        raise DimensionMismatch("min_leaf must be >= 1")
    if max_depth < 0:
        raise DimensionMismatch("max_depth must be >= 0")


def tree_fit(X, y, max_depth: int = 3, min_leaf: int = 1, weights=None,
             mtry: int | None = None, rng: np.random.Generator | None = None,
             _sorted=None, _fitted=None) -> RegressionTree:
    """Fit a regression tree by greedy best-SSE-improvement splitting.

    Exact greedy search on presorted columns (Chen & Guestrin 2016,
    arXiv:1603.02754, section 4.1). The root's column order is a stable
    argsort of X (``_presort``), or, from ``forest_fit`` and
    ``boost_fit``, the private ``_sorted=(order, xs)``, which must equal
    ``_presort(X)``: a boosted fit sorts its X once for all rounds, and a
    forest derives each resample's order from one rank table. Each split
    hands its children their rows in that order by a stable partition of
    every column, so a node always sees its rows sorted by value with
    ties in row order. With ``weights=None`` the rows weigh one each and
    the search carries no weight channel; the scores are the same bits
    as with ``weights=np.ones(n)``. A node scores all its candidate
    features (all p, read as slices of the sorted columns, or ``mtry``
    drawn from ``rng``) at once at every midpoint between distinct
    sorted values that leaves ``min_leaf`` rows on each side. Within a
    feature the lowest threshold wins among equal gains; across
    features, in ascending order, a feature displaces the best so far
    only when its gain is larger by more than 1e-12. Nodes grow depth
    first, left before right, which is also the order of the ``rng``
    draws; a split partitions the sorted columns only for the children
    that will be searched in turn. The private ``_fitted``, from
    ``boost_fit``, is a length-n buffer the fit fills with
    ``tree.predict(X)`` to the bit: each node writes its value at its
    rows, and a parent is grown before its children, so each row ends
    at its leaf's value (``predict`` routes a row by the same
    ``x <= threshold`` comparison that split it here).
    """
    y, w = as_vectors(y=y, weights=weights)
    X = as_columns(X, y.size)
    n, p = X.shape
    _check_tree(max_depth, min_leaf)
    if w is None:
        channels = wy = y
    else:
        channels = np.stack([w, w * y])
        wy = channels[1]
    wy2 = wy * y
    goes_left = np.empty(n, dtype=bool)
    feature, threshold, left, right, value = [], [], [], [], []

    def can_split(size, depth):
        return depth < max_depth and size >= 2 * min_leaf

    sorted_rows = columns = None
    if can_split(n, 0):
        sorted_rows = _presort(X) if _sorted is None else _sorted
        columns = np.ascontiguousarray(X.T)
    draw = mtry is not None and mtry < p
    # Nodes to grow, popped depth first and left before right, so node
    # ids run in that order and a left child's id is its parent's plus
    # one. Each entry: the node's rows in row order, (order, xs) for
    # _best_split or None when it cannot split, its depth, and the
    # parent whose right child it is (-1 for a left child or the root).
    todo = [(np.arange(n), sorted_rows, 0, -1)]
    while todo:
        idx, sorted_rows, depth, parent = todo.pop()
        node = len(value)
        if parent >= 0:
            right[parent] = node
        yn = y[idx]
        if w is None:
            # wy is y: the same values in the same order, so the same
            # sum, and as a Python float the same double.
            total_w, total_wy = float(idx.size), float(yn.sum())
        else:
            total_w, total_wy = w[idx].sum(), wy[idx].sum()
        value.append(float(total_wy / total_w) if total_w > 0
                     else float(np.mean(yn)))
        if _fitted is not None:
            _fitted[idx] = value[-1]
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        if sorted_rows is None or (yn == yn[0]).all():
            continue
        features = (np.sort(rng.choice(p, size=mtry, replace=False))
                    if draw else None)
        split = _best_split(*sorted_rows, channels, features, min_leaf,
                            total_w, total_wy)
        if split is None:
            continue
        j, cut, gain = split
        # The gain must stand out from rounding in the node's SSE.
        base_sse = (wy2[idx].sum() - total_wy**2 / total_w if total_w > 0
                    else 0.0)
        if gain <= 1e-12 * (1.0 + base_sse):
            continue
        feature[node] = j
        threshold[node] = cut
        left[node] = node + 1
        mask = columns[j].take(idx) <= cut
        idx_l, idx_r = idx.compress(mask), idx.compress(~mask)
        grow_l = can_split(idx_l.size, depth + 1)
        grow_r = can_split(idx_r.size, depth + 1)
        rows_l = rows_r = None
        if grow_l or grow_r:
            goes_left[idx] = mask
            rows_l, rows_r = _partition(*sorted_rows, goes_left, grow_l,
                                        grow_r)
        todo.append((idx_r, rows_r, depth + 1, node))
        todo.append((idx_l, rows_l, depth + 1, -1))
    return RegressionTree(feature, threshold, left, right, value, p)


@dataclass(frozen=True)
class TreeLearner:
    max_depth: int = 3
    min_leaf: int = 5

    def __post_init__(self):
        _check_tree(self.max_depth, self.min_leaf)

    def fit(self, X, y, weights=None):
        return tree_fit(X, y, max_depth=self.max_depth,
                        min_leaf=self.min_leaf, weights=weights)


# ---------------------------------------------------------------------------
# Forests and boosting


class _EnsemblePredictor:
    """Sum of ``rate``-scaled stage predictions over ``count``: a forest
    averages its trees (rate 1, count B), boosting adds its rate-scaled
    stages (count 1). ``1.0 * p`` and ``acc / 1`` are exact, so either
    is the plain mean or sum to the bit."""

    def __init__(self, stages, rate, count):
        self._stages = stages
        self._rate = rate
        self._count = count

    def predict(self, X):
        X = as_matrix(X)
        acc = np.zeros(X.shape[0])
        for stage in self._stages:
            acc += self._rate * stage.predict(X)
        return acc / self._count


def _rank_keys(X):
    """Per column, each row's dense rank among the column's distinct
    values, times the row count n, as an int64 (p, n) table. Equal
    values share a rank, as they tie in a stable sort: -0.0 and 0.0, and
    every NaN."""
    n, p = X.shape
    keys = np.empty((p, n), dtype=np.int64)
    for j in range(p):
        keys[j] = np.unique(X[:, j], return_inverse=True)[1]
    return keys * n


def _resample_sort(X, keys, idx):
    """``_presort(X[idx])`` for n resampled rows ``idx`` from the rank
    table ``_rank_keys(X)`` of X's n rows. Adding each row's position to
    its key breaks ties in position order, so one integer sort per
    column gives the stable order exactly."""
    n = idx.size
    k = keys[:, idx] + np.arange(n)
    k.sort(axis=1)
    order = (k % n).astype(np.int32)
    return order, _column_values(X, idx.take(order))


def _check_forest(B, max_depth, min_leaf) -> None:
    if B < 1:
        raise DimensionMismatch("forest needs B >= 1 trees")
    _check_tree(max_depth, min_leaf)


def forest_fit(X, y, B: int = 50, sample_mode: str = "bootstrap",
               max_depth: int = 8, min_leaf: int = 5, seed: int = 0,
               weights=None) -> _EnsemblePredictor:
    """Bagged regression trees: each tree grows on a bootstrap resample
    (``sample_mode="full"``: on all rows), and every split considers
    every feature. Each tree's resample is drawn from an independent RNG
    stream derived from (seed, tree index), so the result is
    order-independent. Each tree's root column order comes from one rank
    table of X built per forest (``_resample_sort``), not from sorting
    the resample's floats again; unit weights carry no weight channel
    (``tree_fit``)."""
    y, weights = as_vectors(y=y, weights=weights)
    X = as_columns(X, y.size)
    n = X.shape[0]
    _check_forest(B, max_depth, min_leaf)
    keys = _rank_keys(X)
    trees = []
    for b in range(B):
        rng = stream(seed, "forest-tree", b)
        if sample_mode == "bootstrap":
            idx = rng.integers(0, n, size=n)
        elif sample_mode == "full":
            idx = np.arange(n)
        else:
            raise ValueError(f"unknown sample_mode {sample_mode!r}")
        w = None if weights is None else weights[idx]
        trees.append(tree_fit(X[idx], y[idx], max_depth=max_depth,
                              min_leaf=min_leaf, weights=w,
                              _sorted=_resample_sort(X, keys, idx)))
    return _EnsemblePredictor(trees, 1.0, B)


@dataclass(frozen=True)
class ForestLearner:
    """Bagged trees (``forest_fit``); every split considers every feature."""

    B: int = 50
    max_depth: int = 8
    min_leaf: int = 5
    seed: int = 0

    def __post_init__(self):
        _check_forest(self.B, self.max_depth, self.min_leaf)

    def fit(self, X, y, weights=None):
        return forest_fit(X, y, B=self.B, max_depth=self.max_depth,
                          min_leaf=self.min_leaf, seed=self.seed,
                          weights=weights)


def _check_boost(J, rate) -> None:
    if not 0 < rate <= 1:
        raise DimensionMismatch("learning rate must be in (0, 1]")
    if J < 1:
        raise DimensionMismatch("boosting needs J >= 1 rounds")


def boost_fit(X, y, J: int = 100, rate: float = 0.1, base=None,
              weights=None) -> _EnsemblePredictor:
    """Gradient boosting on squared loss: repeatedly fit the base learner
    to current residuals and accumulate rate-scaled stage predictions.

    With a ``TreeLearner`` base (the default) X is sorted once
    (``_presort``) and every round's ``tree_fit`` starts from that root
    order; unweighted rounds carry no weight channel. Each round's
    in-sample predictions come from the rows the tree placed in its
    leaves (``tree_fit``'s ``_fitted``), not from routing X through the
    tree again. Any other base is refit through its own ``fit`` and
    predicts through its own ``predict``."""
    _check_boost(J, rate)
    y, weights = as_vectors(y=y, weights=weights)
    X = as_columns(X, y.size)
    if base is None:
        base = TreeLearner(max_depth=2, min_leaf=1)
    presorted = _presort(X) if type(base) is TreeLearner else None
    residual = y.copy()
    fitted = np.empty(y.size)
    stages = []
    for _ in range(J):
        if presorted is None:
            stage = base.fit(X, residual, weights=weights)
            fitted = stage.predict(X)
        else:
            stage = tree_fit(X, residual, max_depth=base.max_depth,
                             min_leaf=base.min_leaf, weights=weights,
                             _sorted=presorted, _fitted=fitted)
        stages.append(stage)
        residual = residual - rate * fitted
    return _EnsemblePredictor(stages, rate, 1)


@dataclass(frozen=True)
class BoostLearner:
    J: int = 100
    rate: float = 0.1

    def __post_init__(self):
        _check_boost(self.J, self.rate)

    def fit(self, X, y, weights=None):
        return boost_fit(X, y, J=self.J, rate=self.rate, weights=weights)


# ---------------------------------------------------------------------------
# Logistic regression (propensity oracle)


class _LogisticPredictor:
    def __init__(self, beta, clip):
        self.beta = beta
        self.clip = clip

    def _index(self, X):
        X = as_matrix(X, self.beta.size - 1)
        return self.beta[0] + X @ self.beta[1:]

    def predict_proba(self, X):
        p = 1.0 / (1.0 + np.exp(-self._index(X)))
        return np.clip(p, self.clip, 1.0 - self.clip)

    # predict() aliases probabilities so the cross-fitting plumbing can
    # treat propensity oracles like any other regression oracle.
    predict = predict_proba


def logistic_fit(X, d, clip: float = DEFAULT_CLIP,
                 weights=None) -> _LogisticPredictor:
    """Maximum-likelihood logistic regression via IRLS.

    Each Newton step solves H step = g for the intercept and slopes, with
    r = w (d - mu) and s = w mu (1 - mu): the gradient is g = (sum r,
    X'r) and the Hessian is H = sum_i s_i (1, x_i)(1, x_i)'. H is summed
    over blocks of ``_BLOCK_CELLS // (p + 1)`` rows: each block writes
    sqrt(s) (1, x)' into one (p + 1) x rows buffer S, allocated once per
    fit, and adds S S', a symmetric rank-k product (BLAS syrk). So the
    fit never builds the n x (p + 1) design or a weighted copy of it:
    besides X it holds a few n-vectors and a buffer of at most 512 KiB.

    Probabilities are clipped into [clip, 1 - clip]. If the fitted linear
    index exceeds ``LOGISTIC_INDEX_CAP`` anywhere (a symptom of
    separation), a Separation error is raised; callers that want the
    clipped fit anyway can catch it and use ``exc.predictor``.
    """
    d, w = as_vectors(d=d, weights=weights)
    X = as_columns(X, d.size)
    if not (np.any(d == 0) and np.any(d == 1)):
        raise OneArmEmpty("logistic fit requires both classes present")
    n, p = X.shape
    rows = max(1, _BLOCK_CELLS // (p + 1))
    S = np.empty((p + 1, min(rows, n)))
    beta = np.zeros(p + 1)
    for _ in range(LOGISTIC_MAX_ITER):
        eta = np.clip(X @ beta[1:] + beta[0], -LOGISTIC_INDEX_CAP - 5.0,
                      LOGISTIC_INDEX_CAP + 5.0)
        mu = 1.0 / (1.0 + np.exp(-eta))
        s = np.maximum(mu * (1.0 - mu), 1e-10)
        r = d - mu
        if w is not None:
            s *= w
            r *= w
        grad = np.concatenate(([r.sum()], X.T @ r))
        root = np.sqrt(s)
        hess = np.zeros((p + 1, p + 1))
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            block = S[:, :hi - lo]
            block[0] = root[lo:hi]
            np.multiply(X[lo:hi].T, root[lo:hi], out=block[1:])
            hess += block @ block.T
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        beta = beta + step
        if np.max(np.abs(step)) < LOGISTIC_TOL:
            break
    predictor = _LogisticPredictor(beta, clip)
    if np.max(np.abs(predictor._index(X))) > LOGISTIC_INDEX_CAP:
        exc = Separation("fitted linear index exceeds cap; data may be separated")
        exc.predictor = predictor
        raise exc
    return predictor


class LogisticLearner:
    def fit(self, X, y, weights=None):
        try:
            return logistic_fit(X, y, weights=weights)
        except Separation as exc:
            return exc.predictor


# ---------------------------------------------------------------------------
# Permutation importance


def perm_importance(predictor, X, y, reps: int = 10, seed: int = 0) -> np.ndarray:
    """Average increase in MSE from permuting each feature column."""
    if reps < 1:
        raise DimensionMismatch("reps must be >= 1")
    y = as_vectors(y=y)
    X = as_columns(X, y.size)
    base_mse = float(np.mean((y - predictor.predict(X)) ** 2))
    n, p = X.shape
    out = np.zeros(p)
    for j in range(p):
        total = 0.0
        for r in range(reps):
            rng = stream(seed, f"perm-{j}", r)
            Xp = X.copy()
            Xp[:, j] = X[rng.permutation(n), j]
            # Per-rep difference, so a feature the predictor ignores gets
            # an importance of exactly zero rather than rounding dust.
            total += float(np.mean((y - predictor.predict(Xp)) ** 2)) - base_mse
        out[j] = total / reps
    return out

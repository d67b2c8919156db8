"""Boosting takes each round's in-sample predictions from the rows
``tree_fit`` placed in each leaf (its private ``_fitted`` buffer), not
from routing X through the new tree again. Both must give the same bits,
so every boosted model stays the same, node for node."""

import numpy as np
import pytest

from dmlkit.learners import _presort, boost_fit, tree_fit
from test_learners import _nodes, _split_search_case, _tied_draw

CASES = ["ties", "bootstrap", "zero_weights", "mtry", "min_leaf",
         "constant", "constant_y", "tall"]


@pytest.mark.parametrize("case", CASES)
def test_fitted_buffer_is_predict_to_the_bit(case):
    X, y, kw = _split_search_case(case)
    fitted = np.full(y.size, np.nan)
    tree = tree_fit(X, y, **kw, _fitted=fitted)
    assert fitted.tobytes() == tree.predict(X).tobytes()
    _, _, fresh_kw = _split_search_case(case)  # a fresh mtry rng
    assert _nodes(tree) == _nodes(tree_fit(X, y, **fresh_kw))


def _boost_by_predict(X, y, J, rate, weights):
    """The boosting loop as it stood before the leaf residuals: each
    round's in-sample predictions come from ``stage.predict(X)``."""
    presorted = _presort(X)
    residual = y.copy()
    stages = []
    for _ in range(J):
        stage = tree_fit(X, residual, max_depth=2, min_leaf=1,
                         weights=weights, _sorted=presorted)
        stages.append(stage)
        residual = residual - rate * stage.predict(X)
    return stages


def _draw(name):
    if name == "tied":
        return _tied_draw()
    X, y, _ = _split_search_case("tall")
    return X, y, np.random.default_rng(3).uniform(size=y.size)


@pytest.mark.parametrize("draw", ["tied", "tall"])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("J", [1, 7])
@pytest.mark.parametrize("rate", [0.1, 1.0])
def test_boost_fit_matches_the_predict_loop(draw, weighted, J, rate):
    X, y, w = _draw(draw)
    w = w if weighted else None
    model = boost_fit(X, y, J=J, rate=rate, weights=w)
    stages = _boost_by_predict(X, y, J, rate, w)
    assert [_nodes(s) for s in model._stages] == [_nodes(s) for s in stages]
    want = np.zeros(y.size)
    for stage in stages:
        want += rate * stage.predict(X)
    assert model.predict(X).tobytes() == want.tobytes()

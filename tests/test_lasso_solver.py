"""The working-set coordinate-descent solver against a frozen reference.

``_reference_descent`` is the plain cyclic solver, whose every sweep visits
all columns. The working-set solver must reach an objective no worse, pass
the same KKT certificate and select the same support.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dmlkit import penalized
from dmlkit.cli.dgps import _decay_coefficients, _draw_confounded_lasso
from dmlkit.double_lasso import _lambda_max, _rule_fit
from dmlkit.errors import NoConvergence
from dmlkit.learners import make_folds
from dmlkit.penalized import (KKT_TOL, _coordinate_descent, _kkt_gap,
                              lasso_fit, lasso_path)


def _reference_descent(Xc, yc, lam, lam_ridge, loadings, beta0=None):
    """Cyclic coordinate descent over every live column, frozen as the
    reference: the same objective, stopping rule and certificate."""
    n, p = Xc.shape
    beta = np.zeros(p) if beta0 is None else beta0.astype(float).copy()
    colsq = np.einsum("ij,ij->j", Xc, Xc)
    live = np.flatnonzero(colsq > 0)
    beta[colsq == 0] = 0.0
    r = yc - Xc @ beta if beta.any() else yc.copy()
    thresholds = 0.5 * lam * loadings
    denom = colsq + lam_ridge
    gap_scale = max(1.0, lam * float(loadings.max(initial=0.0)),
                    2.0 * float(np.abs(Xc.T @ yc).max(initial=0.0)))

    def objective(b):
        return float(r @ r) + lam_ridge * float(b @ b) + lam * float(
            loadings @ np.abs(b)
        )

    prev_obj = objective(beta)
    for sweeps in range(1, 10_001):
        max_change = 0.0
        for j in live:
            bj = beta[j]
            rho = Xc[:, j] @ r + colsq[j] * bj
            new = np.sign(rho) * max(abs(rho) - thresholds[j], 0.0) / denom[j]
            if new != bj:
                r += Xc[:, j] * (bj - new)
                beta[j] = new
                max_change = max(max_change, abs(new - bj))
        obj = objective(beta)
        if not np.isfinite(obj):
            raise NoConvergence("objective diverged")
        if obj > prev_obj + 1e-9 * (1.0 + abs(prev_obj)):
            raise NoConvergence("coordinate descent objective increased")
        stalled = obj > prev_obj - 1e-12 * (1.0 + abs(prev_obj))
        prev_obj = obj
        if max_change < 1e-7 or stalled:
            gap = _kkt_gap(Xc, yc, beta, lam, lam_ridge, loadings)
            if gap <= KKT_TOL * gap_scale:
                break
    else:  # pragma: no cover
        raise NoConvergence("no convergence after 10000 sweeps")
    return beta, sweeps, gap


def _objective(Xc, yc, beta, lam, lam_ridge, loadings):
    r = yc - Xc @ beta
    return float(r @ r + lam_ridge * beta @ beta
                 + lam * loadings @ np.abs(beta))


def _gap_scale(Xc, yc, lam, loadings):
    return max(1.0, lam * float(loadings.max(initial=0.0)),
               2.0 * float(np.abs(Xc.T @ yc).max(initial=0.0)))


def _problem(seed, wide, rho, constant, zero_loadings):
    """Centered design: p > n when ``wide``, equicorrelated columns with
    correlation ``rho``, a constant (all-zero) column when ``constant``
    and a few unpenalized columns when ``zero_loadings``."""
    r = np.random.default_rng(seed)
    n = int(r.integers(8, 41))
    p = n + int(r.integers(1, 41)) if wide else int(r.integers(1, n))
    X = (np.sqrt(1.0 - rho) * r.standard_normal((n, p))
         + np.sqrt(rho) * r.standard_normal((n, 1)))
    if constant:
        X[:, r.integers(p)] = 3.0
    coef = np.zeros(p)
    coef[: min(p, 5)] = r.uniform(-2.0, 2.0, min(p, 5))
    y = X @ coef + r.standard_normal(n)
    loadings = r.uniform(0.5, 1.5, p)
    if zero_loadings:
        loadings[r.choice(p, size=min(p, 2), replace=False)] = 0.0
    Xc = X - X.mean(axis=0)
    return Xc, y - y.mean(), loadings


@given(seed=st.integers(0, 2**32 - 1), wide=st.booleans(),
       rho=st.sampled_from([0.0, 0.5, 0.95]), constant=st.booleans(),
       zero_loadings=st.booleans(), lam_ridge=st.sampled_from([0.0, 0.5]),
       lam_share=st.floats(0.005, 1.2), warm=st.booleans())
def test_matches_reference_solver(seed, wide, rho, constant, zero_loadings,
                                  lam_ridge, lam_share, warm):
    Xc, yc, loadings = _problem(seed, wide, rho, constant, zero_loadings)
    penalized = loadings > 0
    lam = lam_share * 2.0 * float(np.max(
        np.abs(Xc.T @ yc)[penalized] / loadings[penalized], initial=1.0))
    beta0 = None
    if warm:  # start from the solution at a larger penalty, as a path does
        beta0 = _coordinate_descent(Xc, yc, 2.0 * lam, lam_ridge, loadings)[0]
    args = (Xc, yc, lam, lam_ridge, loadings)
    beta = _coordinate_descent(*args, beta0=beta0)[0]
    assert _kkt_gap(*args[:2], beta, *args[2:]) <= \
        KKT_TOL * _gap_scale(Xc, yc, lam, loadings)
    try:
        ref = _reference_descent(*args, beta0=beta0)[0]
    except NoConvergence:
        return  # the reference stalls on some near-saturated p > n designs

    ref_obj = _objective(*args[:2], ref, *args[2:])
    assert _objective(*args[:2], beta, *args[2:]) <= \
        ref_obj + 1e-9 * (1.0 + abs(ref_obj))
    # The support is determined when no reference coefficient is near
    # zero and no zero coefficient sits on its KKT bound (within the
    # certificate's tolerance, a coordinate may be zero or not).
    slack = lam * loadings - np.abs(2.0 * Xc.T @ (yc - Xc @ ref))
    if (np.abs(ref[ref != 0.0]).min(initial=np.inf) > 1e-6 and np.all(
            slack[(ref == 0.0) & Xc.any(axis=0)]
            > KKT_TOL * _gap_scale(Xc, yc, lam, loadings))):
        assert np.array_equal(np.flatnonzero(beta), np.flatnonzero(ref))


def test_near_saturated_wide_design_certifies():
    # p > n, correlated columns, 1% of the all-zero penalty, warm-started
    # from twice the penalty: the reference stops at 10000 sweeps without
    # a certificate, with more nonzeros than rows. Steps along the null
    # space of X_A and to the first sign change reach the solution.
    Xc, yc, loadings = _problem(2861482334, True, 0.9, False, False)
    n = yc.size
    lam = 0.01 * 2.0 * float(np.max(np.abs(Xc.T @ yc) / loadings))
    beta0 = _coordinate_descent(Xc, yc, 2.0 * lam, 0.0, loadings)[0]
    beta, sweeps, gap = _coordinate_descent(Xc, yc, lam, 0.0, loadings,
                                            beta0=beta0)
    assert gap <= KKT_TOL * _gap_scale(Xc, yc, lam, loadings)
    assert np.count_nonzero(beta) < n
    assert sweeps < 1000


def test_path_on_wide_confounded_design():
    # The example_4_3_1 design with p > n, on the CV Double Lasso grid.
    r = np.random.default_rng(431)
    n, p = 60, 150
    W = r.standard_normal((n, p))
    y = 2.0 * W @ _decay_coefficients(p) + r.standard_normal(n)
    grid = _lambda_max(W, y) * np.geomspace(0.01, 1.0, 16)
    Wc = W - W.mean(axis=0)
    Ws = Wc / np.sqrt(np.mean(Wc**2, axis=0))
    yc = y - y.mean()
    ones = np.ones(p)
    fits = lasso_path(W, y, grid)
    for lam, fit in zip(grid, fits):
        gap = _kkt_gap(Ws, yc, fit._standardized_coefficients, lam, 0.0, ones)
        assert gap <= KKT_TOL * _gap_scale(Ws, yc, lam, ones)
        cold = lasso_fit(W, y, lam=lam)
        assert np.max(np.abs(fit.coefficients - cold.coefficients)) < 1e-6
    assert fits[0].active_set.size > n // 2  # near saturated


def test_scale_invariance_at_pinned_seed():
    # The draw of test_penalized's _random_problem(373), on which a
    # rescaled column's coefficient once drifted by 1.2e-8.
    r = np.random.default_rng(373)
    n = int(r.integers(10, 61))
    p = int(r.integers(1, 9))
    X = r.standard_normal((n, p))
    y = r.standard_normal(n)
    base = lasso_fit(X, y, lam=3.0)
    scaled_X = X.copy()
    scaled_X[:, 0] *= 7.5
    scaled = lasso_fit(scaled_X, y, lam=3.0)
    assert scaled.coefficients[0] == pytest.approx(
        base.coefficients[0] / 7.5, abs=1e-8)


def test_path_standardizes_once(monkeypatch):
    # One standardized design is shared by the path's 16 penalties, while
    # each penalty is still its own lasso_fit call.
    calls = {"_standardize": 0, "lasso_fit": 0}
    for name in calls:
        original = getattr(penalized, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(penalized, name, spy)
    r = np.random.default_rng(11)
    W = r.standard_normal((40, 60))
    y = W[:, :3].sum(axis=1) + r.standard_normal(40)
    grid = _lambda_max(W, y) * np.geomspace(0.01, 1.0, 16)
    calls.update(_standardize=0, lasso_fit=0)  # _lambda_max standardizes too
    fits = penalized.lasso_path(W, y, grid)
    assert calls == {"_standardize": 1, "lasso_fit": 16}
    for lam, fit in zip(grid, fits):
        cold = lasso_fit(W, y, lam=lam)
        assert np.max(np.abs(fit.coefficients - cold.coefficients)) < 1e-6


def test_cv_rule_standardizes_once_per_path_and_once_more(monkeypatch):
    # The grid's top and the final refit share one standardized design;
    # each of the 5 folds' paths standardizes its own rows.
    r = np.random.default_rng(12)
    W = r.standard_normal((50, 70))
    y = W[:, :3].sum(axis=1) + r.standard_normal(50)
    grid = _lambda_max(W, y) * np.geomspace(0.01, 1.0, 16)
    want = penalized.cv_fit("lasso", W, y, grid, make_folds(50, 5, 3)).refit
    calls = []
    original = penalized._standardize

    def counting(*args):
        calls.append(args[0].shape[0])
        return original(*args)

    monkeypatch.setattr(penalized, "_standardize", counting)
    got = _rule_fit(y, W, "cv", seed=3)
    assert calls == [50] + [40] * 5
    assert np.array_equal(got.coefficients, want.coefficients)
    assert got.intercept == want.intercept


def _lambda_max_designs():
    r = np.random.default_rng(7)
    W = r.standard_normal((30, 5))
    W[:, 2] = 1.0  # a constant column
    yield W, W[:, 0] - W[:, 4] + r.standard_normal(30)
    W = r.standard_normal((20, 50))  # p > n
    yield W, W[:, :4].sum(axis=1) + 0.5 * r.standard_normal(20)


@pytest.mark.parametrize("W, y", list(_lambda_max_designs()))
def test_lambda_max_is_the_all_zero_penalty(W, y):
    lam = _lambda_max(W, y)
    assert not lasso_fit(W, y, lam=lam).coefficients.any()
    assert lasso_fit(W, y, lam=0.999 * lam).coefficients.any()


def test_lambda_max_of_constant_outcome():
    W = np.random.default_rng(3).standard_normal((12, 4))
    assert _lambda_max(W, np.full(12, 2.0)) == 1.0


def _standardized(W, y):
    Wc = W - W.mean(axis=0)
    return Wc / np.sqrt(np.mean(Wc**2, axis=0)), y - y.mean()


def test_path_certifies_right_after_an_exact_pattern_step():
    # The example_4_3_1 outcome on its controls, on the CV Double Lasso
    # grid: some warm starts are certified by their first sign-pattern
    # step, before any sweep, and every fit still passes the certificate.
    data = _draw_confounded_lasso(100, np.random.default_rng(431))
    W, y = data["W"], data["y"]
    grid = _lambda_max(W, y) * np.geomspace(0.01, 1.0, 16)
    Ws, yc = _standardized(W, y)
    ones = np.ones(W.shape[1])
    fits = lasso_path(W, y, grid)
    for lam, fit in zip(grid, fits):
        gap = _kkt_gap(Ws, yc, fit._standardized_coefficients, lam, 0.0, ones)
        assert gap <= KKT_TOL * _gap_scale(Ws, yc, lam, ones)
    assert any(fit.n_sweeps == 0 for fit in fits)


def test_warm_start_at_its_own_solution_takes_no_sweep():
    Xc, yc, loadings = _problem(0, False, 0.5, False, False)
    lam = 0.2 * 2.0 * float(np.max(np.abs(Xc.T @ yc) / loadings))
    beta = _coordinate_descent(Xc, yc, lam, 0.0, loadings)[0]
    again, sweeps, gap = _coordinate_descent(Xc, yc, lam, 0.0, loadings,
                                             beta0=beta)
    assert sweeps == 0
    assert np.array_equal(np.flatnonzero(again), np.flatnonzero(beta))
    assert gap <= KKT_TOL * _gap_scale(Xc, yc, lam, loadings)


def test_duplicated_column_makes_a_singular_pattern_system(monkeypatch):
    # Columns 0 and 1 are equal, so a pattern that holds both has a
    # singular X_A'X_A. Whether LAPACK reports it (info > 0) or returns a
    # huge step that the objective check rejects, the fit certifies.
    singular = []
    original = penalized.dgesv

    def spy(a, b, **kwargs):
        a = np.array(a)
        singular.append(any(np.array_equal(a[i], a[j])
                            for i in range(len(a)) for j in range(i)))
        return original(a, b, **kwargs)

    monkeypatch.setattr(penalized, "dgesv", spy)
    r = np.random.default_rng(1)
    X = r.standard_normal((50, 10))
    X[:, 1] = X[:, 0]
    y = 2.0 * X[:, 0] + X[:, 2] - X[:, 3] + r.standard_normal(50)
    Xc, yc, loadings = X - X.mean(axis=0), y - y.mean(), np.ones(10)
    top = 2.0 * float(np.max(np.abs(Xc.T @ yc)))
    beta0 = None
    for lam in (0.5 * top, 0.1 * top, 0.05 * top, 0.01 * top):
        args = (Xc, yc, lam, 0.0, loadings)
        beta, _, gap = _coordinate_descent(*args, beta0=beta0)
        assert gap <= KKT_TOL * _gap_scale(Xc, yc, lam, loadings)
        ref = _reference_descent(*args)[0]
        ref_obj = _objective(Xc, yc, ref, lam, 0.0, loadings)
        assert _objective(Xc, yc, beta, lam, 0.0, loadings) <= \
            ref_obj + 1e-9 * (1.0 + abs(ref_obj))
        beta0 = beta
    assert any(singular)


def test_plugin_standardizes_once(monkeypatch):
    # The sigma refit inside plugin_lambda and the final fit share one
    # standardized design, and each is still its own lasso_fit call.
    calls = {"_standardize": 0, "lasso_fit": 0}
    for name in calls:
        original = getattr(penalized, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(penalized, name, spy)
    r = np.random.default_rng(12)
    X = r.standard_normal((80, 30))
    y = X[:, :3].sum(axis=1) + r.standard_normal(80)
    fit = penalized.lasso_plugin(X, y)
    assert calls == {"_standardize": 1, "lasso_fit": 2}
    rule = penalized.plugin_lambda(X, y)
    alone = lasso_fit(X, y, lam=rule["lam"])
    assert np.array_equal(fit.coefficients, alone.coefficients)
    assert fit.intercept == alone.intercept
    assert fit.sigma_hat == rule["sigma_hat"]

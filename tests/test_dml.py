import numpy as np
import pytest
from hypothesis import given, strategies as st

from dmlkit.dml import (did_canonical, dml_atet, dml_did_panel, dml_did_rcs,
                        dml_gate, dml_irm_ate, dml_late, dml_pliv, dml_plm,
                        rct_estimators, rdd_sharp)
from dmlkit.dml.engine import generic_dml, linear_score_result, normal_interval
from dmlkit.errors import (BadFoldCount, EmptyCell, NoCompliance,
                           NoTreatedUnits, OneArmEmpty, OneSideEmpty,
                           SingularJacobian, WeakResidualVariation)
from dmlkit.learners import (FunctionLearner, LogisticLearner, MeanLearner,
                             ZeroLearner, cross_fit_predict, make_folds,
                             no_crossfit_plan)

HALF = FunctionLearner(lambda X: np.full(X.shape[0], 0.5))


class _MeanScore:
    """psi = y - theta: no nuisances, theta_hat = sample mean."""

    def fit(self, data, train):
        return None

    def evaluate(self, data, idx, nuis):
        y = data["y"][idx]
        return np.ones(y.size), y


class TestEngine:
    def test_mean_score(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        res = generic_dml(_MeanScore(), {"y": y}, make_folds(4, 2, seed=0))
        assert res.theta == pytest.approx(3.0)
        assert res.variance[0] == pytest.approx(np.var(y))

    def test_no_crossfit_requires_opt_in(self):
        y = np.arange(4.0)
        with pytest.raises(BadFoldCount):
            generic_dml(_MeanScore(), {"y": y}, no_crossfit_plan(4))
        res = generic_dml(_MeanScore(), {"y": y}, no_crossfit_plan(4),
                          allow_no_crossfit=True)
        assert res.theta == pytest.approx(1.5)

    def test_singular_jacobian(self):
        with pytest.raises(SingularJacobian):
            linear_score_result(np.zeros(5), np.ones(5))

    @given(st.integers(0, 10_000))
    def test_influence_values_mean_zero(self, seed):
        r = np.random.default_rng(seed)
        psi_a = r.uniform(0.5, 2.0, size=30)
        psi_b = r.standard_normal(30)
        res = linear_score_result(psi_a, psi_b)
        assert abs(np.mean(res.influence)) < 1e-8
        assert res.variance[0] >= -1e-12


class TestPlm:
    def test_oracle_zero_nuisances(self):
        d = np.array([-1.0, 1.0, -1.0, 1.0])
        y = np.array([-2.0, 2.0, -1.0, 1.0])
        res = dml_plm(y, d, np.zeros((4, 1)), ZeroLearner(), ZeroLearner(),
                      no_crossfit_plan(4))
        assert res.theta == pytest.approx(1.5)

    def test_empty_controls_mean_learners_demeaned_slope(self):
        r = np.random.default_rng(0)
        d = r.standard_normal(20)
        y = 2.0 * d + r.standard_normal(20)
        res = dml_plm(y, d, None, MeanLearner(), MeanLearner(),
                      no_crossfit_plan(20))
        rd = d - d.mean()
        ry = y - y.mean()
        assert res.theta == pytest.approx(float(rd @ ry / (rd @ rd)))

    def test_self_regression(self):
        d = np.array([1.0, 2.0, -1.0, 0.5])
        res = dml_plm(d, d, np.zeros((4, 1)), ZeroLearner(), ZeroLearner(),
                      no_crossfit_plan(4))
        assert res.theta == pytest.approx(1.0)

    def test_degenerate_treatment_residual(self):
        y = np.arange(6.0)
        with pytest.raises(WeakResidualVariation):
            dml_plm(y, np.ones(6), None, MeanLearner(), MeanLearner(),
                    no_crossfit_plan(6))

    def test_reports_nuisance_rmse(self):
        r = np.random.default_rng(1)
        d = r.standard_normal(30)
        y = d + r.standard_normal(30)
        res = dml_plm(y, d, r.standard_normal((30, 2)), MeanLearner(),
                      MeanLearner(), make_folds(30, 3, seed=0))
        assert set(res.diagnostics) >= {"rmse_y", "rmse_d"}


IRM_Y = np.array([1.0, 0.0, 2.0, 1.0])
IRM_D = np.array([1.0, 0.0, 1.0, 0.0])


class TestIrmAte:
    def test_hand_signals(self):
        res = dml_irm_ate(IRM_Y, IRM_D, np.zeros((4, 1)), ZeroLearner(),
                          HALF, no_crossfit_plan(4))
        # phi = 2(2d-1) y = (2, 0, 4, -2), theta = 1.
        assert res.influence + res.theta == pytest.approx([2.0, 0.0, 4.0, -2.0])
        assert res.theta == pytest.approx(1.0)

    def test_noise_free_outcome_model(self):
        y = np.full(4, 3.0)
        res = dml_irm_ate(y, IRM_D, np.zeros((4, 1)), MeanLearner(), HALF,
                          no_crossfit_plan(4))
        assert res.theta == pytest.approx(0.0)

    def test_trimming_reported(self):
        extreme = FunctionLearner(lambda X: np.full(X.shape[0], 0.999))
        res = dml_irm_ate(IRM_Y, IRM_D, np.zeros((4, 1)), ZeroLearner(),
                          extreme, no_crossfit_plan(4), trim=0.01)
        assert res.trim_count == 4

    def test_one_arm_empty(self):
        with pytest.raises(OneArmEmpty):
            dml_irm_ate(IRM_Y, np.ones(4), np.zeros((4, 1)), ZeroLearner(),
                        HALF, no_crossfit_plan(4))


class TestGate:
    def test_group_means_of_signals(self):
        groups = np.array([0, 1, 0, 1])  # {rows 0,2} and {rows 1,3}
        res = dml_gate(IRM_Y, IRM_D, np.zeros((4, 1)), groups, ZeroLearner(),
                       HALF, no_crossfit_plan(4))
        assert res.estimates == pytest.approx([3.0, -1.0])

    def test_partition_example_unit_gates(self):
        groups = np.array([0, 0, 1, 1])  # phi groups (2,0) and (4,-2)
        res = dml_gate(IRM_Y, IRM_D, np.zeros((4, 1)), groups, ZeroLearner(),
                       HALF, no_crossfit_plan(4))
        assert res.estimates == pytest.approx([1.0, 1.0])

    def test_additivity_with_shared_nuisances(self):
        r = np.random.default_rng(2)
        n = 60
        X = r.standard_normal((n, 2))
        d = (r.uniform(size=n) < 0.5).astype(float)
        y = d * (1.0 + X[:, 0]) + r.standard_normal(n)
        groups = (X[:, 0] > 0).astype(int)
        plan = make_folds(n, 3, seed=4)
        ate = dml_irm_ate(y, d, X, MeanLearner(), LogisticLearner(), plan)
        gate = dml_gate(y, d, X, groups, MeanLearner(), LogisticLearner(),
                        plan)
        shares = np.array([np.mean(groups == g) for g in (0, 1)])
        assert float(shares @ gate.estimates) == pytest.approx(ate.theta)

    def test_single_row_group_degenerate(self):
        groups = np.array([0, 0, 0, 1])
        res = dml_gate(IRM_Y, IRM_D, np.zeros((4, 1)), groups, ZeroLearner(),
                       HALF, no_crossfit_plan(4))
        assert res.estimates[1] == pytest.approx(-2.0)  # that row's phi
        assert np.isnan(res.std_errors[1])
        assert res.diagnostics["degenerate_groups"] == [1]


class TestAtet:
    def test_hand_score(self):
        res = dml_atet(IRM_Y, IRM_D, np.zeros((4, 1)), ZeroLearner(), HALF,
                       no_crossfit_plan(4))
        assert res.theta == pytest.approx(1.0)

    def test_outcome_equals_control_regression(self):
        y = np.full(4, 2.5)
        res = dml_atet(y, IRM_D, np.zeros((4, 1)), MeanLearner(), HALF,
                       no_crossfit_plan(4))
        assert res.theta == pytest.approx(0.0)

    def test_no_treated_units(self):
        with pytest.raises(NoTreatedUnits):
            dml_atet(IRM_Y, np.zeros(4), np.zeros((4, 1)), ZeroLearner(),
                     HALF, no_crossfit_plan(4))

    def test_all_treated_clipped_not_infinite(self):
        d = np.ones(6)
        d[0] = 0.0  # single control keeps the regression trainable
        y = np.arange(6.0)
        always = FunctionLearner(lambda X: np.ones(X.shape[0]))
        res = dml_atet(y, d, np.zeros((6, 1)), MeanLearner(), always,
                       no_crossfit_plan(6), trim=0.01)
        assert np.isfinite(res.theta)
        assert res.trim_count == 6


class TestPliv:
    def test_hand_ratio(self):
        z = np.array([1.0, -1.0, 1.0, -1.0])
        d = np.array([2.0, -1.0, 1.0, -2.0])
        y = np.array([3.0, -2.0, 2.0, -3.0])
        res = dml_pliv(y, d, z, np.zeros((4, 1)), ZeroLearner(),
                       ZeroLearner(), ZeroLearner(), no_crossfit_plan(4))
        assert res.theta == pytest.approx(10.0 / 6.0)

    def test_instrument_equal_treatment_matches_plm(self):
        r = np.random.default_rng(3)
        d = r.standard_normal(30)
        y = 0.7 * d + r.standard_normal(30)
        X = r.standard_normal((30, 2))
        plan = make_folds(30, 3, seed=5)
        iv = dml_pliv(y, d, d, X, MeanLearner(), MeanLearner(),
                      MeanLearner(), plan)
        plm = dml_plm(y, d, X, MeanLearner(), MeanLearner(), plan)
        assert iv.theta == pytest.approx(plm.theta)
        assert iv.std_error == pytest.approx(plm.std_error)

    def test_exact_proportionality_recovers_theta(self):
        z = np.array([1.0, -1.0, 2.0, -2.0])
        d = np.array([0.5, -1.0, 1.5, -1.0])
        theta0 = -2.5
        res = dml_pliv(theta0 * d, d, z, np.zeros((4, 1)), ZeroLearner(),
                       ZeroLearner(), ZeroLearner(), no_crossfit_plan(4))
        assert res.theta == pytest.approx(theta0)

    def test_weak_instrument_flag(self):
        r = np.random.default_rng(4)
        n = 200
        z = r.standard_normal(n)
        d = r.standard_normal(n)  # unrelated to z
        y = d + r.standard_normal(n)
        res = dml_pliv(y, d, z, None, MeanLearner(), MeanLearner(),
                       MeanLearner(), no_crossfit_plan(n))
        assert "weak_instrument" in res.diagnostics


class TestLate:
    def test_full_compliance_equals_irm_ate_of_instrument(self):
        r = np.random.default_rng(5)
        n = 200
        X = r.standard_normal((n, 2))
        z = (r.uniform(size=n) < 0.5).astype(float)
        y = 2.0 * z + X[:, 0] + r.standard_normal(n)
        plan = make_folds(n, 5, seed=6)
        late = dml_late(y, z, z, X, MeanLearner(), MeanLearner(),
                        LogisticLearner(), plan)
        ate = dml_irm_ate(y, z, X, MeanLearner(), LogisticLearner(), plan)
        assert late.theta == pytest.approx(ate.theta, abs=1e-8)
        assert late.std_error == pytest.approx(ate.std_error, abs=1e-8)

    def test_no_compliance(self):
        z = np.array([0.0, 0.0, 1.0, 1.0] * 3)
        d = np.array([0.0, 1.0, 0.0, 1.0] * 3)  # same take-up in both arms
        y = np.arange(12.0)
        with pytest.raises(NoCompliance):
            dml_late(y, d, z, np.zeros((12, 1)), MeanLearner(),
                     MeanLearner(), HALF, no_crossfit_plan(12))

    def test_first_stage_diagnostic_reported(self):
        r = np.random.default_rng(6)
        n = 300
        z = (r.uniform(size=n) < 0.5).astype(float)
        take = np.where(z == 1, 0.8, 0.2)
        d = (r.uniform(size=n) < take).astype(float)
        y = d + r.standard_normal(n)
        res = dml_late(y, d, z, np.zeros((n, 1)), MeanLearner(),
                       MeanLearner(), HALF, make_folds(n, 5, seed=7))
        assert res.diagnostics["first_stage"] == pytest.approx(0.6, abs=0.1)


def _did_cells(pre_t, post_t, pre_c, post_c, reps=2):
    """Long-format 2x2 panel with exact cell means."""
    y, d, t = [], [], []
    for (dd, tt, mu) in ((1, 1, pre_t), (1, 2, post_t),
                         (0, 1, pre_c), (0, 2, post_c)):
        for i in range(reps):
            y.append(mu + (0.1 if i % 2 else -0.1))
            d.append(float(dd))
            t.append(float(tt))
    return np.array(y), np.array(d), np.array(t)


class TestDidCanonical:
    def test_mariel_cell_means(self):
        y, d, t = _did_cells(5.1, 3.9, 4.4, 4.3)
        res = did_canonical(y, d, t)
        assert res.theta == pytest.approx(-1.1)

    def test_all_cells_equal(self):
        y, d, t = _did_cells(2.0, 2.0, 2.0, 2.0)
        assert did_canonical(y, d, t).theta == pytest.approx(0.0)

    def test_simple_arithmetic(self):
        y, d, t = _did_cells(1.0, 3.0, 0.0, 1.0)
        assert did_canonical(y, d, t).theta == pytest.approx(1.0)

    def test_empty_cell(self):
        y, d, t = _did_cells(1.0, 3.0, 0.0, 1.0)
        with pytest.raises(EmptyCell):
            did_canonical(y[d == 1], d[d == 1], t[d == 1])

    def test_cell_means_reported(self):
        y, d, t = _did_cells(5.1, 3.9, 4.4, 4.3)
        means = did_canonical(y, d, t).diagnostics["cell_means"]
        assert means[(1.0, 1.0)] == pytest.approx(5.1)
        assert means[(0.0, 2.0)] == pytest.approx(4.3)


class TestDidPanel:
    def test_hand_score(self):
        d = np.array([1.0, 0.0, 1.0, 0.0])
        y1 = np.zeros(4)
        y2 = np.array([2.0, 1.0, 3.0, 0.0])
        res = dml_did_panel(y1, y2, d, np.zeros((4, 1)), ZeroLearner(), HALF,
                            no_crossfit_plan(4))
        assert res.theta == pytest.approx(2.0)

    def test_identical_trends_zero(self):
        d = np.array([1.0, 0.0, 1.0, 0.0])
        y1 = np.array([1.0, 2.0, 3.0, 4.0])
        y2 = y1 + 0.5
        res = dml_did_panel(y1, y2, d, np.zeros((4, 1)), MeanLearner(), HALF,
                            no_crossfit_plan(4))
        assert res.theta == pytest.approx(0.0)

    def test_collapses_to_canonical(self):
        r = np.random.default_rng(7)
        n = 40
        d = (r.uniform(size=n) < 0.5).astype(float)
        y1 = r.standard_normal(n)
        y2 = y1 + d * 1.5 + r.standard_normal(n)
        panel = dml_did_panel(y1, y2, d, None, MeanLearner(), MeanLearner(),
                              no_crossfit_plan(n))
        y_long = np.concatenate([y1, y2])
        d_long = np.concatenate([d, d])
        t_long = np.concatenate([np.ones(n), np.full(n, 2.0)])
        canonical = did_canonical(y_long, d_long, t_long)
        assert panel.theta == pytest.approx(canonical.theta, abs=1e-10)


class TestDidRcs:
    def _long_data(self, seed=8, n=60):
        r = np.random.default_rng(seed)
        d = (r.uniform(size=n) < 0.5).astype(float)
        t = (r.uniform(size=n) < 0.5).astype(float) + 1.0
        y = d * (t - 1.0) * 1.5 + d + 0.5 * (t - 1.0) + r.standard_normal(n)
        return y, t, d

    def test_collapses_to_canonical(self):
        y, t, d = self._long_data()
        rcs = dml_did_rcs(y, t, d, None, MeanLearner(), MeanLearner(),
                          no_crossfit_plan(y.size))
        canonical = did_canonical(y, d, t)
        assert rcs.theta == pytest.approx(canonical.theta, abs=1e-10)

    def test_constant_outcome_zero(self):
        y, t, d = self._long_data(seed=9)
        res = dml_did_rcs(np.full(y.size, 3.0), t, d, None, MeanLearner(),
                          MeanLearner(), no_crossfit_plan(y.size))
        assert res.theta == pytest.approx(0.0)


class TestRct:
    def test_vaccine_efficacy_counts(self):
        y = np.concatenate([np.ones(9), np.zeros(19965 - 9),
                            np.ones(169), np.zeros(20172 - 169)])
        d = np.concatenate([np.ones(19965), np.zeros(20172)])
        res = rct_estimators(y, d, mode="CL")
        assert res.theta * 100_000 == pytest.approx(-792.7, abs=0.5)
        ve = res.diagnostics["efficacy"]
        lo, hi = res.diagnostics["efficacy_ci"]
        assert ve * 100 == pytest.approx(94.6, abs=0.1)
        assert lo * 100 == pytest.approx(90.9, abs=0.3)
        assert hi * 100 == pytest.approx(98.2, abs=0.3)

    def test_half_efficacy_ratio(self):
        y = np.concatenate([np.ones(10), np.zeros(90),
                            np.ones(20), np.zeros(80)])
        d = np.concatenate([np.ones(100), np.zeros(100)])
        res = rct_estimators(y, d, mode="CL")
        assert res.diagnostics["efficacy"] == pytest.approx(0.5)

    def test_modes_agree_with_uninformative_covariates(self):
        r = np.random.default_rng(10)
        n = 80
        d = np.tile([1.0, 0.0], 40)
        y = d + r.standard_normal(n)
        W = np.zeros((n, 1))
        cl = rct_estimators(y, d, None, mode="CL")
        cra = rct_estimators(y, d, W, mode="CRA")
        ira = rct_estimators(y, d, W, mode="IRA")
        assert cra.theta == pytest.approx(cl.theta)
        assert ira.theta == pytest.approx(cl.theta)

    def test_one_arm_empty(self):
        with pytest.raises(OneArmEmpty):
            rct_estimators(np.arange(4.0), np.ones(4))


class TestRdd:
    def test_two_line_hand_fit(self):
        x = np.array([-2.0, -1.0, 1.0, 2.0])
        y = np.array([0.0, 1.0, 5.0, 6.0])
        res = rdd_sharp(y, x, cutoff=0.0, bandwidth=3.0, kernel="uniform")
        assert res.theta == pytest.approx(2.0)

    def test_global_linear_jump_is_exact(self):
        x = np.linspace(-2, 2, 41)
        y = 0.7 * x + 4.0 * (x >= 0)
        for h in (0.5, 1.0, 2.0):
            res = rdd_sharp(y, x, cutoff=0.0, bandwidth=h, kernel="uniform")
            assert res.theta == pytest.approx(4.0, abs=1e-10)

    def test_no_jump(self):
        x = np.linspace(-1, 1, 21)
        res = rdd_sharp(2.0 * x, x, cutoff=0.0, bandwidth=1.0,
                        kernel="triangular")
        assert res.theta == pytest.approx(0.0, abs=1e-10)

    def test_one_side_empty(self):
        x = np.linspace(0.1, 1.0, 10)
        with pytest.raises(OneSideEmpty):
            rdd_sharp(x, x, cutoff=0.0, bandwidth=1.0, kernel="uniform")

    def test_bandwidth_restricts_sample(self):
        x = np.array([-5.0, -0.8, -0.4, 0.4, 0.8, 5.0])
        y = np.array([100.0, 1.0, 2.0, 5.0, 6.0, -100.0])
        res = rdd_sharp(y, x, cutoff=0.0, bandwidth=1.0, kernel="uniform")
        assert res.diagnostics["n_left"] == 2
        assert res.diagnostics["n_right"] == 2
        # Two points per side pin each line: boundary values 4 and 3.
        assert res.theta == pytest.approx(1.0)

    @pytest.mark.parametrize("kernel", ["triangular", "uniform"])
    def test_influence_reproduces_standard_error(self, kernel):
        r = np.random.default_rng(30)
        x = r.uniform(-1.0, 1.0, 400)
        Z = r.standard_normal((400, 2))
        y = (0.5 * x + 1.0 * (x >= 0) + Z[:, 0]
             + (1.0 + x**2) * r.standard_normal(400))
        res = rdd_sharp(y, x, cutoff=0.0, bandwidth=0.6, kernel=kernel, Z=Z)
        assert res.influence.shape == (res.n,)
        assert np.sqrt(np.mean(res.influence**2) / res.n) == pytest.approx(
            res.std_errors[0], rel=1e-10)


class TestNormalInterval:
    def test_default_is_normal_quantile(self):
        lo, hi = normal_interval(np.array([1.0, -2.0]), np.array([0.5, 2.0]),
                                 0.05)
        z = 1.959963984540054
        assert np.array_equal(lo, np.array([1.0 - z * 0.5, -2.0 - z * 2.0]))
        assert np.array_equal(hi, np.array([1.0 + z * 0.5, -2.0 + z * 2.0]))

    def test_critical_value_gives_band(self):
        lo, hi = normal_interval(3.0, 0.25, 0.05, critical_value=2.5)
        assert (lo, hi) == (3.0 - 2.5 * 0.25, 3.0 + 2.5 * 0.25)


class TestRddTriangularSandwich:
    def test_standard_error_is_wls_sandwich(self):
        r = np.random.default_rng(30)
        x = r.uniform(-1.0, 1.0, 400)
        y = 0.5 * x + 1.0 * (x >= 0) + (1.0 + x**2) * r.standard_normal(400)
        res = rdd_sharp(y, x, cutoff=0.0, bandwidth=0.6, kernel="triangular")
        u = x / 0.6
        keep = np.abs(u) < 1.0
        w = (1.0 - np.abs(u))[keep]
        t = (x >= 0)[keep].astype(float)
        X = np.column_stack([np.ones(w.size), t, u[keep], t * u[keep]])
        bread = np.linalg.inv(X.T @ (X * w[:, None]))
        e = y[keep] - X @ (bread @ (X.T @ (w * y[keep])))
        meat = X.T @ (X * (w**2 * e**2)[:, None])
        se = np.sqrt((bread @ meat @ bread)[1, 1])
        assert res.std_errors[0] == pytest.approx(se, rel=1e-10)


# A propensity below the trim: every row is clipped up into [trim, 1 - trim].
LOW = FunctionLearner(lambda X: np.full(X.shape[0], 0.001))
TRIM_Y = np.arange(8.0)
TRIM_D = np.tile([1.0, 0.0], 4)
TRIM_T = np.repeat([1.0, 2.0, 1.0, 2.0], 2)  # every (d, t) cell twice


@pytest.mark.parametrize("estimator", [
    lambda: dml_atet(TRIM_Y, TRIM_D, None, ZeroLearner(), LOW,
                     no_crossfit_plan(8)),
    lambda: dml_did_panel(TRIM_Y, 2.0 * TRIM_Y, TRIM_D, None, ZeroLearner(),
                          LOW, no_crossfit_plan(8)),
    lambda: dml_did_rcs(TRIM_Y, TRIM_T, TRIM_D, None, ZeroLearner(), LOW,
                        no_crossfit_plan(8)),
], ids=["atet", "did_panel", "did_rcs"])
def test_lower_tail_clip_is_counted(estimator):
    assert estimator().trim_count == 8


def test_trim_counts_the_logistic_learners_own_clip():
    # LogisticLearner clips its probabilities to [0.01, 0.99], the default
    # trim, so the rows it clipped sit on the bound rather than beyond it.
    r = np.random.default_rng(5)
    X = r.standard_normal((2000, 2))
    d = (r.random(2000) < 1.0 / (1.0 + np.exp(-3.0 * X[:, 0]))).astype(float)
    y = d + X[:, 1] + r.standard_normal(2000)
    plan = make_folds(2000, 2, seed=0)
    m, _ = cross_fit_predict(LogisticLearner(), X, d, plan)
    on_bound = int(np.sum((m == 0.01) | (m == 0.99)))
    assert on_bound > 0
    res = dml_irm_ate(y, d, X, MeanLearner(), LogisticLearner(), plan)
    assert res.trim_count == on_bound

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from dmlkit.errors import DimensionMismatch
from dmlkit.weak_id import (c_statistic, default_grid, first_stage_diag,
                            generic_weak_id, robust_region)


class TestCStatistic:
    def test_hand_moments(self):
        # Moments (1, -1, 1, 1): mean 0.25, variance 0.75, C = 4/3.
        ry = np.array([1.0, -1.0, 1.0, 1.0])
        c = c_statistic(ry, np.zeros(4), np.ones(4), theta=0.0)
        assert c == pytest.approx(4.0 / 3.0)

    def test_zero_at_orthogonal_point(self):
        rd = np.array([1.0, 2.0, 3.0, 4.0])
        ry = rd + np.array([1.0, -1.0, 1.0, -1.0])
        rz = np.array([1.0, 1.0, -1.0, -1.0])
        assert c_statistic(ry, rd, rz, theta=1.0) == pytest.approx(0.0)

    def test_needs_two_observations(self):
        with pytest.raises(DimensionMismatch):
            c_statistic(np.array([1.0]), np.array([0.0]), np.array([1.0]),
                        theta=0.0)

    @given(st.integers(0, 10_000))
    def test_nonnegative(self, seed):
        r = np.random.default_rng(seed)
        ry = r.standard_normal(20)
        rd = r.standard_normal(20)
        rz = r.standard_normal(20)
        theta = float(r.uniform(-3, 3))
        assert c_statistic(ry, rd, rz, theta) >= 0.0


class TestRobustRegion:
    def _strong_iv(self, seed=0, n=400, theta0=1.5):
        r = np.random.default_rng(seed)
        z = r.standard_normal(n)
        d = 2.0 * z + r.standard_normal(n)
        y = theta0 * d + r.standard_normal(n)
        return y - y.mean(), d - d.mean(), z - z.mean()

    def test_contains_truth_with_strong_instrument(self):
        ry, rd, rz = self._strong_iv()
        region = robust_region(ry, rd, rz, default_grid(0.0, 3.0))
        assert region.contains(1.5)
        assert not region.empty
        assert not region.disconnected

    def test_close_to_wald_when_strong(self):
        ry, rd, rz = self._strong_iv(seed=1)
        region = robust_region(ry, rd, rz, default_grid(0.0, 3.0))
        theta_hat = float(rz @ ry / (rz @ rd))
        eps = ry - theta_hat * rd
        se = np.sqrt(np.mean(rz**2 * eps**2)) / abs(np.mean(rz * rd))
        se /= np.sqrt(ry.size)
        lo, hi = region.intervals[0].lower, region.intervals[0].upper
        assert lo == pytest.approx(theta_hat - 1.96 * se, abs=3.0 * se)
        assert hi == pytest.approx(theta_hat + 1.96 * se, abs=3.0 * se)
        assert (hi - lo) < 8.0 * se

    def test_monotone_in_level(self):
        ry, rd, rz = self._strong_iv(seed=2)
        grid = default_grid(0.0, 3.0)
        narrow = robust_region(ry, rd, rz, grid, alpha=0.10)
        wide = robust_region(ry, rd, rz, grid, alpha=0.01)
        assert np.all(wide.accepted >= narrow.accepted)

    def test_irrelevant_instrument_gives_wide_region(self):
        r = np.random.default_rng(3)
        n = 200
        z = r.standard_normal(n)
        d = r.standard_normal(n)
        y = 1.0 * d + r.standard_normal(n)
        region = robust_region(y - y.mean(), d - d.mean(), z - z.mean(),
                               default_grid(-10.0, 10.0))
        covered = sum(iv.upper - iv.lower for iv in region.intervals)
        assert covered > 10.0  # most of the grid stays accepted

    def test_two_instruments_use_chi2_two(self):
        r = np.random.default_rng(4)
        n = 300
        Z = r.standard_normal((n, 2))
        d = Z @ np.array([1.0, 0.5]) + r.standard_normal(n)
        y = 0.5 * d + r.standard_normal(n)
        region = robust_region(y - y.mean(), d - d.mean(),
                               Z - Z.mean(axis=0), default_grid(-1.0, 2.0))
        assert region.dof == 2
        assert region.critical_value == pytest.approx(stats.chi2.ppf(0.95, 2))

    def test_unsorted_grid_rejected(self):
        ry, rd, rz = self._strong_iv(seed=5, n=20)
        with pytest.raises(DimensionMismatch):
            robust_region(ry, rd, rz, np.array([1.0, 0.0, 2.0]))

    def test_jitter_flag_on_constant_moments(self):
        # Identical moment rows leave zero variance; the statistic is
        # still returned, with the jitter fallback flagged.
        region = robust_region(np.ones(4), np.zeros(4), np.ones(4),
                               np.array([0.0]))
        assert region.jitter_used


class TestGenericRegion:
    @staticmethod
    def _score(f):
        base = np.array([1.0, -1.0])  # mean zero, unit variance

        def score_values(theta):
            return base + f(theta)

        return score_values

    def test_disconnected_acceptance(self):
        region = generic_weak_id(self._score(lambda t: 3.0 * (t**2 - 1.0)),
                                 default_grid(-2.0, 2.0))
        assert region.disconnected
        assert region.contains(-1.0) and region.contains(1.0)
        assert not region.contains(0.0)

    def test_empty_region_flagged_not_raised(self):
        region = generic_weak_id(self._score(lambda t: t**2 + 10.0),
                                 default_grid(-1.0, 1.0))
        assert region.empty
        assert region.intervals == []

    def test_edge_touching_interval_marked_open(self):
        region = generic_weak_id(self._score(lambda t: 0.1 * t),
                                 default_grid(-1.0, 1.0))
        assert len(region.intervals) == 1
        iv = region.intervals[0]
        assert iv.open_lower and iv.open_upper


class TestFirstStage:
    def test_strong(self):
        r = np.random.default_rng(6)
        z = r.standard_normal(500)
        d = 1.0 * z + 0.5 * r.standard_normal(500)
        diag = first_stage_diag(d, z)
        assert diag["strong"]
        assert diag["coefficient"] == pytest.approx(1.0, abs=0.15)

    def test_weak(self):
        r = np.random.default_rng(7)
        z = r.standard_normal(500)
        d = 0.01 * z + r.standard_normal(500)
        assert not first_stage_diag(d, z)["strong"]

    def test_needs_three_observations(self):
        with pytest.raises(DimensionMismatch):
            first_stage_diag(np.array([1.0, 2.0]), np.array([0.0, 1.0]))


def test_empty_grid_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        generic_weak_id(lambda theta: np.ones((4, 1)), np.array([]))

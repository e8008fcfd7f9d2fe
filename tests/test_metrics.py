import numpy as np
import pytest

from pie import (
    ConfigError,
    DataError,
    NumericError,
    QuantileTable,
    accuracy,
    bias_variance_summary,
    default_grid,
    kde_1d,
    quantile_gap,
    quantile_table,
    rate_fit,
    sample_poisson_gamma,
    table_moments,
    w2_from_tables,
)
import pie.metrics
from pie.metrics import DensityEstimate
from oracles import direct_kernel_sum, normal_quantile

trapezoid = getattr(np, "trapezoid", None) or np.trapz


def normal_table(mu, sigma, grid):
    return QuantileTable(grid, normal_quantile(mu, sigma, grid))


class TestW2:
    def test_zero_on_equal(self):
        t = quantile_table(np.random.default_rng(0).standard_normal(100))
        assert w2_from_tables(t, t) == 0.0

    def test_point_masses(self):
        grid = default_grid(99)
        a = QuantileTable(grid, np.zeros(99))
        b = QuantileTable(grid, np.full(99, -2.5))
        assert w2_from_tables(a, b) == pytest.approx(2.5, abs=1e-12)

    def test_gaussian_location_shift(self):
        grid = default_grid()
        assert w2_from_tables(normal_table(0, 1, grid),
                              normal_table(1, 1, grid)) == pytest.approx(1.0, abs=1e-3)

    def test_metric_properties_random_triples(self):
        g = np.random.default_rng(1)
        grid = default_grid(199)
        for _ in range(500):
            a, b, c = (quantile_table(g.normal(g.normal(), g.uniform(0.5, 2.0),
                                               size=40), grid)
                       for _ in range(3))
            dab = w2_from_tables(a, b)
            dba = w2_from_tables(b, a)
            assert dab == dba >= 0.0
            assert w2_from_tables(a, c) <= dab + w2_from_tables(b, c) + 1e-9

    def test_grid_mismatch(self):
        a = quantile_table([1.0, 2.0], default_grid(9))
        b = quantile_table([1.0, 2.0], default_grid(19))
        with pytest.raises(ConfigError):
            w2_from_tables(a, b)


class TestTableMoments:
    def test_gaussian_moments(self):
        grid = default_grid()
        mean, var = table_moments(normal_table(2.0, 3.0, grid))
        assert mean == pytest.approx(2.0, abs=1e-10)
        # grid truncation at u in [0.001, 0.999] loses a little tail variance
        assert var == pytest.approx(9.0, rel=5e-3)


class TestKde:
    def test_standard_normal_peak(self):
        x = np.random.default_rng(2).standard_normal(100000)
        est = kde_1d(x)
        assert est.at(0.0) == pytest.approx(0.3989, abs=0.03)

    def test_unit_mass(self):
        for size in (2, 5, 1000):
            x = np.random.default_rng(size).standard_normal(size)
            est = kde_1d(x)
            assert abs(float(trapezoid(est.density, est.grid_x)) - 1.0) < 1e-3

    def test_translation_equivariance(self):
        x = np.random.default_rng(3).standard_normal(500)
        a = kde_1d(x)
        b = kde_1d(x + 7.5)
        assert np.allclose(b.grid_x, a.grid_x + 7.5, atol=1e-9)
        assert np.allclose(b.density, a.density, atol=1e-12)

    def test_permutation_invariance(self):
        g = np.random.default_rng(4)
        x = g.standard_normal(2000)
        a = kde_1d(x)
        b = kde_1d(g.permutation(x))
        assert np.allclose(a.density, b.density, rtol=1e-12, atol=1e-15)

    def test_degenerate_and_small_inputs(self):
        with pytest.raises(NumericError):
            kde_1d(np.ones(10))
        with pytest.raises(DataError):
            kde_1d([1.0])
        with pytest.raises(DataError, match="non-finite"):
            kde_1d([1.0, np.inf])
        with pytest.raises(ConfigError, match="bandwidth must be positive"):
            kde_1d([1.0, 2.0], bandwidth=0.0)

    def test_density_estimate_validation(self):
        with pytest.raises(ConfigError, match="increasing with >= 2 points"):
            DensityEstimate([0.0], [1.0], 1.0)
        with pytest.raises(NumericError, match="finite and nonnegative"):
            DensityEstimate([0.0, 1.0], [-1.0, 1.0], 1.0)
        with pytest.raises(NumericError, match="does not integrate to 1"):
            DensityEstimate([0.0, 1.0], [5.0, 5.0], 1.0)
        with pytest.raises(ConfigError, match="bandwidth must be positive"):
            DensityEstimate([0.0, 1.0], [1.0, 1.0], 0.0)

    def test_few_ulp_spread_is_numeric(self):
        # the 3h margins round away, so the grid would repeat points
        x = np.repeat([1.0, np.nextafter(1.0, 2.0)], 500)
        with pytest.raises(NumericError, match="spread"):
            kde_1d(x)
        assert np.isfinite(accuracy(x, x))


class TestAccuracy:
    def test_identical_samples(self):
        x = np.random.default_rng(5).standard_normal(5000)
        assert accuracy(x, x) >= 0.99

    def test_disjoint_supports(self):
        g = np.random.default_rng(6)
        assert accuracy(g.standard_normal(10000),
                        g.standard_normal(10000) + 100.0) <= 0.02

    def test_independent_standard_normals(self):
        g = np.random.default_rng(7)
        assert accuracy(g.standard_normal(100000),
                        g.standard_normal(100000)) >= 0.95

    def test_constant_sample_with_rounding_residue(self):
        # np.std of 1000 copies of 2.9 is a rounding residue (8.9e-16), not 0;
        # the sample still has no spread to score
        x = np.full(1000, 2.9)
        assert np.std(x) > 0
        with pytest.raises(NumericError, match="degenerate sample: zero spread"):
            accuracy(x, np.random.default_rng(9).standard_normal(1000))

    def test_needs_two_samples_each(self):
        with pytest.raises(DataError, match="at least 2 samples"):
            accuracy([1.0], [1.0, 2.0])

    def test_symmetry(self):
        g = np.random.default_rng(8)
        a = g.standard_normal(3000)
        b = g.normal(0.3, 1.2, 3000)
        assert accuracy(a, b) == accuracy(b, a)


class TestBinnedKernel:
    """The binned kernel sum against the direct sum over every sample."""

    @pytest.mark.parametrize("T", [2, 50, 1000, 10000])
    def test_density_matches_direct_sum(self, T):
        x = np.random.default_rng(T).standard_normal(T)
        est = kde_1d(x)
        ref = direct_kernel_sum(x, est.bandwidth, est.grid_x)
        ref /= float(trapezoid(ref, est.grid_x))
        assert np.max(np.abs(est.density - ref)) <= 2e-3 * np.max(ref)

    @pytest.mark.parametrize("T", [1000, 10000])
    @pytest.mark.parametrize("draw", [
        lambda g, T: g.standard_normal(T),
        lambda g, T: g.standard_t(5, T),
    ], ids=["normal", "student-t5"])
    def test_accuracy_matches_direct_sum(self, monkeypatch, draw, T):
        g = np.random.default_rng(T)
        a = draw(g, T)
        b = 1.1 * draw(g, T) + 0.1
        binned = accuracy(a, b)
        monkeypatch.setattr(pie.metrics, "_kernel_sum", direct_kernel_sum)
        assert abs(binned - accuracy(a, b)) <= 1e-4

    def test_bandwidth_below_grid_spacing(self):
        g = np.random.default_rng(10)
        x = g.standard_normal(1000)
        est = kde_1d(x, bandwidth=1e-6)
        assert est.bandwidth < est.grid_x[1] - est.grid_x[0]
        assert np.all(np.isfinite(est.density))
        assert abs(float(trapezoid(est.density, est.grid_x)) - 1.0) < 1e-3
        # one side's Silverman bandwidth far below the shared grid's spacing
        value = accuracy(g.normal(0.0, 1e-6, 1000), x)
        assert 0.0 <= value <= 0.05


class TestBiasVariance:
    def test_constant_draws(self):
        assert bias_variance_summary([1.0, 1.0, 1.0, 1.0], 1.0) == (0.0, 0.0)

    def test_two_point(self):
        bias, var = bias_variance_summary([0.0, 2.0], 0.0)
        assert (bias, var) == (1.0, 2.0)

    def test_gamma_oracle_moments(self):
        T = 50000
        draws = sample_poisson_gamma([1, 2, 3], 2.0, 1.0, 1.0, T, seed=1).values[:, 0]
        bias, var = bias_variance_summary(draws, 13.0 / 7.0)
        se = np.sqrt(13.0 / 49.0 / T)
        assert abs(bias) < 3 * se
        assert var == pytest.approx(13.0 / 49.0, rel=0.10)

    def test_affine_equivariance(self):
        g = np.random.default_rng(9)
        draws = g.standard_normal(50)
        c, s, xi0 = 2.5, -1.0, 0.3
        bias, var = bias_variance_summary(draws, xi0)
        bias2, var2 = bias_variance_summary(c * draws + s, c * xi0 + s)
        assert bias2 == pytest.approx(c * bias, rel=1e-12, abs=1e-12)
        assert var2 == pytest.approx(c ** 2 * var, rel=1e-12)

    def test_insufficient(self):
        with pytest.raises(DataError):
            bias_variance_summary([1.0], 0.0)


class TestQuantileGap:
    def test_zero_on_equal(self):
        t = normal_table(0, 1, default_grid(99))
        assert quantile_gap(t, t, 0.05, 0.95) == 0.0

    def test_constant_offset(self):
        grid = default_grid(99)
        a = normal_table(0, 1, grid)
        b = QuantileTable(grid, a.values + 0.75)
        assert quantile_gap(a, b, 0.1, 0.9) == pytest.approx(0.75, abs=1e-12)

    def test_range_errors(self):
        t = normal_table(0, 1, default_grid(9))  # grid 0.1 .. 0.9
        with pytest.raises(ConfigError):
            quantile_gap(t, t, 0.9, 0.1)
        with pytest.raises(ConfigError):
            quantile_gap(t, t, 0.91, 0.99)


class TestRateFit:
    def test_exact_square_root_decay(self):
        ns = np.array([10.0, 100.0, 1000.0, 10000.0])
        fit = rate_fit(ns, ns ** -0.5)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)

    def test_constant(self):
        fit = rate_fit([10.0, 100.0, 1000.0], [2.0, 2.0, 2.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            rate_fit([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ConfigError):
            rate_fit([1.0, 2.0, 3.0], [1.0, -1.0, 1.0])

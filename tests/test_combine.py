import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pie import (
    ConfigError,
    DataError,
    DrawMatrix,
    GaussianApprox,
    IntervalEstimate,
    NumericError,
    QuantileTable,
    average_quantile_tables,
    barycenter_residual,
    consensus_combine,
    default_grid,
    empirical_quantile,
    gaussian_barycenter,
    normal_linear_nig_params,
    partition,
    pie_interval,
    poisson_gamma_params,
    quantile_table,
    rate_fit,
    sample_from_table,
    simulate_linear,
    simulate_univariate,
    table_moments,
    w2_from_tables,
)
from pie.combine import _order_statistics
from oracles import normal_quantile


class TestEmpiricalQuantile:
    def test_floor_index(self):
        assert empirical_quantile([10, 20, 30, 40], 0.75) == 30.0

    def test_clamp_to_minimum(self):
        assert empirical_quantile([3, 1, 2], 0.1) == 1.0

    def test_single_draw(self):
        for u in (0.01, 0.5, 0.99):
            assert empirical_quantile([4.2], u) == 4.2

    def test_errors(self):
        with pytest.raises(DataError):
            empirical_quantile([], 0.5)
        with pytest.raises(ConfigError):
            empirical_quantile([1.0], 0.0)


class TestQuantileTable:
    def test_single_point_grid_matches_scalar_rule(self):
        g = np.random.default_rng(0)
        draws = g.standard_normal(53)
        for u in (0.05, 0.31, 0.9):
            table = quantile_table(draws, [u])
            assert table.values[0] == empirical_quantile(draws, u)

    def test_uniform_ladder(self):
        draws = np.arange(1.0, 1001.0)
        table = quantile_table(draws)
        assert np.all(np.abs(table.values - 1000.0 * table.grid) <= 1.0)

    def test_sort_invariance(self):
        g = np.random.default_rng(1)
        draws = g.standard_normal(200)
        t1 = quantile_table(draws)
        t2 = quantile_table(g.permutation(draws))
        assert np.array_equal(t1.values, t2.values)

    def test_order_statistics_sort_each_column(self):
        g = np.random.default_rng(2)
        block = np.sort(g.standard_normal((300, 4)), axis=0)
        shuffled = g.permuted(block, axis=0)  # each column shuffled on its own
        assert not np.array_equal(shuffled, block)
        levels = np.concatenate([default_grid(99), [0.001, 0.025, 0.975, 0.999]])
        rows = _order_statistics(shuffled, levels)
        assert rows.tobytes() == _order_statistics(block, levels).tobytes()
        for c in range(block.shape[1]):
            table = quantile_table(shuffled[:, c], levels[:99])
            assert np.array_equal(rows[:99, c], table.values)

    def test_monotone_validation(self):
        with pytest.raises(ConfigError):
            QuantileTable(np.array([0.1, 0.2]), np.array([1.0, 0.5]))
        with pytest.raises(ConfigError):
            QuantileTable(np.array([0.2, 0.1]), np.array([0.0, 1.0]))
        with pytest.raises(ConfigError):
            QuantileTable(np.array([0.0, 0.5]), np.array([0.0, 1.0]))
        with pytest.raises(ConfigError, match="equal length"):
            QuantileTable([0.5], [1.0, 2.0])
        with pytest.raises(NumericError, match="non-finite"):
            QuantileTable([0.5], [np.nan])


class TestAverageTables:
    def test_idempotent(self):
        table = quantile_table(np.random.default_rng(2).standard_normal(100))
        out = average_quantile_tables([table] * 5)
        np.testing.assert_allclose(out.values, table.values, rtol=0, atol=1e-15)

    def test_location_shift(self):
        grid = default_grid()
        t0 = QuantileTable(grid, normal_quantile(0.0, 1.0, grid))
        t2 = QuantileTable(grid, normal_quantile(2.0, 1.0, grid))
        out = average_quantile_tables([t0, t2])
        assert np.allclose(out.values, normal_quantile(1.0, 1.0, grid), atol=1e-12)

    def test_scale_average(self):
        grid = default_grid()
        t1 = QuantileTable(grid, normal_quantile(0.0, 1.0, grid))
        t3 = QuantileTable(grid, normal_quantile(0.0, 3.0, grid))
        out = average_quantile_tables([t1, t3])
        assert np.allclose(out.values, normal_quantile(0.0, 2.0, grid), atol=1e-12)

    def test_no_tables(self):
        with pytest.raises(ConfigError, match="at least one quantile table"):
            average_quantile_tables([])

    def test_grid_mismatch(self):
        a = quantile_table([1.0, 2.0], default_grid(9))
        b = quantile_table([1.0, 2.0], default_grid(10))
        with pytest.raises(ConfigError):
            average_quantile_tables([a, b])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), K=st.integers(1, 6))
    def test_monotone_output(self, seed, K):
        g = np.random.default_rng(seed)
        grid = default_grid(97)
        tables = [quantile_table(g.standard_normal(g.integers(2, 80)), grid)
                  for _ in range(K)]
        out = average_quantile_tables(tables)
        assert np.all(np.diff(out.values) >= 0)

    def test_barycenter_identity_independent_recompute(self):
        g = np.random.default_rng(3)
        grid = default_grid(199)
        tables = [quantile_table(g.gamma(2.0, 1.0, size=300), grid) for _ in range(6)]
        out = average_quantile_tables(tables)
        for i in range(0, 199, 17):
            expected = math.fsum(t.values[i] for t in tables) / 6.0
            assert out.values[i] == pytest.approx(expected, abs=1e-12)


class TestPieInterval:
    def test_two_shard_arithmetic(self):
        shard1 = np.concatenate([np.zeros(50), np.full(50, 10.0)])
        shard2 = np.concatenate([np.full(50, 2.0), np.full(50, 14.0)])
        est = pie_interval([shard1, shard2], alpha=0.1)
        assert (est.lower, est.upper) == (1.0, 12.0)

    def test_identical_shards_collapse(self):
        g = np.random.default_rng(4)
        draws = g.standard_normal(500)
        est = pie_interval([draws] * 4, alpha=0.2)
        assert est.lower == empirical_quantile(draws, 0.1)
        assert est.upper == empirical_quantile(draws, 0.9)

    def test_exact_gamma_oracle(self):
        from pie import sample_poisson_gamma
        from oracles import gamma_quantile

        T = 50000
        d1 = sample_poisson_gamma([1, 2, 3], 2.0, 1.0, 1.0, T, seed=100).values[:, 0]
        d2 = sample_poisson_gamma([2, 1, 1], 2.0, 1.0, 1.0, T, seed=101).values[:, 0]
        est = pie_interval([d1, d2], alpha=0.1)
        lo = (gamma_quantile(13.0, 7.0, np.array([0.05]))[0]
              + gamma_quantile(9.0, 7.0, np.array([0.05]))[0]) / 2.0
        hi = (gamma_quantile(13.0, 7.0, np.array([0.95]))[0]
              + gamma_quantile(9.0, 7.0, np.array([0.95]))[0]) / 2.0
        assert abs(est.lower - lo) < 0.02
        assert abs(est.upper - hi) < 0.02

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           c=st.floats(0.1, 50.0), s=st.floats(-100.0, 100.0))
    def test_affine_equivariance(self, seed, c, s):
        g = np.random.default_rng(seed)
        shards = [g.standard_normal(g.integers(5, 60)) for _ in range(3)]
        base = pie_interval(shards, alpha=0.1)
        mapped = pie_interval([c * d + s for d in shards], alpha=0.1)
        assert mapped.lower == pytest.approx(c * base.lower + s, rel=1e-12, abs=1e-9)
        assert mapped.upper == pytest.approx(c * base.upper + s, rel=1e-12, abs=1e-9)

    def test_errors(self):
        with pytest.raises(ConfigError):
            pie_interval([[1.0, 2.0]], alpha=1.5)
        with pytest.raises(DataError):
            pie_interval([[1.0]], alpha=0.1)
        with pytest.raises(ConfigError, match="alpha must lie in"):
            IntervalEstimate(alpha=1.0, lower=0.0, upper=1.0)
        with pytest.raises(ConfigError, match="lower bound exceeds"):
            IntervalEstimate(alpha=0.1, lower=2.0, upper=1.0)


class TestLocalOptimality:
    def test_barycenter_beats_perturbations(self):
        # two discrete toy distributions on a 5-point support
        g = np.random.default_rng(5)
        grid = default_grid(199)
        d1 = g.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=400, p=[0.1, 0.2, 0.4, 0.2, 0.1])
        d2 = g.choice([-1.0, 0.0, 1.0, 2.0, 3.0], size=400, p=[0.3, 0.3, 0.2, 0.1, 0.1])
        tables = [quantile_table(d1, grid), quantile_table(d2, grid)]
        bary = average_quantile_tables(tables)
        objective = sum(w2_from_tables(bary, t) ** 2 for t in tables)
        for _ in range(200):
            noise = g.normal(0.0, 0.05, size=grid.size)
            perturbed = QuantileTable(grid, np.sort(bary.values + noise))
            perturbed_obj = sum(w2_from_tables(perturbed, t) ** 2 for t in tables)
            assert perturbed_obj >= objective - 1e-12


class TestGaussianBarycenter:
    def test_identical_inputs_fixed_point(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        g = GaussianApprox([1.0, -1.0], cov)
        out = gaussian_barycenter([g, g, g])
        assert np.array_equal(out.cov, cov)
        assert np.array_equal(out.mean, g.mean)

    def test_one_dimensional_mean_sd(self):
        out = gaussian_barycenter([GaussianApprox([0.0], [[1.0]]),
                                   GaussianApprox([2.0], [[9.0]])])
        assert out.cov[0, 0] == pytest.approx(4.0, abs=1e-12)
        assert out.mean[0] == 1.0

    def test_commuting_diagonal_case(self):
        a = GaussianApprox([0.0, 0.0], np.diag([1.0, 4.0]))
        b = GaussianApprox([0.0, 0.0], np.diag([9.0, 16.0]))
        out = gaussian_barycenter([a, b])
        assert np.allclose(out.cov, np.diag([4.0, 9.0]), atol=1e-9)
        assert barycenter_residual(out.cov, [a.cov, b.cov]) < 1e-10

    def test_random_one_dimensional_closed_form(self):
        g = np.random.default_rng(6)
        for _ in range(50):
            sds = g.uniform(0.1, 4.0, size=g.integers(1, 8))
            means = g.normal(size=sds.size)
            out = gaussian_barycenter([
                GaussianApprox([m], [[s ** 2]]) for m, s in zip(means, sds)
            ])
            assert out.cov[0, 0] == pytest.approx(sds.mean() ** 2, abs=1e-12)
            assert out.mean[0] == pytest.approx(means.mean(), abs=1e-12)

    def test_nonconvergence_reports_residual(self):
        a = GaussianApprox([0.0], [[1.0]])
        b = GaussianApprox([0.0], [[4.0]])
        with pytest.raises(NumericError, match="residual"):
            gaussian_barycenter([a, b], max_iter=0)

    def test_errors(self):
        with pytest.raises(ConfigError, match="at least one Gaussian"):
            gaussian_barycenter([])
        with pytest.raises(ConfigError, match="mixed dimensions"):
            gaussian_barycenter([GaussianApprox([0.0], [[1.0]]),
                                 GaussianApprox([0.0, 0.0], np.eye(2))])

    def test_psd_validation(self):
        with pytest.raises(ConfigError, match="must be 1 x 1"):
            GaussianApprox([0.0], [[1.0, 0.0]])
        with pytest.raises(ConfigError):
            GaussianApprox([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(ConfigError):
            GaussianApprox([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])  # asymmetric


class TestConsensus:
    def test_single_shard_identity(self):
        g = np.random.default_rng(7)
        dm = DrawMatrix(g.standard_normal((40, 2)))
        out = consensus_combine([dm])
        assert np.array_equal(out.values, dm.values)

    def test_equal_covariances_average(self):
        g = np.random.default_rng(8)
        base = g.standard_normal((200, 2))
        d1 = DrawMatrix(base)
        d2 = DrawMatrix(base + np.array([5.0, -3.0]))  # same sample covariance
        out = consensus_combine([d1, d2])
        assert np.allclose(out.values, (d1.values + d2.values) / 2.0, atol=1e-10)

    def test_inverse_variance_weights(self):
        d1 = DrawMatrix(np.array([[0.0], [math.sqrt(2.0)]]))
        d2 = DrawMatrix(np.array([[0.0], [2.0 * math.sqrt(2.0)]]))
        out = consensus_combine([d1, d2])
        expected = 0.8 * d1.values + 0.2 * d2.values
        assert np.allclose(out.values, expected, atol=1e-12)

    def test_affine_commutation(self):
        g = np.random.default_rng(9)
        shards = [DrawMatrix(g.standard_normal((300, 3)) @ g.standard_normal((3, 3))
                             + g.standard_normal(3)) for _ in range(4)]
        A = g.standard_normal((3, 3)) + 3.0 * np.eye(3)
        c = g.standard_normal(3)
        direct = consensus_combine(
            [DrawMatrix(dm.values @ A.T + c) for dm in shards]
        ).values
        mapped = consensus_combine(shards).values @ A.T + c
        assert np.allclose(direct, mapped, atol=1e-10)

    def test_singular_inputs(self):
        flat = DrawMatrix(np.zeros((10, 2)))
        with pytest.raises(NumericError):
            consensus_combine([flat, flat])
        with pytest.raises(ConfigError):
            consensus_combine([DrawMatrix(np.ones((4, 1)) * np.arange(4)[:, None]),
                               DrawMatrix(np.ones((5, 1)) * np.arange(5)[:, None])])
        with pytest.raises(ConfigError, match="at least one shard"):
            consensus_combine([])
        with pytest.raises(DataError, match="at least 2 draws"):
            consensus_combine([DrawMatrix([[1.0]]), DrawMatrix([[2.0]])])

    def test_singular_combined_weights(self):
        # two shards whose coordinates differ by 1e-8 sd: each covariance is
        # inverted, but in some trials the sum of the inverses rounds to a
        # matrix with an exactly zero pivot
        singular = 0
        for seed in range(200):
            g = np.random.default_rng(seed)
            shards = []
            for _ in range(2):
                x = g.standard_normal(20)
                shards.append(DrawMatrix(np.column_stack([x, x + 1e-8 * g.standard_normal(20)])))
            try:
                consensus_combine(shards)
            except NumericError as exc:
                singular += str(exc) == "singular combined weight matrix"
        assert singular > 0


class TestSampleFromTable:
    def test_interpolated_inverse_cdf(self):
        grid = default_grid(999)
        table = QuantileTable(grid, normal_quantile(0.0, 1.0, grid))
        draws = sample_from_table(table, 50000, np.random.default_rng(10))
        assert abs(np.mean(draws)) < 0.02
        assert abs(np.std(draws) - 1.0) < 0.02

    def test_errors(self):
        table = QuantileTable([0.5], [1.0])
        with pytest.raises(ConfigError, match="sample size"):
            sample_from_table(table, 0, np.random.default_rng(0))


class TestMethodError:
    """The barycenter's own error, with no sampling: each shard's tempered law
    is read exactly on the grid, the shard tables averaged, and the result
    scored against the exact full posterior, in posterior sd."""

    K = 10
    NS = (10 ** 4, 10 ** 5, 10 ** 6)
    SEEDS = (0, 1)
    GRID = default_grid(999)

    def _score(self, shard_laws, full_law):
        """W2 and mean shift of the averaged shard laws from ``full_law``,
        each a frozen scipy distribution, in units of the full law's sd."""
        tables = [QuantileTable(self.GRID, law.ppf(self.GRID)) for law in shard_laws]
        bary = average_quantile_tables(tables)
        full = QuantileTable(self.GRID, full_law.ppf(self.GRID))
        sd = full_law.std()
        shift = table_moments(bary)[0] - table_moments(full)[0]
        return w2_from_tables(bary, full) / sd, shift / sd

    def _shards(self, n, seed):
        plan = partition(n, self.K, seed)
        return [plan.shard_indices(j) for j in range(self.K)]

    def test_poisson_rate_error_falls_like_one_over_n(self):
        def law(y, temper):
            shape, rate = poisson_gamma_params(y, temper, 1.0, 1.0)
            return stats.gamma(shape, scale=1.0 / rate)

        errors = []
        for n in self.NS:
            w2s = []
            for seed in self.SEEDS:
                y = simulate_univariate("poisson", 3.0, n, seed).responses
                shards = [law(y[idx], n / idx.size) for idx in self._shards(n, seed)]
                w2s.append(self._score(shards, law(y, 1.0))[0])
            errors.append(np.mean(w2s))
        assert errors[0] > errors[1] > errors[2], errors
        assert rate_fit(self.NS, errors).slope <= -0.8, errors

    def test_linear_errors_fall_and_noise_variance_is_biased_low(self):
        p = 3
        prior = (np.zeros(p), 100.0 * np.eye(p), 6.0, 2.0)

        def laws(y, Z, temper):
            post = normal_linear_nig_params(y, Z, temper, *prior)
            scale2 = post.noise_rate / post.noise_shape * np.linalg.inv(post.coef_precision)
            return (stats.t(2.0 * post.noise_shape, post.coef_location[0],
                            math.sqrt(scale2[0, 0])),
                    stats.invgamma(post.noise_shape, scale=post.noise_rate))

        coef, noise, shifts = [], [], []
        for n in self.NS:
            scores = []
            for seed in self.SEEDS:
                obs = simulate_linear(n, p, seed)
                y, Z = obs.responses, obs.design
                shards = [laws(y[idx], Z[idx], n / idx.size) for idx in self._shards(n, seed)]
                full = laws(y, Z, 1.0)
                scores.append([*self._score([s[0] for s in shards], full[0]),
                               *self._score([s[1] for s in shards], full[1])])
            w2_coef, _, w2_noise, shift = np.mean(scores, axis=0)
            coef.append(w2_coef)
            noise.append(w2_noise)
            shifts.append(shift)
        assert coef[0] > coef[1] > coef[2] and noise[0] > noise[1] > noise[2], (coef, noise)
        # measured slopes -0.35 and -0.50
        assert rate_fit(self.NS, coef).slope <= -0.25, coef
        assert rate_fit(self.NS, noise).slope <= -0.4, noise
        # each shard's residual sum of squares has m - p degrees of freedom and
        # tempering scales it by n / m: the mean falls p (K - 1) / sqrt(2 n) sd low
        for n, shift in zip(self.NS, shifts):
            predicted = -p * (self.K - 1) / math.sqrt(2.0 * n)
            assert 0.5 <= shift / predicted <= 1.5, (n, shift, predicted)

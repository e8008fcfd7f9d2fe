import numpy as np
import pytest

from pie import (
    ConfigError,
    DataError,
    DrawMatrix,
    NumericError,
    combine_multidim,
    default_grid,
    marginal_tables,
    pooled_center_scale,
    quantile_table,
)


def gaussian_shards(rng, means, cov, T):
    return [DrawMatrix(rng.multivariate_normal(mu, cov, size=T), shard_id=j)
            for j, mu in enumerate(means)]


class TestPooledCenterScale:
    def test_single_shard_self_whitening(self):
        g = np.random.default_rng(0)
        dm = DrawMatrix(g.multivariate_normal([1.0, -2.0], [[2.0, 0.7], [0.7, 1.0]],
                                              size=5000))
        transform, whitened = pooled_center_scale([dm])
        w = whitened[0].values
        assert np.all(np.abs(w.mean(axis=0)) < 1e-10)
        assert np.allclose(np.cov(w, rowvar=False, ddof=1), np.eye(2), atol=1e-8)

    def test_identical_shards_match_single(self):
        g = np.random.default_rng(1)
        dm = DrawMatrix(g.standard_normal((400, 3)))
        t1, _ = pooled_center_scale([dm])
        t2, _ = pooled_center_scale([dm, dm])
        assert np.allclose(t1.mean, t2.mean, atol=1e-12)
        assert np.allclose(t1.cov, t2.cov, atol=1e-12)

    def test_harmonic_pooling_one_dim(self):
        # exact sample variances 1 and 1/9: pooled inverse-average gives 0.2
        d1 = DrawMatrix(np.array([[0.0], [np.sqrt(2.0)]]))
        d2 = DrawMatrix(np.array([[0.0], [np.sqrt(2.0) / 3.0]]))
        transform, _ = pooled_center_scale([d1, d2])
        assert transform.cov[0, 0] == pytest.approx(0.2, rel=1e-12)

    def test_round_trip_identity(self):
        g = np.random.default_rng(2)
        shards = gaussian_shards(g, [[0.0, 0.0], [0.5, -0.5]],
                                 [[1.0, 0.3], [0.3, 2.0]], 500)
        transform, whitened = pooled_center_scale(shards)
        for original, white in zip(shards, whitened):
            back = transform.unwhiten(white.values)
            assert np.allclose(back, original.values, atol=1e-10)

    def test_pooled_inverse_is_average_of_inverses(self):
        g = np.random.default_rng(3)
        shards = gaussian_shards(g, [[0.0, 0.0]] * 3, np.eye(2), 300)
        transform, _ = pooled_center_scale(shards)
        invs = [np.linalg.inv(np.cov(dm.values, rowvar=False, ddof=1))
                for dm in shards]
        assert np.allclose(np.linalg.inv(transform.cov),
                           np.mean(np.stack(invs), axis=0), atol=1e-10)
        assert np.allclose(transform.cov_sqrt @ transform.cov_sqrt, transform.cov,
                           atol=1e-10)

    def test_errors(self):
        with pytest.raises(ConfigError):
            pooled_center_scale([])
        with pytest.raises(DataError):
            pooled_center_scale([DrawMatrix(np.ones((1, 2)))])
        g = np.random.default_rng(0)
        with pytest.raises(ConfigError, match="share the parameter dimension"):
            pooled_center_scale([DrawMatrix(g.standard_normal((5, 1))),
                                 DrawMatrix(g.standard_normal((5, 2)))])
        # coordinate scales of 1 and 1e-9 leave a covariance eigenvalue below
        # the relative floor
        with pytest.raises(NumericError, match="singular pooled covariance"):
            pooled_center_scale([DrawMatrix(g.standard_normal((50, 2)) * [1.0, 1e-9])
                                 for _ in range(2)])


class TestCombineMultidim:
    def test_single_shard_round_trip_marginals(self):
        g = np.random.default_rng(4)
        dm = DrawMatrix(g.multivariate_normal([0.0, 1.0], [[1.0, 0.4], [0.4, 0.5]],
                                              size=30000))
        out = combine_multidim([dm], T_out=200000, seed=9)
        grid = default_grid()
        mid = (grid >= 0.05) & (grid <= 0.95)
        for c in range(2):
            t_in = quantile_table(dm.values[:, c], grid)
            t_out = quantile_table(out.values[:, c], grid)
            sd = dm.values[:, c].std()
            assert np.max(np.abs(t_in.values[mid] - t_out.values[mid])) < 0.02 * sd

    def test_common_covariance_mean(self):
        g = np.random.default_rng(5)
        means = [[0.0, 0.0], [1.0, -1.0]]
        cov = [[1.0, 0.25], [0.25, 1.0]]
        shards = gaussian_shards(g, means, cov, 50000)
        out = combine_multidim(shards, seed=6)
        shard_means = np.stack([dm.values.mean(axis=0) for dm in shards])
        target = shard_means.mean(axis=0)
        se = np.sqrt(np.diag(np.cov(out.values, rowvar=False)) / out.T
                     + np.diag(np.asarray(cov)) / (out.T * len(shards)))
        assert np.all(np.abs(out.values.mean(axis=0) - target) < 4 * se)

    def test_affine_equivariance_by_simulation(self):
        g = np.random.default_rng(6)
        shards = gaussian_shards(g, [[0.0, 0.0], [0.3, 0.6], [-0.3, 0.2]],
                                 [[1.0, 0.5], [0.5, 1.5]], 20000)
        A = np.array([[2.0, 0.5], [-0.3, 1.0]])
        c = np.array([1.0, -2.0])
        mapped_inputs = [DrawMatrix(dm.values @ A.T + c) for dm in shards]
        out_mapped = combine_multidim(mapped_inputs, T_out=100000, seed=7)
        out_base = combine_multidim(shards, T_out=100000, seed=7)
        base_mapped = out_base.values @ A.T + c
        grid = default_grid(199)
        mid = (grid >= 0.05) & (grid <= 0.95)
        for col in range(2):
            ta = quantile_table(out_mapped.values[:, col], grid)
            tb = quantile_table(base_mapped[:, col], grid)
            sd = base_mapped[:, col].std()
            assert np.max(np.abs(ta.values[mid] - tb.values[mid])) < 0.05 * sd

    def test_standardized_output_moments(self):
        g = np.random.default_rng(7)
        shards = gaussian_shards(g, [[0.0, 0.0, 0.0], [0.5, 0.0, -0.5]],
                                 np.diag([1.0, 2.0, 0.5]), 20000)
        transform, _ = pooled_center_scale(shards)
        out = combine_multidim(shards, seed=8)
        std = transform.whiten(out.values)
        T_out = out.T
        assert np.all(np.abs(std.mean(axis=0)) < 3.0 / np.sqrt(T_out))
        corr = np.corrcoef(std, rowvar=False)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 5.0 / np.sqrt(T_out))

    def test_deterministic_in_seed(self):
        g = np.random.default_rng(8)
        shards = gaussian_shards(g, [[0.0], [1.0]], [[1.0]], 1000)
        a = combine_multidim(shards, seed=3)
        b = combine_multidim(shards, seed=3)
        c = combine_multidim(shards, seed=4)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_grid_too_short(self):
        g = np.random.default_rng(9)
        shards = gaussian_shards(g, [[0.0]], [[1.0]], 100)
        with pytest.raises(ConfigError):
            combine_multidim(shards, grid=[0.5])
        with pytest.raises(ConfigError, match="T_out must be >= 1"):
            combine_multidim(shards, T_out=0)

    def test_marginal_tables_shape(self):
        g = np.random.default_rng(10)
        dm = DrawMatrix(g.standard_normal((100, 3)))
        tables = marginal_tables(dm, default_grid(49))
        assert len(tables) == 3 and all(t.size == 49 for t in tables)

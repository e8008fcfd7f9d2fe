import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import poisson as sp_poisson

from pie import (
    ConfigError,
    DataError,
    LinearFunctional,
    NumericError,
    ModelSpec,
    ObservationSet,
    PartitionPlan,
    TemperedTarget,
    apply_functional,
    partition,
    tempered_log_density,
)
from pie.combine import GaussianApprox, PooledTransform, QuantileTable
from pie.families import LINEAR, POISSON
from pie.metrics import DensityEstimate, RateFit
from pie.samplers import DrawMatrix
from oracles import log_factorial_sum, normal_linear_log_density, reference_partition


class TestPartition:
    def test_disjoint_cover_small(self):
        plan = partition(6, 3, 7)
        assert sorted(plan.shard_sizes) == [2, 2, 2]
        seen = np.concatenate([plan.shard_indices(j) for j in range(3)])
        assert sorted(seen) == list(range(6))

    def test_remainder_rule(self):
        plan = partition(7, 3, 1)
        assert plan.shard_sizes.tolist() == [3, 2, 2]

    def test_divisible(self):
        plan = partition(10000, 10, 0)
        assert plan.shard_sizes.tolist() == [1000] * 10

    def test_invalid(self):
        with pytest.raises(ConfigError):
            partition(5, 0, 0)
        with pytest.raises(ConfigError):
            partition(5, 6, 0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 200), seed=st.integers(-(2 ** 31), 2 ** 31),
           data=st.data())
    def test_properties(self, n, seed, data):
        K = data.draw(st.integers(1, n))
        plan = partition(n, K, seed)
        shards = [plan.shard_indices(j) for j in range(K)]
        union = np.concatenate(shards)
        assert union.size == n and np.unique(union).size == n
        assert plan.shard_sizes.max() - plan.shard_sizes.min() <= 1
        again = partition(n, K, seed)
        assert np.array_equal(plan.assignments, again.assignments)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 2000), seed=st.integers(-(2 ** 63), 2 ** 64 - 1),
           data=st.data())
    def test_matches_scatter_and_scan(self, n, seed, data):
        K = data.draw(st.integers(1, n))
        plan = partition(n, K, seed)
        assignments, sizes, shards = reference_partition(n, K, seed)
        for j in range(K):
            assert np.array_equal(plan.shard_indices(j), shards[j])
        assert np.array_equal(plan.shard_sizes, sizes)
        assert np.array_equal(plan.assignments, assignments)

    def test_plan_checks(self):
        PartitionPlan(K=2, order=[0, 1, 2, 3])
        bad = {
            "repeated index": dict(K=2, order=[0, 1, 0, 3]),
            "index out of range": dict(K=2, order=[0, 1, 2, 4]),
            "negative index": dict(K=2, order=[-1, 1, 2, 3]),
            "descending hand": dict(K=2, order=[2, 1, 0, 3]),
            "K = 0": dict(K=0, order=[0, 1, 2, 3]),
            "K > n": dict(K=5, order=[0, 1, 2, 3]),
            "empty": dict(K=1, order=[]),
            "2-d": dict(K=1, order=[[0, 1], [2, 3]]),
            # a cast would truncate these into the permutations [0, 1, 2, 3] and [1, 0]
            "float order": dict(K=2, order=[0.0, 1.5, 2.9, 3.2]),
            "bool order": dict(K=2, order=[True, False]),
            # int32 would wrap 2**32 + 3 into the valid index 3
            "wraps in int32": dict(K=2, order=np.array([0, 1, 2, 2 ** 32 + 3])),
        }
        for case, kwargs in bad.items():
            with pytest.raises(ConfigError):
                PartitionPlan(**kwargs)
                pytest.fail(case)

    def test_plan_holds_int32(self):
        assert partition(1000, 7, 3).order.dtype == np.int32
        for dtype in (np.int8, np.uint64, np.int64):
            plan = PartitionPlan(K=2, order=np.array([0, 1, 2, 3], dtype=dtype))
            assert plan.order.dtype == np.int32
            assert plan.shard_indices(1).tolist() == [1, 3]
        # refused before anything of size n is allocated
        with pytest.raises(ConfigError, match="below 2\\*\\*31"):
            partition(2 ** 31, 2, 0)

    def test_plan_is_read_only(self):
        order = np.array([0, 1, 2, 3])
        plan = PartitionPlan(K=2, order=order)
        order[0] = 3
        assert plan.shard_indices(0).tolist() == [0, 2]
        for view in (plan.shard_indices(1), plan.order, plan.shard_sizes,
                     plan.assignments):
            with pytest.raises(ValueError):
                view[0] = 0
        with pytest.raises(ConfigError):
            plan.shard_indices(2)


class TestTemperedLogDensity:
    def poisson_target(self, y, temper, a=1.0, b=1.0):
        model = ModelSpec("poisson-gamma", {"a": a, "b": b})
        return TemperedTarget(model, ObservationSet(y), temper)

    def test_hand_worked_value(self):
        # 2 * (sum_i y_i log 1 - 3 - log(1! 2! 3!)) + log Gamma(1,1) kernel at 1
        target = self.poisson_target([1, 2, 3], temper=2.0)
        expected = 2.0 * (-3.0 - np.log(12.0)) - 1.0
        assert tempered_log_density(target, [1.0]) == pytest.approx(expected, rel=1e-12)

    def test_untempered_equals_ordinary_kernel(self):
        t1 = self.poisson_target([4, 0, 2], temper=1.0)
        # manual: loglik + logprior for Gamma(1,1) prior
        theta = 1.7
        loglik = sp_poisson.logpmf([4, 0, 2], theta).sum()
        assert tempered_log_density(t1, [theta]) == pytest.approx(loglik - theta, rel=1e-12)

    def test_linear_in_temper(self):
        y = [2, 1, 5, 0]
        base = self.poisson_target(y, temper=1.0)
        for c in (1.0, 2.5, 7.0):
            tc = self.poisson_target(y, temper=c)
            t2c = self.poisson_target(y, temper=2 * c)
            theta = [0.9]
            prior = tempered_log_density(base, theta) - sp_poisson.logpmf(y, 0.9).sum()
            lhs = tempered_log_density(t2c, theta) - prior
            rhs = 2.0 * (tempered_log_density(tc, theta) - prior)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_matches_direct_sum_random_inputs(self):
        g = np.random.default_rng(5)
        for _ in range(10):
            y = g.poisson(4.0, size=g.integers(1, 20))
            K = float(g.integers(1, 9))
            theta = float(g.uniform(0.2, 6.0))
            target = self.poisson_target(y, temper=K, a=2.0, b=0.5)
            loglik = sp_poisson.logpmf(y, theta).sum()
            logprior = 2.0 * np.log(0.5) - gammaln(2.0) + np.log(theta) - 0.5 * theta
            got = tempered_log_density(target, [theta])
            assert got == pytest.approx(K * loglik + logprior, rel=1e-10)

    def test_support_sentinel(self):
        target = self.poisson_target([1, 2], temper=2.0)
        assert tempered_log_density(target, [-1.0]) == -np.inf
        assert tempered_log_density(target, [0.0]) == -np.inf
        bern = TemperedTarget(
            ModelSpec("bernoulli-beta", {"a": 1, "b": 1}), ObservationSet([0, 1]), 2.0
        )
        assert tempered_log_density(bern, [1.5]) == -np.inf

    @pytest.mark.parametrize("family,y,inside,outside", [
        ("poisson-gamma", [1, 2, 0, 5], [0.3, 1.0, 2.0, 7.5], [0.0, -1.0]),
        ("exponential-gamma", [0.5, 1.5, 0.2], [0.3, 1.0, 2.0, 7.5], [0.0, -2.0]),
        ("bernoulli-beta", [1, 0, 0, 1, 1], [1e-9, 0.35, 0.5, 0.99], [0.0, 1.0, -0.5, 1.5]),
    ])
    def test_scalar_kernel_takes_a_float(self, family, y, inside, outside):
        # a one-parameter chain holds its state as a float and passes it as is
        model = ModelSpec(family, {"a": 2.0, "b": 3.0})
        target = TemperedTarget(model, ObservationSet(y), 4.0)
        for x in inside:
            got = target.log_kernel(x)
            assert np.isfinite(got)
            assert got == tempered_log_density(target, [x])
        for x in outside:
            assert target.log_kernel(x) == tempered_log_density(target, [x]) == -np.inf

    def test_temper_below_one_rejected(self):
        with pytest.raises(ConfigError):
            self.poisson_target([1], temper=0.5)

    def test_exponential_family_matches_scipy(self):
        from scipy.stats import expon, gamma as sp_gamma

        y = [0.5, 1.5, 0.2]
        model = ModelSpec("exponential-gamma", {"a": 2.0, "b": 1.0})
        target = TemperedTarget(model, ObservationSet(y), 3.0)
        theta = 1.3
        loglik = expon.logpdf(y, scale=1.0 / theta).sum()
        logprior = sp_gamma.logpdf(theta, 2.0, scale=1.0)
        assert tempered_log_density(target, [theta]) == pytest.approx(
            3.0 * loglik + logprior, rel=1e-10)

    def test_bernoulli_family_matches_scipy(self):
        from scipy.stats import bernoulli as sp_bern, beta as sp_beta

        y = [1, 0, 0, 1, 1]
        model = ModelSpec("bernoulli-beta", {"a": 2.0, "b": 3.0})
        target = TemperedTarget(model, ObservationSet(y), 5.0)
        theta = 0.35
        loglik = sp_bern.logpmf(y, theta).sum()
        logprior = sp_beta.logpdf(theta, 2.0, 3.0)
        assert tempered_log_density(target, [theta]) == pytest.approx(
            5.0 * loglik + logprior, rel=1e-10)

    def test_normal_linear_density_finite(self):
        model = ModelSpec(
            "normal-linear-nig",
            {"a": 6.0, "b": 2.0, "mu_star": [0.0, 0.0], "omega": np.eye(2)},
            parameter_dim=3,
        )
        obs = ObservationSet([1.0, -1.0, 0.5], design=[[1, 1], [1, -1], [-1, 1]])
        target = TemperedTarget(model, obs, 3.0)
        assert np.isfinite(tempered_log_density(target, [0.1, -0.2, 1.3]))
        assert tempered_log_density(target, [0.1, -0.2, -1.0]) == -np.inf

    @pytest.mark.parametrize("p", [1, 2, 5, 10])
    def test_normal_linear_matches_scipy(self, p):
        g = np.random.default_rng(p)
        Z = g.standard_normal((40, p))
        y = Z @ g.standard_normal(p) + g.standard_normal(40)
        A = g.standard_normal((p, p))
        mu_star, omega = g.standard_normal(p), A @ A.T + np.eye(p)
        model = ModelSpec("normal-linear-nig",
                          {"a": 6.0, "b": 2.0, "mu_star": mu_star, "omega": omega},
                          parameter_dim=p + 1)
        target = TemperedTarget(model, ObservationSet(y, Z), 3.0)
        for _ in range(5):
            theta = np.append(g.standard_normal(p), g.uniform(0.3, 3.0))
            expected = normal_linear_log_density(y, Z, 3.0, mu_star, omega, 6.0, 2.0, theta)
            assert tempered_log_density(target, theta) == pytest.approx(expected, rel=1e-12)

    def test_poisson_base_measure_matches_scipy(self):
        y = np.random.default_rng(8).poisson(1000.0, 100_000).astype(float)
        assert POISSON.log_base_measure(y) == pytest.approx(log_factorial_sum(y),
                                                           rel=1e-12)


class TestNormalLinearStats:
    def _data(self, n, p=10):
        g = np.random.default_rng(n)
        return g.standard_normal(n), g.standard_normal((n, p))

    def test_up_to_a_block_is_one_product(self):
        y, Z = self._data(10_000)
        ZtZ, Zty, yty, m = LINEAR.stats(y, Z)
        assert m == 10_000
        assert ZtZ.tobytes() == (Z.T @ Z).tobytes()
        assert Zty.tobytes() == (Z.T @ y).tobytes()
        assert yty == y @ y

    def test_longer_data_sums_row_blocks(self):
        y, Z = self._data(25_001)
        ZtZ, Zty, yty, m = LINEAR.stats(y, Z)
        blocks = [slice(0, 10_000), slice(10_000, 20_000), slice(20_000, None)]
        assert ZtZ.tobytes() == sum(Z[b].T @ Z[b] for b in blocks).tobytes()
        assert Zty.tobytes() == sum(Z[b].T @ y[b] for b in blocks).tobytes()
        assert yty == sum(y[b] @ y[b] for b in blocks)
        assert m == 25_001
        np.testing.assert_allclose(ZtZ, Z.T @ Z, rtol=1e-12, atol=1e-9)
        assert yty == pytest.approx(y @ y, rel=1e-12)

    def test_same_bits_for_any_blas_thread_count(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = (f"import sys; sys.path.insert(0, {src!r}); import hashlib, numpy as np; "
                "from pie.families import LINEAR; g = np.random.default_rng(5); "
                "y, Z = g.standard_normal(50_000), g.standard_normal((50_000, 10)); "
                "ZtZ, Zty, yty, _ = LINEAR.stats(y, Z); "
                "print(hashlib.sha256(ZtZ.tobytes() + Zty.tobytes() + yty.tobytes()).hexdigest())")
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                    text=True, timeout=60, check=True, env=env)
            digests.add(result.stdout.strip())
        assert len(digests) == 1


class TestApplyFunctional:
    def test_coordinate_projection(self):
        draws = np.array([[1.0, 2.0], [3.0, 4.0]])
        f = LinearFunctional([1.0, 0.0])
        assert np.array_equal(apply_functional(f, draws), draws[:, 0])

    def test_affine(self):
        f = LinearFunctional([0.0, 2.0], b=1.0)
        assert apply_functional(f, np.array([[3.0, 5.0]]))[0] == 11.0

    def test_sum_of_identity(self):
        f = LinearFunctional([1.0, 1.0])
        out = apply_functional(f, np.eye(2))
        assert np.array_equal(out, [1.0, 1.0])

    def test_shape_error(self):
        with pytest.raises(ConfigError):
            apply_functional(LinearFunctional([1.0]), np.ones((3, 2)))

    def test_commutes_with_row_permutation(self):
        g = np.random.default_rng(0)
        draws = g.standard_normal((50, 3))
        f = LinearFunctional([0.5, -1.0, 2.0], b=0.3)
        perm = g.permutation(50)
        assert np.allclose(apply_functional(f, draws)[perm],
                           apply_functional(f, draws[perm]))

    def test_zero_functional_rejected(self):
        with pytest.raises(ConfigError):
            LinearFunctional([0.0, 0.0])


class TestTypes:
    def test_observation_validation(self):
        with pytest.raises(DataError):
            ObservationSet([])
        with pytest.raises(DataError):
            ObservationSet([1.0, np.inf])
        with pytest.raises(DataError):
            ObservationSet([1.0, 2.0], design=[[1.0]])
        with pytest.raises(DataError, match="design contains non-finite"):
            ObservationSet([1.0], design=[[np.nan]])

    def test_draw_matrix_validation(self):
        with pytest.raises(ConfigError, match="T x d matrix"):
            DrawMatrix(np.ones((2, 2, 2)))
        with pytest.raises(NumericError, match="non-finite"):
            DrawMatrix([[np.nan]])

    def test_take(self):
        obs = ObservationSet([1.0, 2.0, 3.0], design=[[1], [2], [3]])
        sub = obs.take([2, 0])
        assert sub.responses.tolist() == [3.0, 1.0]
        assert sub.design[:, 0].tolist() == [3.0, 1.0]
        # a shard's int32 hand gives the rows the equal int64 array gives
        hand = obs.take(np.array([2, 0], dtype=np.int32))
        assert hand.responses.tolist() == sub.responses.tolist()
        np.testing.assert_array_equal(hand.design, sub.design)

    @pytest.mark.parametrize("indices", [[0.7, 1.9], [True, False]])
    def test_take_refuses_non_integer_indices(self, indices):
        # a float index would be truncated, a bool one read as positions 1 and 0
        with pytest.raises(ConfigError, match="integers"):
            ObservationSet([1.0, 2.0, 3.0]).take(indices)

    def test_modelspec_validation(self):
        with pytest.raises(ConfigError):
            ModelSpec("poisson-gamma", {"a": 0.0, "b": 1.0})
        with pytest.raises(ConfigError):
            ModelSpec("nope", {})
        with pytest.raises(ConfigError):
            ModelSpec("normal-linear-nig",
                      {"a": 4.0, "b": 1.0, "mu_star": [0.0], "omega": [[1.0]]},
                      parameter_dim=2)
        with pytest.raises(ConfigError):
            ModelSpec("normal-linear-nig",
                      {"a": 5.0, "b": 1.0, "mu_star": [0.0], "omega": [[-1.0]]},
                      parameter_dim=2)
        with pytest.raises(ConfigError, match="omega must be symmetric"):
            ModelSpec("normal-linear-nig", {"a": 5.0, "b": 1.0, "mu_star": [0.0, 0.0],
                                            "omega": [[1.0, 0.5], [0.0, 1.0]]},
                      parameter_dim=3)
        with pytest.raises(ConfigError, match="parameter_dim must be p \\+ 1"):
            ModelSpec("normal-linear-nig",
                      {"a": 5.0, "b": 1.0, "mu_star": [0.0], "omega": [[1.0]]},
                      parameter_dim=3)
        with pytest.raises(ConfigError, match="has a scalar parameter"):
            ModelSpec("poisson-gamma", {"a": 1.0, "b": 1.0}, parameter_dim=2)
        with pytest.raises(ConfigError, match="parameter_dim must be >= 1"):
            ModelSpec("poisson-gamma", {"a": 1.0, "b": 1.0}, parameter_dim=0)
        with pytest.raises(ConfigError, match="requires log_likelihood and log_prior"):
            ModelSpec("custom-logdensity")
        custom = ModelSpec("custom-logdensity", log_likelihood=lambda theta, data: np.nan,
                           log_prior=lambda theta: 0.0)
        with pytest.raises(ConfigError, match="no default initialization"):
            custom.prior_mean()
        # a NaN log likelihood is a point outside the support
        target = TemperedTarget(custom, ObservationSet([1.0]), 1.0)
        assert target.log_density([0.5]) == -np.inf

    def test_immutable(self):
        obs = ObservationSet([1.0, 2.0])
        with pytest.raises(ValueError):
            obs.responses[0] = 9.0

    def test_value_types_hold_read_only_copies(self):
        # every array a value type holds refuses writes and is not the
        # caller's array; the plan's cached arrays have no caller's array
        y, u = np.array([1.0, 2.0, 3.0]), np.array([0.25, 0.5, 0.75])
        Z, m, order, x = np.ones((3, 2)), np.eye(2), np.arange(4), np.linspace(-6.0, 6.0, 121)
        f = np.exp(-x * x / 2.0) / np.sqrt(2.0 * np.pi)
        obs, plan = ObservationSet(y, Z), PartitionPlan(K=2, order=order)
        table, gauss = QuantileTable(u, y), GaussianApprox(y[:2], m)
        kde = DensityEstimate(x, f, 1.0)
        hyper = ModelSpec("normal-linear-nig",
                          {"a": 6.0, "b": 1.0, "mu_star": y[:2], "omega": m},
                          parameter_dim=3).hyperparameters
        sqrt, inv_sqrt = 2.0 * m, 0.5 * m
        pooled = PooledTransform(mean=y[:2], cov=m, cov_sqrt=sqrt, cov_inv_sqrt=inv_sqrt)
        fit = RateFit(log_n=y, log_w2=u, slope=1.0, intercept=0.0)
        held = {
            "ObservationSet.responses": (obs.responses, y),
            "ObservationSet.design": (obs.design, Z),
            "PartitionPlan.order": (plan.order, order),
            "PartitionPlan.shard_sizes": (plan.shard_sizes, None),
            "PartitionPlan.assignments": (plan.assignments, None),
            "LinearFunctional.a": (LinearFunctional(a=y).a, y),
            "DrawMatrix.values": (DrawMatrix(Z).values, Z),
            "QuantileTable.grid": (table.grid, u),
            "QuantileTable.values": (table.values, y),
            "GaussianApprox.mean": (gauss.mean, y),
            "GaussianApprox.cov": (gauss.cov, m),
            "DensityEstimate.grid_x": (kde.grid_x, x),
            "DensityEstimate.density": (kde.density, f),
            "hyperparameters mu_star": (hyper["mu_star"], y),
            "hyperparameters omega": (hyper["omega"], m),
            "PooledTransform.mean": (pooled.mean, y[:2]),
            "PooledTransform.cov": (pooled.cov, m),
            "PooledTransform.cov_sqrt": (pooled.cov_sqrt, sqrt),
            "PooledTransform.cov_inv_sqrt": (pooled.cov_inv_sqrt, inv_sqrt),
            "RateFit.log_n": (fit.log_n, y),
            "RateFit.log_w2": (fit.log_w2, u),
        }
        for name, (array, given) in held.items():
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0
                pytest.fail(name)
            assert given is None or not np.shares_memory(array, given), name

import math

import numpy as np
import pytest
from scipy import stats as sp_stats

from pie import (
    ChainConfig,
    ConfigError,
    DataError,
    ModelSpec,
    NumericError,
    ObservationSet,
    TemperedTarget,
    bernoulli_beta_params,
    exponential_gamma_params,
    normal_linear_nig_params,
    poisson_gamma_params,
    sample_bernoulli_beta,
    sample_exponential_gamma,
    sample_metropolis,
    sample_normal_linear_nig,
    sample_poisson_gamma,
)
from oracles import gamma_quantile

# two-sample KS critical value at level 0.001 with equal sample sizes
KS_T = 20000
KS_CRIT = math.sqrt(-math.log(0.0005) / 2.0) * math.sqrt(2.0 / KS_T)


class TestConjugateParams:
    def test_poisson_examples(self):
        assert poisson_gamma_params([1, 2, 3], 2.0, 1.0, 1.0) == (13.0, 7.0)
        assert poisson_gamma_params([1, 2, 3], 1.0, 1.0, 1.0) == (7.0, 4.0)
        assert poisson_gamma_params([0, 0], 3.0, 2.0, 1.0) == (2.0, 7.0)

    def test_exponential_examples(self):
        assert exponential_gamma_params([1.0, 1.0], 2.0, 1.0, 1.0) == (5.0, 5.0)
        assert exponential_gamma_params([2.0], 1.0, 1.0, 0.5) == (2.0, 2.5)

    def test_bernoulli_examples(self):
        assert bernoulli_beta_params([1, 0, 1], 2.0, 1.0, 1.0) == (5.0, 3.0)
        assert bernoulli_beta_params([1, 1], 1.0, 1.0, 1.0) == (3.0, 1.0)

    def test_errors(self):
        with pytest.raises(DataError):
            poisson_gamma_params([], 1.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            poisson_gamma_params([1], 1.0, -1.0, 1.0)
        with pytest.raises(DataError):
            exponential_gamma_params([0.0], 1.0, 1.0, 1.0)
        with pytest.raises(DataError):
            bernoulli_beta_params([2], 1.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            sample_poisson_gamma([1], 1.0, 1.0, 1.0, 0, seed=0)


class TestConjugateDraws:
    def test_poisson_mean_within_three_se(self):
        T = 20000
        dm = sample_poisson_gamma([1, 2, 3], 2.0, 1.0, 1.0, T, seed=11)
        se = math.sqrt(13.0 / 49.0 / T)
        assert abs(dm.values.mean() - 13.0 / 7.0) < 3 * se

    def test_exponential_mean_within_three_se(self):
        T = 20000
        dm = sample_exponential_gamma([1.0, 1.0], 2.0, 1.0, 1.0, T, seed=7)
        se = math.sqrt(5.0 / 25.0 / T)
        assert abs(dm.values.mean() - 1.0) < 3 * se

    def test_beta_mean_within_three_se(self):
        T = 20000
        dm = sample_bernoulli_beta([1, 0, 1], 2.0, 1.0, 1.0, T, seed=3)
        var = 5.0 * 3.0 / (8.0 ** 2 * 9.0)
        assert abs(dm.values.mean() - 5.0 / 8.0) < 3 * math.sqrt(var / T)

    def test_untempered_matches_textbook_ks(self):
        g = np.random.default_rng(1234)
        y_pois = g.poisson(3.0, 40)
        shape, rate = poisson_gamma_params(y_pois, 1.0, 1.5, 0.5)
        ours = sample_poisson_gamma(y_pois, 1.0, 1.5, 0.5, KS_T, seed=1).values[:, 0]
        ref = sp_stats.gamma(shape, scale=1.0 / rate).rvs(KS_T, random_state=g)
        assert sp_stats.ks_2samp(ours, ref).statistic < KS_CRIT

        y_exp = g.exponential(0.5, 40)
        shape, rate = exponential_gamma_params(y_exp, 1.0, 1.0, 1.0)
        ours = sample_exponential_gamma(y_exp, 1.0, 1.0, 1.0, KS_T, seed=2).values[:, 0]
        ref = sp_stats.gamma(shape, scale=1.0 / rate).rvs(KS_T, random_state=g)
        assert sp_stats.ks_2samp(ours, ref).statistic < KS_CRIT

        y_bin = g.binomial(1, 0.3, 40)
        a_post, b_post = bernoulli_beta_params(y_bin, 1.0, 1.0, 1.0)
        ours = sample_bernoulli_beta(y_bin, 1.0, 1.0, 1.0, KS_T, seed=3).values[:, 0]
        ref = sp_stats.beta(a_post, b_post).rvs(KS_T, random_state=g)
        assert sp_stats.ks_2samp(ours, ref).statistic < KS_CRIT

    def test_doubling_temper_shrinks_variance(self):
        g = np.random.default_rng(2)
        y = g.poisson(2.5, 30)
        for temper in (1.0, 2.0, 4.0):
            s1, r1 = poisson_gamma_params(y, temper, 1.0, 1.0)
            s2, r2 = poisson_gamma_params(y, 2 * temper, 1.0, 1.0)
            assert s2 / r2 ** 2 < s1 / r1 ** 2
        y_exp = g.exponential(1.0, 30)
        for temper in (1.0, 3.0):
            s1, r1 = exponential_gamma_params(y_exp, temper, 1.0, 1.0)
            s2, r2 = exponential_gamma_params(y_exp, 2 * temper, 1.0, 1.0)
            assert s2 / r2 ** 2 < s1 / r1 ** 2
        y_bin = g.binomial(1, 0.4, 30)
        for temper in (1.0, 5.0):
            a1, b1 = bernoulli_beta_params(y_bin, temper, 1.0, 1.0)
            a2, b2 = bernoulli_beta_params(y_bin, 2 * temper, 1.0, 1.0)
            v1 = a1 * b1 / ((a1 + b1) ** 2 * (a1 + b1 + 1))
            v2 = a2 * b2 / ((a2 + b2) ** 2 * (a2 + b2 + 1))
            assert v2 < v1

    def test_determinism(self):
        a = sample_poisson_gamma([1, 2], 2.0, 1.0, 1.0, 100, seed=5)
        b = sample_poisson_gamma([1, 2], 2.0, 1.0, 1.0, 100, seed=5)
        assert np.array_equal(a.values, b.values)
        c = sample_poisson_gamma([1, 2], 2.0, 1.0, 1.0, 100, seed=6)
        assert not np.array_equal(a.values, c.values)


class TestNormalLinear:
    def test_scalar_location_example(self):
        post = normal_linear_nig_params([2.0], [[1.0]], 3.0, [0.0], [[1.0]], 5.0, 1.0)
        assert post.coef_location[0] == pytest.approx(1.5, abs=1e-14)

    def test_flat_prior_limit_matches_least_squares(self):
        g = np.random.default_rng(3)
        Z = g.standard_normal((60, 3))
        y = Z @ np.array([1.0, -2.0, 0.5]) + g.standard_normal(60)
        post = normal_linear_nig_params(y, Z, 1.0, np.zeros(3), 1e8 * np.eye(3),
                                        5.0, 1.0)
        lstsq = np.linalg.lstsq(Z, y, rcond=None)[0]
        assert np.allclose(post.coef_location, lstsq, atol=1e-6)

    def test_empirical_covariance_matches_t_variance(self):
        g = np.random.default_rng(4)
        m, p, temper = 50, 2, 4.0
        Z = g.standard_normal((m, p))
        y = Z @ np.array([0.5, -1.0]) + g.standard_normal(m)
        mu_star, omega = np.array([0.2, -0.3]), 2.0 * np.eye(p)
        post = normal_linear_nig_params(y, Z, temper, mu_star, omega, 6.0, 2.0)
        T = 200000
        dm = sample_normal_linear_nig(y, Z, temper, mu_star, omega, 6.0, 2.0, T,
                                      seed=12)
        expected = post.coef_covariance()
        observed = np.cov(dm.values[:, :p], rowvar=False, ddof=1)
        assert np.allclose(observed, expected, rtol=0.05, atol=5e-5)

    def test_sigma2_marginal_ks(self):
        g = np.random.default_rng(9)
        m = 40
        Z = g.standard_normal((m, 1))
        y = Z[:, 0] + g.standard_normal(m)
        post = normal_linear_nig_params(y, Z, 1.0, [0.0], [[1.0]], 6.0, 2.0)
        dm = sample_normal_linear_nig(y, Z, 1.0, [0.0], [[1.0]], 6.0, 2.0, KS_T,
                                      seed=21)
        ref = sp_stats.invgamma(post.noise_shape, scale=post.noise_rate).rvs(
            KS_T, random_state=g)
        assert sp_stats.ks_2samp(dm.values[:, 1], ref).statistic < KS_CRIT

    def test_tempering_shrinks_posterior(self):
        g = np.random.default_rng(6)
        Z = g.standard_normal((30, 2))
        y = Z @ np.array([1.0, 1.0]) + g.standard_normal(30)
        p1 = normal_linear_nig_params(y, Z, 1.0, np.zeros(2), np.eye(2), 6.0, 2.0)
        p2 = normal_linear_nig_params(y, Z, 2.0, np.zeros(2), np.eye(2), 6.0, 2.0)
        assert np.all(np.diag(p2.coef_covariance()) < np.diag(p1.coef_covariance()))
        assert p2.noise_variance_var() < p1.noise_variance_var()

    def test_errors(self):
        with pytest.raises(ConfigError):
            normal_linear_nig_params([1.0], [[1.0]], 1.0, [0.0], [[1.0]], 4.0, 1.0)
        with pytest.raises(NumericError):
            # all-zero design with a huge flat prior: singular precision
            normal_linear_nig_params([1.0, 1.0], [[0.0], [0.0]], 1.0, [0.0],
                                     [[np.inf]], 5.0, 1.0)


class TestMetropolis:
    def gamma_target(self):
        model = ModelSpec("poisson-gamma", {"a": 1.0, "b": 1.0})
        return TemperedTarget(model, ObservationSet([1, 2, 3]), 2.0)

    def test_matches_exact_gamma_quantiles(self):
        cfg = ChainConfig(T_total=20000, burn_fraction=0.5, thin=5,
                          proposal_scale="auto", seed=40)
        dm = sample_metropolis(self.gamma_target(), [1.0], cfg)
        assert dm.T == 2000
        draws = np.sort(dm.values[:, 0])
        for u in (0.05, 0.5, 0.95):
            k = min(max(int(np.floor(dm.T * u)), 1), dm.T)
            exact = float(gamma_quantile(13.0, 7.0, np.array([u]))[0])
            assert abs(draws[k - 1] - exact) < 0.05

    def test_symmetric_target_mean(self):
        model = ModelSpec(
            "custom-logdensity",
            log_likelihood=lambda theta, data: 0.0,
            log_prior=lambda theta: -0.5 * float(theta @ theta),
        )
        target = TemperedTarget(model, ObservationSet([0.0]), 1.0)
        cfg = ChainConfig(T_total=40000, burn_fraction=0.25, thin=2, seed=8)
        dm = sample_metropolis(target, [0.0], cfg)
        draws = dm.values[:, 0]
        # batch-means standard error accounts for autocorrelation
        nb = 40
        batches = draws[: nb * (dm.T // nb)].reshape(nb, -1).mean(axis=1)
        se = batches.std(ddof=1) / math.sqrt(nb)
        assert abs(draws.mean()) < 3 * se

    def test_deterministic(self):
        cfg = ChainConfig(T_total=4000, seed=77)
        a = sample_metropolis(self.gamma_target(), [1.0], cfg)
        b = sample_metropolis(self.gamma_target(), [1.0], cfg)
        assert np.array_equal(a.values, b.values)

    def test_acceptance_rate_after_adaptation(self):
        for seed in (1, 2, 3):
            cfg = ChainConfig(T_total=10000, seed=seed)
            dm = sample_metropolis(self.gamma_target(), [1.0], cfg)
            assert 0.1 <= dm.accept_rate <= 0.5

    def test_invalid_init(self):
        with pytest.raises(NumericError):
            sample_metropolis(self.gamma_target(), [-1.0], ChainConfig(seed=0))

    def test_chain_config_validation(self):
        with pytest.raises(ConfigError):
            ChainConfig(T_total=10, burn_fraction=0.5, thin=5)
        with pytest.raises(ConfigError):
            ChainConfig(burn_fraction=1.0)
        with pytest.raises(ConfigError):
            ChainConfig(proposal_scale=-1.0)



class TestKernelMatchesExactUpdate:
    """The Metropolis target and the exact update describe the same law:
    log_density minus the exact posterior's log pdf is constant in theta."""

    @staticmethod
    def spread(target, thetas, logpdf):
        diffs = [target.log_density(theta) - logpdf(theta) for theta in thetas]
        return max(diffs) - min(diffs)

    @pytest.mark.parametrize("temper", [1.0, 3.0])
    @pytest.mark.parametrize("family, params, sample, y", [
        ("poisson-gamma", poisson_gamma_params, sample_poisson_gamma,
         [3, 1, 4, 1, 5, 0, 2]),
        ("exponential-gamma", exponential_gamma_params, sample_exponential_gamma,
         [0.5, 1.5, 0.2, 2.5]),
        ("bernoulli-beta", bernoulli_beta_params, sample_bernoulli_beta,
         [1, 0, 0, 1, 1, 0]),
    ], ids=["poisson-gamma", "exponential-gamma", "bernoulli-beta"])
    def test_scalar_families(self, family, params, sample, y, temper):
        p1, p2 = params(y, temper, 1.5, 0.5)
        law = sp_stats.beta(p1, p2) if family == "bernoulli-beta" \
            else sp_stats.gamma(p1, scale=1.0 / p2)
        target = TemperedTarget(ModelSpec(family, {"a": 1.5, "b": 0.5}),
                                ObservationSet(y), temper)
        thetas = sample(y, temper, 1.5, 0.5, T=6, seed=5).values
        assert self.spread(target, thetas, lambda theta: law.logpdf(theta[0])) <= 1e-9

    @pytest.mark.parametrize("temper", [1.0, 3.0])
    def test_normal_linear(self, temper):
        g = np.random.default_rng(17)
        Z = g.standard_normal((30, 2))
        y = Z @ np.array([1.0, -0.5]) + g.standard_normal(30)
        mu_star, omega = [0.2, 0.0], 2.0 * np.eye(2)
        model = ModelSpec("normal-linear-nig",
                          {"a": 6.0, "b": 2.0, "mu_star": mu_star, "omega": omega},
                          parameter_dim=3)
        post = normal_linear_nig_params(y, Z, temper, mu_star, omega, 6.0, 2.0)
        cov = np.linalg.inv(post.coef_precision)
        noise = sp_stats.invgamma(post.noise_shape, scale=post.noise_rate)

        def logpdf(theta):
            beta, sigma2 = theta[:-1], theta[-1]
            coef = sp_stats.multivariate_normal(post.coef_location, sigma2 * cov)
            return noise.logpdf(sigma2) + coef.logpdf(beta)

        thetas = sample_normal_linear_nig(y, Z, temper, mu_star, omega, 6.0, 2.0,
                                          T=6, seed=5).values
        target = TemperedTarget(model, ObservationSet(y, Z), temper)
        assert self.spread(target, thetas, logpdf) <= 1e-9

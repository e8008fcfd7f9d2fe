import math
import tracemalloc

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
from pie import rng
from pie.config import load_config
from pie.data import simulate_linear, simulate_univariate
from oracles import gamma_quantile, normal_linear_draws, reference_metropolis

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

    @pytest.mark.parametrize("p", [1, 2, 10])
    def test_draws_match_triangular_solve(self, p):
        g = np.random.default_rng(p)
        Z = g.standard_normal((80, p))
        y = Z @ g.standard_normal(p) + g.standard_normal(80)
        mu_star, omega = np.zeros(p), 2.0 * np.eye(p)
        post = normal_linear_nig_params(y, Z, 4.0, mu_star, omega, 6.0, 2.0)
        dm = sample_normal_linear_nig(y, Z, 4.0, mu_star, omega, 6.0, 2.0, 500, seed=p)
        expected = normal_linear_draws(post, 500, rng.stream(p))
        np.testing.assert_array_max_ulp(dm.values, expected, maxulp=2)

    def test_errors(self):
        with pytest.raises(ConfigError):
            normal_linear_nig_params([1.0], [[1.0]], 1.0, [0.0], [[1.0]], 4.0, 1.0)
        with pytest.raises(NumericError):
            # all-zero design with a huge flat prior: singular precision
            normal_linear_nig_params([1.0, 1.0], [[0.0], [0.0]], 1.0, [0.0],
                                     [[np.inf]], 5.0, 1.0)
        # the Metropolis target is read off the same update, so building it
        # refuses the same shard
        model = ModelSpec("normal-linear-nig", {"a": 5.0, "b": 1.0, "mu_star": [0.0],
                                                "omega": [[np.inf]]}, parameter_dim=2)
        with pytest.raises(NumericError):
            TemperedTarget(model, ObservationSet([1.0, 1.0], [[0.0], [0.0]]), 1.0)


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

    def test_retained_counts_kept_draws(self):
        target = self.gamma_target()
        for T_total in (20, 21, 99, 100, 101, 1000, 1003):
            for burn_fraction in (0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 0.9):
                for thin in (1, 2, 3, 5, 7):
                    kept = len(range(thin - 1, T_total - int(T_total * burn_fraction),
                                     thin))
                    settings = dict(T_total=T_total, burn_fraction=burn_fraction,
                                    thin=thin, seed=3)
                    if kept < 2:
                        with pytest.raises(ConfigError):
                            ChainConfig(**settings)
                        continue
                    cfg = ChainConfig(**settings)
                    assert sample_metropolis(target, [1.0], cfg).T == cfg.retained == kept
        # burn-in discards 18 of 20 steps, so 2 draws remain
        assert ChainConfig(T_total=20, burn_fraction=0.9, thin=1).retained == 2

    def test_holds_only_the_states_it_returns(self):
        # 20000 steps, 10 returned states: a chain that appended every step
        # would hold 10000 states and their floats, over 100 KB
        cfg = ChainConfig(T_total=20000, thin=1000, seed=5)
        tracemalloc.start()
        try:
            dm = sample_metropolis(self.gamma_target(), [1.0], cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dm.T == 10
        assert peak < 32 * 1024

    def test_numeric_proposal_scale(self):
        scale = ChainConfig(proposal_scale="0.05").proposal_scale
        assert scale == 0.05 and type(scale) is float
        cfg = load_config(None, {"model.family": "poisson-gamma", "n": 100,
                                 "data.true_theta": 3.0, "chain.proposal_scale": "0.05"})
        assert cfg.chain.proposal_scale == 0.05 and type(cfg.chain.proposal_scale) is float
        # a fixed scale is used as given, never adapted: from the true rate, a
        # tiny step is almost always accepted, the adapted one far less often
        obs = simulate_univariate("poisson", 3.0, 400, seed=0)
        target = TemperedTarget(ModelSpec("poisson-gamma", {"a": 1.0, "b": 1.0}), obs, 1.0)
        rates = {scale: sample_metropolis(target, [3.0], ChainConfig(
                     T_total=2000, thin=1, proposal_scale=scale, seed=3)).accept_rate
                 for scale in (1e-4, "auto")}
        assert rates[1e-4] >= 0.99
        assert rates["auto"] < 0.5

    def test_invalid_init(self, monkeypatch):
        # a wrong-size or out-of-support initial point fails before any step
        calls = []
        model = ModelSpec("custom-logdensity",
                          log_likelihood=lambda theta, data: 0.0,
                          log_prior=lambda theta: calls.append(theta) or -math.inf)
        custom = TemperedTarget(model, ObservationSet([0.0]), 1.0)

        def no_stream(*args):
            raise AssertionError("a chain step was drawn")

        monkeypatch.setattr(rng, "stream", no_stream)
        for target, init, error in ((self.gamma_target(), [1.0, 2.0], ConfigError),
                                    (self.gamma_target(), [-1.0], NumericError),
                                    (custom, [1.0, 2.0], ConfigError),
                                    (custom, [1.0], NumericError)):
            with pytest.raises(error):
                sample_metropolis(target, init, ChainConfig(seed=0))
        # the custom callable saw the one valid-size initial point only
        assert len(calls) == 1

    def test_chain_config_validation(self):
        with pytest.raises(ConfigError):
            ChainConfig(T_total=10, burn_fraction=0.5, thin=5)
        with pytest.raises(ConfigError):
            ChainConfig(burn_fraction=1.0)
        with pytest.raises(ConfigError):
            ChainConfig(proposal_scale=-1.0)



def _custom_model(d):
    """A custom target on the positive orthant whose callables check that they
    receive a float ndarray of shape (d,)."""
    def checked(theta):
        assert isinstance(theta, np.ndarray) and theta.dtype == float
        assert theta.shape == (d,)
        return theta

    def log_prior(theta):
        theta = checked(theta)
        return -math.inf if theta.min() <= 0 else float(np.log(theta).sum() - theta.sum())

    def log_likelihood(theta, data):
        theta = checked(theta)
        return -0.5 * float(((data.responses[:, None] - theta) ** 2).sum())

    return ModelSpec("custom-logdensity", parameter_dim=d,
                     log_likelihood=log_likelihood, log_prior=log_prior)


def _metropolis_targets():
    gamma = {"a": 1.0, "b": 1.0}
    return {
        "poisson": (TemperedTarget(ModelSpec("poisson-gamma", gamma),
                                   simulate_univariate("poisson", 3.0, 200, 1), 4.0), [3.0]),
        "exponential": (TemperedTarget(ModelSpec("exponential-gamma", gamma),
                                       simulate_univariate("exponential", 2.0, 200, 2), 3.0),
                        [2.0]),
        "bernoulli": (TemperedTarget(ModelSpec("bernoulli-beta", gamma),
                                     simulate_univariate("bernoulli", 0.3, 200, 3), 2.0),
                      [0.3]),
        "linear-p3": (TemperedTarget(
            ModelSpec("normal-linear-nig", {"a": 6.0, "b": 2.0, "mu_star": [0.0] * 3,
                                            "omega": 100.0 * np.eye(3)}, parameter_dim=4),
            simulate_linear(150, 3, 4), 5.0), [0.5, 0.0, 0.0, 1.0]),
        "custom-d1": (TemperedTarget(_custom_model(1), ObservationSet([1.0, 1.5, 0.5]), 2.0),
                      [1.0]),
        "custom-d2": (TemperedTarget(_custom_model(2), ObservationSet([1.0, 1.5, 0.5]), 2.0),
                      [1.0, 1.2]),
    }


class TestMetropolisMatchesReferenceLoop:
    """The chain that calls the target's kernel directly keeps every bit of
    the chain that checks each proposal through ``log_density``."""

    SETTINGS = {
        "auto": dict(proposal_scale="auto", burn_fraction=0.5, thin=1),
        "auto-no-burn-thin3": dict(proposal_scale="auto", burn_fraction=0.0, thin=3),
        "fixed-thin4": dict(proposal_scale=0.3, burn_fraction=0.3, thin=4),
        "fixed-no-burn": dict(proposal_scale=0.05, burn_fraction=0.0, thin=2),
    }

    @staticmethod
    def assert_same_chain(target, init, cfg):
        draws, accept_rate = reference_metropolis(target, init, cfg)
        dm = sample_metropolis(target, init, cfg)
        assert np.array_equal(dm.values.view(np.uint64), draws.view(np.uint64))
        assert dm.accept_rate == accept_rate

    @pytest.mark.parametrize("setting", list(SETTINGS))
    @pytest.mark.parametrize("name", list(_metropolis_targets()))
    def test_same_bits(self, name, setting):
        target, init = _metropolis_targets()[name]
        cfg = ChainConfig(T_total=1237, seed=11, **self.SETTINGS[setting])
        self.assert_same_chain(target, init, cfg)

    @pytest.mark.parametrize("d", [1, 2])
    def test_ties_reject(self, d, monkeypatch):
        # steps of +1 in every coordinate on a density that is 1 on even and
        # 2^-d on odd integer points: with u = 2^-d, a step from an even point
        # has a log ratio of exactly log u, a tie the accept rule rejects
        tie = d * math.log(0.5)
        assert np.log(0.5 ** d) == tie

        class TiedStream:
            def standard_normal(self, shape):
                return np.ones(shape)

            def random(self, size):
                return np.resize([0.5 ** d, 0.5 ** d, 2.0 ** -60], size)

        model = ModelSpec("custom-logdensity", parameter_dim=d,
                          log_likelihood=lambda theta, data: 0.0,
                          log_prior=lambda theta: tie * (theta[0] % 2.0))
        target = TemperedTarget(model, ObservationSet([0.0]), 1.0)
        monkeypatch.setattr(rng, "stream", lambda *args: TiedStream())
        cfg = ChainConfig(T_total=120, burn_fraction=0.0, thin=1, proposal_scale=1.0)
        self.assert_same_chain(target, [0.0] * d, cfg)
        # ties came up and were rejected, other steps were accepted
        assert 0.5 < sample_metropolis(target, [0.0] * d, cfg).accept_rate < 0.7


def _scipy_twin(target):
    """The ``custom-logdensity`` target with a conjugate target's data, temper
    and prior, whose log likelihood and log prior are scipy's."""
    h = target.model.hyperparameters
    if target.model.family == "normal-linear-nig":
        def log_likelihood(theta, data):
            fit = data.design @ theta[:-1]
            return sp_stats.norm.logpdf(data.responses, fit, math.sqrt(theta[-1])).sum()

        def log_prior(theta):
            lp = sp_stats.invgamma.logpdf(theta[-1], h["a"] / 2.0, scale=h["b"] / 2.0)
            if not np.isfinite(lp):
                return lp
            return lp + sp_stats.multivariate_normal.logpdf(
                theta[:-1], h["mu_star"], theta[-1] * h["omega"])
    else:
        gamma = sp_stats.gamma(h["a"], scale=1.0 / h["b"])
        loglik, prior = {
            "poisson-gamma": (sp_stats.poisson.logpmf, gamma),
            "exponential-gamma": (lambda y, t: sp_stats.expon.logpdf(y, scale=1.0 / t), gamma),
            "bernoulli-beta": (sp_stats.bernoulli.logpmf, sp_stats.beta(h["a"], h["b"])),
        }[target.model.family]

        def log_likelihood(theta, data):
            return loglik(data.responses, theta[0]).sum()

        def log_prior(theta):
            return prior.logpdf(theta[0])

    model = ModelSpec("custom-logdensity", parameter_dim=target.model.parameter_dim,
                      log_likelihood=log_likelihood, log_prior=log_prior)
    return TemperedTarget(model, target.shard_data, target.temper)


class TestMetropolisMatchesScipyTarget:
    """A chain on a conjugate target keeps every bit of the chain on the same
    tempered posterior written as scipy's likelihood times scipy's prior, so
    the family kernel takes every accept decision the oracle takes."""

    @pytest.mark.parametrize("scale", ["auto", 0.05])
    @pytest.mark.parametrize("name", ["poisson", "exponential", "bernoulli", "linear-p3"])
    def test_same_bits(self, name, scale):
        target, init = _metropolis_targets()[name]
        cfg = ChainConfig(T_total=1500, burn_fraction=0.4, thin=1, proposal_scale=scale,
                          seed=23)
        dm = sample_metropolis(target, init, cfg)
        oracle = sample_metropolis(_scipy_twin(target), init, cfg)
        assert np.array_equal(dm.values.view(np.uint64), oracle.values.view(np.uint64))
        assert dm.accept_rate == oracle.accept_rate
        # the chain both moved and refused steps, so the decisions were tested
        assert 0.0 < dm.accept_rate < 1.0


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

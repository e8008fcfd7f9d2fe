"""Conjugate model families.

The exact samplers differ only in a tempered conjugate update: raising a
shard's likelihood to the power ``temper`` = n / m_j multiplies the shard's
additive sufficient statistics by ``temper`` before they meet the prior.
One object per family below owns everything that depends on the family:
hyperparameter validation, the config keys it reads and their defaults,
the data support check, the sufficient statistics, the tempered update,
exact draws from a given generator, the log kernel of the updated law, the
prior mean, and the name of the simulation family its data come from; a
scalar family also checks a true parameter and draws data at it.
``custom-logdensity``, the one non-conjugate family, has no object here.

The tempered posterior is stated once, as the update.  The function a
Metropolis chain evaluates, ``_Family.log_kernel``, is the updated law's log
kernel plus one constant, which makes it exactly ``temper * loglik +
logprior``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError, check_count, coerce, real, whole

_SINGULAR_PRECISION = "singular precision matrix temper * Z'Z + inv(omega)"
_STATS_ROWS = 10_000


def float_array(value) -> np.ndarray:
    """A float copy, so freezing it never touches the caller's array."""
    return np.array(value, dtype=float)


def read_only(array: np.ndarray) -> np.ndarray:
    """``array`` with writing switched off, the form every value type hands out."""
    array.setflags(write=False)
    return array


def check_temper(temper) -> float:
    if not (math.isfinite(temper) and temper >= 1.0):
        raise ConfigError("temper must be a finite real >= 1")
    return float(temper)


def _prior_pair(h: dict, name: str, a_min: float) -> tuple[float, float]:
    a = coerce(h.get("a", 0.0), real, f"{name} hyperparameter a")
    b = coerce(h.get("b", 0.0), real, f"{name} hyperparameter b")
    if not (a_min < a < math.inf and 0 < b < math.inf):
        raise ConfigError(f"{name} requires finite a > {a_min:g} and b > 0")
    return a, b


@dataclass(frozen=True, eq=False)
class NormalLinearPosterior:
    """Closed-form tempered posterior for the normal linear model.

    The noise variance is inverse-gamma distributed with the given shape and
    rate; conditionally on it, the coefficients are normal with the given
    location and precision-scaled covariance.  Marginally the coefficients
    follow a multivariate t with ``2 * noise_shape`` degrees of freedom and
    covariance ``noise_rate / (noise_shape - 1) * inv(coef_precision)``.
    """

    coef_location: np.ndarray
    coef_precision: np.ndarray
    noise_shape: float
    noise_rate: float

    def coef_covariance(self) -> np.ndarray:
        return self.noise_rate / (self.noise_shape - 1.0) \
            * np.linalg.inv(self.coef_precision)

    def noise_variance_var(self) -> float:
        s, r = self.noise_shape, self.noise_rate
        return r * r / ((s - 1.0) ** 2 * (s - 2.0))


class _Family:
    """A family has a ``name``, the ``simulate`` family name of the data it
    describes, and ``regression`` set when its likelihood reads a design."""

    regression = False

    def posterior(self, hyper: dict, y, Z, temper):
        """Validated tempered conjugate update for one shard's raw data."""
        h = self.hyperparameters(hyper)
        y, Z = self.check(h, y, Z)
        return self.update(self.stats(y, Z), check_temper(temper), h)

    def log_base_measure(self, y, Z=None) -> float:
        """Log of the likelihood's factor free of the parameter."""
        return 0.0

    def log_kernel(self, h, y, Z, temper):
        """``temper * loglik(theta) + logprior(theta)`` for checked shard data.

        Tempering the likelihood and multiplying by the prior is the
        conjugate update, so this is the updated law's log kernel plus one
        constant: the prior's log normaliser minus ``temper`` times the
        likelihood's log base measure.
        """
        post = self.update(self.stats(y, Z), temper, h)
        c = self.log_prior_normaliser(h) - temper * self.log_base_measure(y, Z)
        return self.posterior_log_kernel(post, c)


class _ScalarFamily(_Family):
    """Scalar parameter with a two-hyperparameter (a, b) conjugate prior.

    The statistics are the two increments the tempered update adds to
    (a, b), so the update is the same for every scalar family; ``support``
    says what the responses must satisfy.
    """

    def hyperparameters(self, h: dict, parameter_dim=None) -> dict:
        a, b = _prior_pair(h, self.name, 0.0)
        if parameter_dim not in (None, 1):
            raise ConfigError(f"{self.name} has a scalar parameter")
        return {"a": a, "b": b}

    def config(self, take) -> tuple[dict, int]:
        """Hyperparameters and parameter dimension from a config: ``take(key,
        default)`` removes a dotted key from it and returns its value."""
        return {"a": take("model.a", 1.0), "b": take("model.b", 1.0)}, 1

    def check(self, h, y, Z=None):
        y = np.asarray(y, dtype=float).ravel()
        if y.size == 0:
            raise DataError("empty shard")
        if not np.all(np.isfinite(y)):
            raise DataError("shard contains non-finite values")
        if self.outside_support(y):
            raise DataError(f"{self.name} shard must {self.support}")
        return y, Z

    def update(self, stats, temper, h) -> tuple[float, float]:
        u, v = stats
        return temper * u + h["a"], temper * v + h["b"]

    def true_theta(self, true_theta, meta) -> np.ndarray | None:
        return None if true_theta is None else np.array([true_theta])


class _GammaRate(_ScalarFamily):
    """Positive rate t with a Gamma(a, b) prior (shape a, rate b): a shard
    with statistics (u, v) has likelihood kernel t^u exp(-v t)."""

    def check_theta0(self, theta0):
        if theta0 <= 0:
            raise ConfigError(f"{self.simulate} rate must be positive")

    def draw(self, post, T: int, g) -> np.ndarray:
        shape, rate = post
        return g.gamma(shape, 1.0 / rate, size=T)

    def prior_mean(self, h) -> np.ndarray:
        return np.array([h["a"] / h["b"]])

    def log_prior_normaliser(self, h) -> float:
        return h["a"] * math.log(h["b"]) - math.lgamma(h["a"])

    def posterior_log_kernel(self, post, c):
        a1, rate = float(post[0]) - 1.0, float(post[1])

        def log_density(theta):
            t = theta[0]
            if t <= 0:
                return -np.inf
            return a1 * math.log(t) - rate * t + c

        return log_density


class PoissonGamma(_GammaRate):
    name, simulate, support = "poisson-gamma", "poisson", "contain nonnegative counts"

    def outside_support(self, y) -> bool:
        return np.any(y < 0) or np.any(y != np.floor(y))

    def stats(self, y, Z=None):
        return y.sum(), y.size

    def simulate_data(self, theta0, n: int, g) -> np.ndarray:
        return g.poisson(theta0, n).astype(float)

    def log_base_measure(self, y, Z=None) -> float:
        # log prod y_i!; counts repeat, so lgamma runs once per distinct count
        values, counts = np.unique(y, return_counts=True)
        return counts @ [math.lgamma(v + 1.0) for v in values.tolist()]


class ExponentialGamma(_GammaRate):
    name, simulate, support = "exponential-gamma", "exponential", "contain positive values"

    def outside_support(self, y) -> bool:
        return np.any(y <= 0)

    def stats(self, y, Z=None):
        return y.size, y.sum()

    def simulate_data(self, theta0, n: int, g) -> np.ndarray:
        return g.exponential(1.0 / theta0, n)


class BernoulliBeta(_ScalarFamily):
    name, simulate, support = "bernoulli-beta", "bernoulli", "be binary"

    def outside_support(self, y) -> bool:
        return np.any((y != 0) & (y != 1))

    def stats(self, y, Z=None):
        S = y.sum()
        return S, y.size - S

    def check_theta0(self, theta0):
        if not 0.0 <= theta0 <= 1.0:
            raise ConfigError("bernoulli probability must lie in [0, 1]")

    def simulate_data(self, theta0, n: int, g) -> np.ndarray:
        return g.binomial(1, theta0, n).astype(float)

    def draw(self, post, T: int, g) -> np.ndarray:
        alpha, beta = post
        return g.beta(alpha, beta, size=T)

    def prior_mean(self, h) -> np.ndarray:
        return np.array([h["a"] / (h["a"] + h["b"])])

    def log_prior_normaliser(self, h) -> float:
        return math.lgamma(h["a"] + h["b"]) - math.lgamma(h["a"]) - math.lgamma(h["b"])

    def posterior_log_kernel(self, post, c):
        a1, b1 = float(post[0]) - 1.0, float(post[1]) - 1.0

        def log_density(theta):
            t = theta[0]
            if not 0.0 < t < 1.0:
                return -np.inf
            return a1 * math.log(t) + b1 * math.log1p(-t) + c

        return log_density


class NormalLinearNIG(_Family):
    """Normal linear model with a normal-inverse-gamma prior.

    theta = (coefficients..., noise variance sigma2); the coefficients are
    N(mu_star, sigma2 * omega) given sigma2, and sigma2 is inverse gamma
    with shape a / 2 and rate b / 2.
    """

    name, simulate, regression = "normal-linear-nig", "normal-linear", True

    def hyperparameters(self, h: dict, parameter_dim=None) -> dict:
        a, b = _prior_pair(h, self.name, 4.0)
        mu = np.atleast_1d(coerce(h.get("mu_star"), float_array, f"{self.name} mu_star"))
        omega = np.atleast_2d(coerce(h.get("omega"), float_array, f"{self.name} omega"))
        p = mu.size
        if p < 1 or omega.shape != (p, p):
            raise ConfigError("omega must be p x p with p = len(mu_star) >= 1")
        with np.errstate(invalid="ignore"):  # an infinite prior variance is allowed
            if not np.allclose(omega, omega.T, atol=1e-10 * max(1.0, abs(omega).max())):
                raise ConfigError("omega must be symmetric")
        try:
            np.linalg.cholesky(omega)
        except np.linalg.LinAlgError:
            raise ConfigError("omega must be positive definite") from None
        if parameter_dim not in (None, p + 1):
            raise ConfigError(
                "normal-linear-nig parameter_dim must be p + 1 (coefficients plus noise variance)"
            )
        return {"a": a, "b": b, "mu_star": read_only(mu), "omega": read_only(omega)}

    def config(self, take) -> tuple[dict, int]:
        """Hyperparameters and parameter dimension from a config, read as the
        scalar families' are, plus ``data.p``."""
        if (p := take("data.p")) is None:
            raise ConfigError("normal-linear-nig requires data.p")
        p = coerce(p, whole, "data.p")
        if p < 1:
            raise ConfigError("data.p must be >= 1")
        check_count(p * p, "omega size data.p ** 2")
        omega = take("model.omega", 100.0)
        if np.isscalar(omega):
            omega = np.diag(np.full(p, coerce(omega, real, "model.omega")))
        return {"a": take("model.a", 6.0), "b": take("model.b", 2.0),
                "mu_star": take("model.mu_star", [0.0] * p), "omega": omega}, p + 1

    def check(self, h, y, Z):
        if Z is None:
            raise ConfigError("normal-linear-nig requires a design matrix")
        y = np.asarray(y, dtype=float).ravel()
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        if y.size == 0:
            raise DataError("empty shard")
        if Z.shape[0] != y.size:
            raise ConfigError(f"design has {Z.shape[0]} rows for {y.size} responses")
        if Z.shape[1] != h["mu_star"].size:
            raise ConfigError("mu_star and omega must match the design dimension")
        return y, Z

    def stats(self, y, Z):
        # summed over blocks of _STATS_ROWS rows: OpenBLAS hands a longer dot
        # product to its thread pool, whose workers spin on after the call
        # returns and whose size would set the sums' last bits
        Zb, yb = Z[:_STATS_ROWS], y[:_STATS_ROWS]
        ZtZ, Zty, yty = Zb.T @ Zb, Zb.T @ yb, yb @ yb
        for start in range(_STATS_ROWS, y.size, _STATS_ROWS):
            Zb, yb = Z[start:start + _STATS_ROWS], y[start:start + _STATS_ROWS]
            ZtZ += Zb.T @ Zb
            Zty += Zb.T @ yb
            yty += yb @ yb
        return ZtZ, Zty, yty, y.size

    def update(self, stats, temper, h) -> NormalLinearPosterior:
        ZtZ, Zty, yty, m = stats
        mu_star = h["mu_star"]
        omega_inv = np.linalg.inv(h["omega"])  # positive definite, see hyperparameters
        precision = temper * ZtZ + omega_inv
        rhs = temper * Zty + omega_inv @ mu_star
        try:
            location = np.linalg.solve(precision, rhs)
        except np.linalg.LinAlgError:
            raise NumericError(_SINGULAR_PRECISION) from None
        bstar = h["b"] + mu_star @ omega_inv @ mu_star + temper * yty - rhs @ location
        if bstar <= 0:
            raise NumericError("nonpositive posterior rate; data or prior ill-posed")
        return NormalLinearPosterior(
            coef_location=location,
            coef_precision=precision,
            noise_shape=(h["a"] + temper * m) / 2.0,
            noise_rate=bstar / 2.0,
        )

    def draw(self, post: NormalLinearPosterior, T: int, g) -> np.ndarray:
        try:
            L = np.linalg.cholesky(post.coef_precision)
        except np.linalg.LinAlgError:
            raise NumericError(_SINGULAR_PRECISION) from None
        sigma2 = 1.0 / g.gamma(post.noise_shape, 1.0 / post.noise_rate, size=T)
        z = g.standard_normal((T, post.coef_location.size))
        # L^{-T} z has covariance inv(precision)
        white = np.linalg.solve(L.T, z.T).T
        beta = post.coef_location + np.sqrt(sigma2)[:, None] * white
        return np.column_stack([beta, sigma2])

    def prior_mean(self, h) -> np.ndarray:
        return np.concatenate([h["mu_star"], [h["b"] / (h["a"] - 2.0)]])

    def true_theta(self, true_theta, meta) -> np.ndarray | None:
        beta0, sigma2 = meta.get("beta0"), meta.get("sigma2")
        if beta0 is None or sigma2 is None:
            return None
        return np.array(list(beta0) + [float(sigma2)])

    def log_base_measure(self, y, Z=None) -> float:
        return 0.5 * y.size * math.log(2.0 * math.pi)

    def log_prior_normaliser(self, h) -> float:
        _, logdet_omega = np.linalg.slogdet(h["omega"])
        a2, b2 = h["a"] / 2.0, h["b"] / 2.0
        return -0.5 * h["mu_star"].size * math.log(2.0 * math.pi) - 0.5 * logdet_omega \
            + a2 * math.log(b2) - math.lgamma(a2)

    def posterior_log_kernel(self, post: NormalLinearPosterior, c):
        # halving the precision is exact, so dev @ half @ dev is 0.5 * dev'P dev
        location, half, rate = post.coef_location, 0.5 * post.coef_precision, post.noise_rate
        power = post.noise_shape + location.size / 2.0 + 1.0

        def log_density(theta):
            sigma2 = theta[-1]
            if sigma2 <= 0:
                return -np.inf
            dev = theta[:-1] - location
            return c - power * math.log(sigma2) - (rate + dev @ half @ dev) / sigma2

        return log_density


POISSON = PoissonGamma()
EXPONENTIAL = ExponentialGamma()
BERNOULLI = BernoulliBeta()
LINEAR = NormalLinearNIG()
CONJUGATE = {f.name: f for f in (POISSON, EXPONENTIAL, BERNOULLI, LINEAR)}
# the scalar families by the name of the data they simulate
SIMULATED = {f.simulate: f for f in (POISSON, EXPONENTIAL, BERNOULLI)}

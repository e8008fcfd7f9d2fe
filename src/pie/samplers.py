"""Samplers for tempered shard posteriors.

The four conjugate families admit exact draws: the tempering exponent simply
rescales the sufficient statistics entering the Gamma/Beta/normal-inverse-
gamma updates.  A random-walk Metropolis chain covers custom targets.  Every
sampler is a pure function of its inputs and seed, with no cross-shard state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import rng
from .errors import ConfigError, NumericError, check_count, coerce, real
from .families import (BERNOULLI, EXPONENTIAL, LINEAR, POISSON, NormalLinearPosterior,
                       read_only)
from .models import ObservationSet, TemperedTarget


@dataclass(frozen=True, eq=False)
class DrawMatrix:
    """T x d matrix of posterior draws for one shard or one combined posterior."""

    values: np.ndarray
    shard_id: Optional[int] = None
    accept_rate: Optional[float] = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] < 1:
            raise ConfigError(f"draws must be a T x d matrix, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise NumericError("draw matrix contains non-finite entries")
        object.__setattr__(self, "values", read_only(v.copy()))

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ChainConfig:
    """Random-walk Metropolis chain settings.

    Defaults mirror the usual regime for this kind of study: 10,000
    iterations, the first half discarded, every fifth sample retained.
    """

    T_total: int = 10000
    burn_fraction: float = 0.5
    thin: int = 5
    proposal_scale: Union[float, str] = "auto"
    seed: int = 0

    def __post_init__(self):
        check_count(self.T_total, "T_total")
        if not 0.0 <= self.burn_fraction < 1.0:
            raise ConfigError("burn_fraction must lie in [0, 1)")
        if self.thin < 1:
            raise ConfigError("thin must be >= 1")
        if self.retained < 2:
            raise ConfigError(
                "chain config retains fewer than 2 draws; increase T_total"
            )
        if self.proposal_scale != "auto":
            s = coerce(self.proposal_scale, real, "proposal_scale")
            if not (math.isfinite(s) and s > 0):
                raise ConfigError("proposal_scale must be positive or 'auto'")
            object.__setattr__(self, "proposal_scale", s)

    @property
    def retained(self) -> int:
        """Draws ``sample_metropolis`` keeps: every ``thin``-th step after the
        ``int(T_total * burn_fraction)`` burn-in steps."""
        return (self.T_total - int(self.T_total * self.burn_fraction)) // self.thin


def _exact(family, post, T: int, seed: int, shard_id) -> DrawMatrix:
    if T < 1:
        raise ConfigError("number of draws T must be >= 1")
    return DrawMatrix(family.draw(post, T, rng.stream(seed)), shard_id=shard_id)


def poisson_gamma_params(shard_y, temper, a, b) -> tuple[float, float]:
    """(shape, rate) of the tempered Poisson-count shard posterior."""
    return POISSON.posterior({"a": a, "b": b}, ObservationSet(shard_y), temper)


def exponential_gamma_params(shard_y, temper, a, b) -> tuple[float, float]:
    """(shape, rate) of the tempered exponential-rate shard posterior."""
    return EXPONENTIAL.posterior({"a": a, "b": b}, ObservationSet(shard_y), temper)


def bernoulli_beta_params(shard_y, temper, a, b) -> tuple[float, float]:
    """(alpha, beta) of the tempered Bernoulli-probability shard posterior."""
    return BERNOULLI.posterior({"a": a, "b": b}, ObservationSet(shard_y), temper)


def sample_poisson_gamma(shard_y, temper, a, b, T, seed, shard_id=None) -> DrawMatrix:
    """Exact draws from the tempered Poisson-count shard posterior."""
    return _exact(POISSON, poisson_gamma_params(shard_y, temper, a, b), T, seed, shard_id)


def sample_exponential_gamma(shard_y, temper, a, b, T, seed, shard_id=None) -> DrawMatrix:
    """Exact draws from the tempered exponential-rate shard posterior."""
    return _exact(EXPONENTIAL, exponential_gamma_params(shard_y, temper, a, b), T, seed,
                  shard_id)


def sample_bernoulli_beta(shard_y, temper, a, b, T, seed, shard_id=None) -> DrawMatrix:
    """Exact draws from the tempered Bernoulli-probability shard posterior."""
    return _exact(BERNOULLI, bernoulli_beta_params(shard_y, temper, a, b), T, seed,
                  shard_id)


def normal_linear_nig_params(y, Z, temper, mu_star, omega, a, b) -> NormalLinearPosterior:
    """Conjugate update for the tempered normal linear shard posterior.

    Completes the square in the coefficients, so the inverse-gamma rate is
    exact for any prior location, not only a centered one.
    """
    return LINEAR.posterior({"mu_star": mu_star, "omega": omega, "a": a, "b": b},
                            ObservationSet(y, Z), temper)


def sample_normal_linear_nig(y, Z, temper, mu_star, omega, a, b, T, seed,
                             shard_id=None) -> DrawMatrix:
    """Exact draws of (coefficients, noise variance) for the normal linear model.

    Draws the noise variance from its inverse gamma, then the coefficients
    from the conditional normal, which reproduces the marginal multivariate-t
    law without a dedicated t sampler.
    """
    post = normal_linear_nig_params(y, Z, temper, mu_star, omega, a, b)
    return _exact(LINEAR, post, T, seed, shard_id)


_TARGET_ACCEPT = 0.234
_ADAPT_BATCH = 50


def sample_metropolis(target: TemperedTarget, init, cfg: ChainConfig,
                      shard_id=None) -> DrawMatrix:
    """Isotropic Gaussian random-walk Metropolis over a tempered target.

    Burn-in is discarded and thinning applied.  With ``proposal_scale="auto"``
    the burn-in phase adapts the step size toward acceptance rate 0.234 and
    freezes it before any retained draw; the reported ``accept_rate`` covers
    only the frozen phase.  Bit-identical output for identical (inputs, cfg).

    The target and the initial point are checked once, through
    ``target.log_density``; every step then calls ``target.log_kernel`` on
    the state as the chain holds it.  A one-parameter state is a Python
    float, whose sums are the same IEEE operations as on 1-element arrays.
    """
    theta = np.atleast_1d(np.asarray(init, dtype=float)).copy()
    d = theta.size
    lp = target.log_density(theta)
    if not np.isfinite(lp):
        raise NumericError(f"target is not finite at the initial point {init!r}")

    kernel = target.log_kernel
    state = float(theta[0]) if d == 1 else theta
    auto = cfg.proposal_scale == "auto"
    scale = 2.38 / math.sqrt(d) if auto else float(cfg.proposal_scale)
    n_burn = int(cfg.T_total * cfg.burn_fraction)
    n_post = cfg.T_total - n_burn
    g = rng.stream(rng.CHAIN, cfg.seed)

    def run_phase(n_steps, adapt, keep):
        """Run ``n_steps`` steps; return every ``cfg.thin``-th state if
        ``keep``, and the number of accepted proposals."""
        nonlocal state, lp, scale
        states = []
        accepted = 0
        for batch, done in enumerate(range(0, n_steps, _ADAPT_BATCH), start=1):
            block = min(_ADAPT_BATCH, n_steps - done)
            jumps = scale * g.standard_normal((block, d))
            logu = np.log(g.random(block)).tolist()
            acc_block = 0
            walk = []
            for jump, log_u in zip(jumps.ravel().tolist() if d == 1 else jumps, logu):
                prop = state + jump
                lp_prop = kernel(prop)
                if log_u < lp_prop - lp:
                    state, lp = prop, lp_prop
                    acc_block += 1
                walk.append(state)
            if keep:
                # the steps done + i + 1 of this block that are multiples of thin
                states += walk[(-done - 1) % cfg.thin::cfg.thin]
            accepted += acc_block
            if adapt:
                # damped log-scale update toward the target acceptance rate
                step = min(0.5, 1.0 / math.sqrt(batch))
                scale *= math.exp(step * (acc_block / block - _TARGET_ACCEPT))
        return states, accepted

    run_phase(n_burn, adapt=auto, keep=False)
    states, accepted = run_phase(n_post, adapt=False, keep=True)
    return DrawMatrix(states, shard_id=shard_id, accept_rate=accepted / n_post)

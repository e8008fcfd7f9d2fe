"""Datasets, partitioning, model specifications, and tempered shard targets.

The central object is the tempered target: the log posterior kernel of one
data shard whose log likelihood is multiplied by a tempering exponent so the
shard posterior's spread matches the full-data posterior's.  For equally
sized shards the exponent equals the number of shards K; for unequal shards
we use n / m_j, which reduces to K when n is divisible by K.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import rng
from .errors import ConfigError, DataError, coerce
from .families import CONJUGATE, check_temper, float_array

FAMILIES = (*CONJUGATE, "custom-logdensity")


def _frozen_array(obj, attr, value):
    value.setflags(write=False)
    object.__setattr__(obj, attr, value)


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """Immutable response vector plus optional design matrix.

    Parameters
    ----------
    responses : array_like
        Length-n vector of responses.  All entries must be finite.
    design : array_like, optional
        n x p design matrix for regression models.
    meta : dict, optional
        Provenance (source path, simulation parameters, seed).
    """

    responses: np.ndarray
    design: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.responses, dtype=float)).copy()
        if y.ndim != 1 or y.size < 1:
            raise DataError("responses must be a nonempty 1-d vector")
        if not np.all(np.isfinite(y)):
            raise DataError("responses contain non-finite entries")
        _frozen_array(self, "responses", y)
        if self.design is not None:
            Z = np.asarray(self.design, dtype=float).copy()
            if Z.ndim != 2 or Z.shape[0] != y.size:
                raise DataError(
                    f"design must have {y.size} rows, got shape {Z.shape}"
                )
            if not np.all(np.isfinite(Z)):
                raise DataError("design contains non-finite entries")
            _frozen_array(self, "design", Z)

    @property
    def n(self) -> int:
        return self.responses.size

    @property
    def p(self) -> int:
        return 0 if self.design is None else self.design.shape[1]

    def take(self, indices) -> "ObservationSet":
        """Return the subset of observations at the given row indices."""
        idx = np.asarray(indices, dtype=int)
        design = None if self.design is None else self.design[idx]
        return ObservationSet(self.responses[idx], design, dict(self.meta))


@dataclass(frozen=True, eq=False)
class PartitionPlan:
    """Disjoint assignment of n observation indices to K shards."""

    K: int
    assignments: np.ndarray
    shard_sizes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=np.int64).copy()
        s = np.asarray(self.shard_sizes, dtype=np.int64).copy()
        if self.K < 1 or s.size != self.K:
            raise ConfigError("shard_sizes must have length K >= 1")
        if a.min(initial=0) < 0 or (a.size and a.max() >= self.K):
            raise ConfigError("assignments must lie in [0, K)")
        if not np.array_equal(np.bincount(a, minlength=self.K), s):
            raise ConfigError("shard_sizes inconsistent with assignments")
        if s.max() - s.min() > 1:
            raise ConfigError("shard sizes may differ by at most 1")
        _frozen_array(self, "assignments", a)
        _frozen_array(self, "shard_sizes", s)

    @property
    def n(self) -> int:
        return self.assignments.size

    def shard_indices(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == j)


def partition(n: int, K: int, seed: int) -> PartitionPlan:
    """Randomly split n observation indices into K near-equal shards.

    A seeded random permutation is dealt round-robin, so the first
    ``n mod K`` shards receive ``ceil(n/K)`` indices and the rest
    ``floor(n/K)``.  Pure function of (n, K, seed).
    """
    if K < 1 or K > n:
        raise ConfigError(f"partition requires 1 <= K <= n, got K={K}, n={n}")
    perm = rng.stream(rng.PARTITION, seed).permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    assignments[perm] = np.arange(n) % K
    sizes = np.bincount(assignments, minlength=K)
    return PartitionPlan(K=K, assignments=assignments, shard_sizes=sizes)


@dataclass(frozen=True, eq=False)
class LinearFunctional:
    """Scalar functional of the parameter vector: theta -> a @ theta + b."""

    a: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        a = np.atleast_1d(coerce(self.a, float_array, "functional weights"))
        if a.ndim != 1 or not np.all(np.isfinite(a)) or not np.any(a != 0.0):
            raise ConfigError("functional weights must be finite with a nonzero entry")
        _frozen_array(self, "a", a)
        object.__setattr__(self, "b", coerce(self.b, float, "functional offset"))


def apply_functional(f: LinearFunctional, draws) -> np.ndarray:
    """Evaluate the functional on every row of a T x d draw matrix."""
    values = draws.values if hasattr(draws, "values") else np.asarray(draws, float)
    if values.ndim != 2 or values.shape[1] != f.a.size:
        raise ConfigError(
            f"functional has {f.a.size} weights but draws have shape {values.shape}"
        )
    return values @ f.a + f.b


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Model family plus prior hyperparameters.

    ``hyperparameters`` is keyed by name: ``a``, ``b`` for the Gamma/Beta
    prior families; ``mu_star`` (length p), ``omega`` (p x p positive
    definite), ``a``, ``b`` for the normal linear model.  The custom family
    instead carries ``log_likelihood(theta, data) -> float`` and
    ``log_prior(theta) -> float`` callables.
    """

    family: str
    hyperparameters: dict = field(default_factory=dict)
    parameter_dim: int = 1
    log_likelihood: Optional[Callable] = None
    log_prior: Optional[Callable] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family '{self.family}'")
        if self.parameter_dim < 1:
            raise ConfigError("parameter_dim must be >= 1")
        h = dict(self.hyperparameters)
        conjugate = CONJUGATE.get(self.family)
        if conjugate is not None:
            h = conjugate.hyperparameters(h, self.parameter_dim)
        elif self.log_likelihood is None or self.log_prior is None:
            raise ConfigError(
                "custom-logdensity requires log_likelihood and log_prior callables"
            )
        object.__setattr__(self, "hyperparameters", h)

    def prior_mean(self) -> np.ndarray:
        """Prior mean, the default chain initialization point."""
        conjugate = CONJUGATE.get(self.family)
        if conjugate is None:
            raise ConfigError("custom-logdensity has no default initialization")
        return conjugate.prior_mean(self.hyperparameters)


@dataclass(frozen=True, eq=False)
class TemperedTarget:
    """Log kernel of one shard's tempered posterior.

    Evaluates ``temper * loglik(theta) + logprior(theta)`` up to an additive
    constant fixed per instance; points outside the prior support return
    ``-inf`` so Metropolis proposals there are rejected naturally.  Shard
    data outside a conjugate family's support raise ``DataError`` on
    construction, as the exact samplers do.  Instances are immutable,
    reentrant, and safe to share across threads.
    """

    model: ModelSpec
    shard_data: ObservationSet
    temper: float

    def __post_init__(self):
        object.__setattr__(self, "temper", check_temper(self.temper))
        conjugate = CONJUGATE.get(self.model.family)
        if conjugate is None:
            kernel = self._custom_log_density
        else:
            h = self.model.hyperparameters
            y, Z = conjugate.check(h, self.shard_data.responses, self.shard_data.design)
            kernel = conjugate.log_kernel(h, y, Z, self.temper)
        object.__setattr__(self, "_log_kernel", kernel)

    def _custom_log_density(self, theta) -> float:
        lp = float(self.model.log_prior(theta))
        if not np.isfinite(lp):
            return -np.inf
        ll = float(self.model.log_likelihood(theta, self.shard_data))
        if np.isnan(ll):
            return -np.inf
        return self.temper * ll + lp

    def log_density(self, theta) -> float:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.size != self.model.parameter_dim:
            raise ConfigError(
                f"theta has {theta.size} entries, expected {self.model.parameter_dim}"
            )
        return self._log_kernel(theta)


def tempered_log_density(target: TemperedTarget, theta) -> float:
    """Evaluate a tempered shard target; -inf outside the prior support."""
    return target.log_density(theta)

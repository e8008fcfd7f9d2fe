"""Datasets, partitioning, model specifications, and tempered shard targets.

The central object is the tempered target: the log posterior kernel of one
data shard whose log likelihood is multiplied by a tempering exponent so the
shard posterior's spread matches the full-data posterior's.  For equally
sized shards the exponent equals the number of shards K; for unequal shards
we use n / m_j, which reduces to K when n is divisible by K.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import rng
from .errors import ConfigError, DataError, coerce, real
from .families import CONJUGATE, check_temper, float_array, read_only

FAMILIES = (*CONJUGATE, "custom-logdensity")


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
        object.__setattr__(self, "responses", read_only(y))
        if self.design is not None:
            Z = np.asarray(self.design, dtype=float).copy()
            if Z.ndim != 2 or Z.shape[0] != y.size:
                raise DataError(
                    f"design must have {y.size} rows, got shape {Z.shape}"
                )
            if not np.all(np.isfinite(Z)):
                raise DataError("design contains non-finite entries")
            object.__setattr__(self, "design", read_only(Z))

    @property
    def n(self) -> int:
        return self.responses.size

    @property
    def p(self) -> int:
        return 0 if self.design is None else self.design.shape[1]

    def take(self, indices) -> "ObservationSet":
        """Return the subset of observations at the given row indices."""
        idx = np.asarray(indices)
        # a cast would truncate floats and read bools as positions 0 and 1
        if idx.dtype.kind not in "iu":
            raise ConfigError(f"indices must hold integers, got dtype {idx.dtype}")
        design = None if self.design is None else self.design[idx]
        return ObservationSet(self.responses[idx], design, dict(self.meta))


@dataclass(frozen=True, eq=False)
class PartitionPlan:
    """A permutation of the n observation indices dealt round-robin to K shards.

    Shard j is the hand ``order[j::K]``, kept in ascending order, so the
    first ``n mod K`` shards hold ``ceil(n/K)`` indices and the rest
    ``floor(n/K)``.  ``order`` is held as int32, so n stays below 2**31.
    """

    K: int
    order: np.ndarray

    def __post_init__(self):
        order = np.asarray(self.order)
        n = order.size
        if order.ndim != 1:
            raise ConfigError("order must be a 1-d permutation of range(n)")
        # a float or bool order would be truncated into indices by the cast
        if order.dtype.kind not in "iu":
            raise ConfigError(f"order must hold integers, got dtype {order.dtype}")
        _check_plan_size(n)
        if not 1 <= self.K <= n:
            raise ConfigError(f"a plan needs 1 <= K <= n, got K={self.K}, n={n}")
        # checked before the narrowing cast, which would wrap 2**32 + 3 into 3
        if order.min() < 0 or order.max() >= n:
            raise ConfigError("order must be a permutation of range(n)")
        order = order.astype(np.int32)
        seen = np.zeros(n, dtype=bool)
        seen[order] = True
        if not seen.all():
            raise ConfigError("order must be a permutation of range(n)")
        # order[i] and order[i + K] are neighbours in the same hand
        if not np.all(order[self.K:] > order[:-self.K]):
            raise ConfigError("each shard's indices must be strictly ascending")
        object.__setattr__(self, "order", read_only(order))

    @cached_property
    def shard_sizes(self) -> np.ndarray:
        n, K = self.order.size, self.K
        sizes = np.full(K, n // K, dtype=np.int64)
        sizes[: n % K] += 1
        return read_only(sizes)

    @cached_property
    def assignments(self) -> np.ndarray:
        """Shard of each observation index."""
        assignments = np.empty(self.order.size, dtype=np.int64)
        assignments[self.order] = np.arange(self.order.size) % self.K
        return read_only(assignments)

    def shard_indices(self, j: int) -> np.ndarray:
        """Ascending row indices of shard j, a read-only view."""
        if not 0 <= j < self.K:
            raise ConfigError(f"shard index {j} outside [0, {self.K})")
        return self.order[j::self.K]


def _check_plan_size(n: int) -> None:
    """Refuse an n whose indices int32 cannot hold."""
    if n >= 1 << 31:
        raise ConfigError(f"a partition holds int32 indices: n must be below 2**31, got {n}")


def partition(n: int, K: int, seed: int) -> PartitionPlan:
    """Randomly split n observation indices into K near-equal shards.

    A seeded random permutation is dealt round-robin, so the first
    ``n mod K`` shards receive ``ceil(n/K)`` indices and the rest
    ``floor(n/K)``.  Each hand is sorted in place.  Pure function of
    (n, K, seed); it reads no data, so a run deals it while the data are
    drawn.
    """
    if K < 1 or K > n:
        raise ConfigError(f"partition requires 1 <= K <= n, got K={K}, n={n}")
    _check_plan_size(n)
    # the permutation Generator.permutation(n) returns, shuffled in int32
    order = np.arange(n, dtype=np.int32)
    rng.stream(rng.PARTITION, seed).shuffle(order)
    for j in range(K):
        order[j::K].sort()
    return PartitionPlan(K=K, order=order)


@dataclass(frozen=True, eq=False)
class LinearFunctional:
    """Scalar functional of the parameter vector: theta -> a @ theta + b."""

    a: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        a = np.atleast_1d(coerce(self.a, float_array, "functional weights"))
        if a.ndim != 1 or not np.all(np.isfinite(a)) or not np.any(a != 0.0):
            raise ConfigError("functional weights must be finite with a nonzero entry")
        object.__setattr__(self, "a", read_only(a))
        b = coerce(self.b, real, "functional offset")
        if not np.isfinite(b):
            raise ConfigError(f"functional offset must be finite, got {b!r}")
        object.__setattr__(self, "b", b)


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

    Evaluates exactly ``temper * loglik(theta) + logprior(theta)``; points
    outside the prior support return ``-inf`` so Metropolis proposals there
    are rejected naturally.  A conjugate family's value is read off its
    tempered update, so shard data the exact samplers refuse are refused
    on construction too: outside the support with ``DataError``, an
    ill-posed normal-linear update with ``NumericError``.  Instances are
    immutable, reentrant, and safe to share across threads.

    ``log_density`` checks the size of ``theta`` on every call.
    ``log_kernel`` is the same function without that check, taking the
    point as a Metropolis chain holds it: a Python float when d = 1 and a
    float ndarray of shape (d,) otherwise.  A caller that has checked its
    point once, such as the chain, calls it directly.
    ``custom-logdensity`` callables always receive a float ndarray of shape
    (d,).
    """

    model: ModelSpec
    shard_data: ObservationSet
    temper: float
    log_kernel: Callable = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "temper", check_temper(self.temper))
        conjugate = CONJUGATE.get(self.model.family)
        if conjugate is None:
            kernel = self._custom_log_density
        else:
            h = self.model.hyperparameters
            conjugate.check(h, self.shard_data)
            kernel = conjugate.log_kernel(h, self.shard_data, self.temper)
        object.__setattr__(self, "log_kernel", kernel)

    def _custom_log_density(self, theta) -> float:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
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
        return self.log_kernel(float(theta[0]) if theta.size == 1 else theta)


def tempered_log_density(target: TemperedTarget, theta) -> float:
    """Evaluate a tempered shard target; -inf outside the prior support."""
    return target.log_density(theta)

"""Combining shard posteriors.

For a scalar functional, averaging the K shard quantile functions pointwise
yields the quantile function of the one-dimensional Wasserstein-2 barycenter
of the shard posteriors, so credible intervals follow by averaging per-shard
empirical quantiles.  This module also provides the Gaussian barycenter
(covariance found by fixed-point iteration), an inverse-covariance
weighted draw averaging baseline, and the joint combiner for
multi-dimensional parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng
from .errors import ConfigError, DataError, NumericError, check_count
from .families import float_array, read_only
from .samplers import DrawMatrix


def default_grid(size: int = 999) -> np.ndarray:
    """Equispaced probability grid k / (size + 1), k = 1..size."""
    check_count(size, "grid size")
    return np.arange(1, size + 1) / (size + 1.0)


def _as_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float).ravel()
    if g.size < 1:
        raise ConfigError("probability grid is empty")
    if not (g.min() > 0.0 and g.max() < 1.0):  # also rejects NaN
        raise ConfigError("probability grid must lie strictly inside (0, 1)")
    if g.size > 1 and np.any(np.diff(g) <= 0):
        raise ConfigError("probability grid must be strictly increasing")
    return g


@dataclass(frozen=True, eq=False)
class QuantileTable:
    """Monotone map from probabilities in (0, 1) to functional values.

    The package's canonical representation of a one-dimensional distribution.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = _as_grid(self.grid).copy()
        v = np.asarray(self.values, dtype=float).ravel().copy()
        if v.size != g.size:
            raise ConfigError("grid and values must have equal length")
        if not np.all(np.isfinite(v)):
            raise NumericError("quantile values contain non-finite entries")
        if v.size > 1 and np.any(np.diff(v) < 0):
            raise ConfigError("quantile values must be nondecreasing")
        object.__setattr__(self, "grid", read_only(g))
        object.__setattr__(self, "values", read_only(v))

    @property
    def size(self) -> int:
        return self.grid.size


@dataclass(frozen=True)
class IntervalEstimate:
    """Equal-tailed credible interval at level 1 - alpha."""

    alpha: float
    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.lower > self.upper:
            raise ConfigError("interval lower bound exceeds upper bound")


def _require_shared_grid(first: QuantileTable, *others: QuantileTable):
    if any(not np.array_equal(t.grid, first.grid) for t in others):
        raise ConfigError("quantile tables use different grids")


def _order_statistics(draws: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Order statistics of ``draws``, T draws along axis 0, at the 1-based
    index floor(T * u), clamped to [1, T], for each level u: the draws are
    sorted along axis 0 once, and one row read per level.

    The floor rule would yield index zero for small ``T * u``; clamping to
    the minimum order statistic is the minimal consistent fix.
    """
    T = draws.shape[0]
    return np.sort(draws, axis=0)[np.clip(np.floor(T * levels).astype(int), 1, T) - 1]


def empirical_quantile(draws_1d, u: float) -> float:
    """Order statistic at 1-based index floor(T * u), clamped to [1, T]:
    ``quantile_table`` on the one-point grid ``[u]``."""
    return float(quantile_table(draws_1d, [u]).values[0])


def quantile_table(draws_1d, grid=None) -> QuantileTable:
    """Empirical quantile function of the draws on a probability grid."""
    draws = np.asarray(draws_1d, dtype=float).ravel()
    if draws.size == 0:
        raise DataError("empty draws")
    g = default_grid() if grid is None else _as_grid(grid)
    return QuantileTable(grid=g, values=_order_statistics(draws, g))


def average_quantile_tables(tables: Sequence[QuantileTable]) -> QuantileTable:
    """Pointwise mean of quantile tables sharing one grid.

    The result is the quantile table of the one-dimensional Wasserstein-2
    barycenter of the input distributions.  Shards are reduced in ascending
    order with pairwise summation, so the output is reproducible.
    """
    if len(tables) == 0:
        raise ConfigError("need at least one quantile table")
    _require_shared_grid(*tables)
    values = np.mean(np.stack([t.values for t in tables]), axis=0)
    return QuantileTable(grid=tables[0].grid, values=values)


def pie_interval(subset_draws: Sequence, alpha: float) -> IntervalEstimate:
    """Credible interval from averaged per-shard empirical quantiles.

    The endpoints are the average of the shards' quantile tables on the
    two-point grid (alpha/2, 1 - alpha/2), so they equal the combined table
    at those levels.  With one draw vector this is its own equal-tailed
    interval.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    grid = [alpha / 2.0, 1.0 - alpha / 2.0]
    tables = []
    for draws in subset_draws:
        if np.size(draws) < 2:
            raise DataError("every shard needs at least 2 draws")
        tables.append(quantile_table(draws, grid))
    lower, upper = average_quantile_tables(tables).values
    return IntervalEstimate(alpha=alpha, lower=float(lower), upper=float(upper))


def sample_from_table(table: QuantileTable, size: int, generator) -> np.ndarray:
    """Inverse-CDF draws with linear interpolation between grid points."""
    if size < 1:
        raise ConfigError("sample size must be >= 1")
    u = generator.random(size)
    return np.interp(u, table.grid, table.values)


# -- Gaussian barycenter ----------------------------------------------------

@dataclass(frozen=True, eq=False)
class GaussianApprox:
    """Mean vector and symmetric positive-semidefinite covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float)).copy()
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float)).copy()
        d = mean.size
        if cov.shape != (d, d):
            raise ConfigError(f"covariance must be {d} x {d}, got {cov.shape}")
        scale = max(1.0, float(np.abs(cov).max()))
        if np.abs(cov - cov.T).max() > 1e-12 * scale:
            raise ConfigError("covariance must be symmetric")
        if np.linalg.eigvalsh((cov + cov.T) / 2.0).min() < -1e-12 * scale:
            raise ConfigError("covariance must be positive semidefinite")
        object.__setattr__(self, "mean", read_only(mean))
        object.__setattr__(self, "cov", read_only(cov))

    @property
    def d(self) -> int:
        return self.mean.size


def _sym_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric square root via eigendecomposition, eigenvalues floored at 0."""
    w, U = np.linalg.eigh((M + M.T) / 2.0)
    w = np.clip(w, 0.0, None)
    return (U * np.sqrt(w)) @ U.T


def _sym_eigh(M: np.ndarray, what: str):
    """Eigenvalues and eigenvectors of the symmetric part of ``M``; a
    numerically singular ``M`` raises ``NumericError``."""
    w, U = np.linalg.eigh((M + M.T) / 2.0)
    if w.min() <= 1e-14 * max(w.max(), 1.0):
        raise NumericError(f"singular {what}")
    return w, U


def _fixed_point_sum(cov: np.ndarray, covs: Sequence[np.ndarray]):
    """``sum_j (V^{1/2} C_j V^{1/2})^{1/2}`` at V = ``cov``, and the Frobenius
    norm of its defect from ``K V``."""
    root = _sym_sqrt(cov)
    total = sum(_sym_sqrt(root @ c @ root) for c in covs)
    return total, float(np.linalg.norm(total - len(covs) * cov, "fro"))


def barycenter_residual(cov: np.ndarray, covs: Sequence[np.ndarray]) -> float:
    """Frobenius norm of the Gaussian barycenter fixed-point defect."""
    return _fixed_point_sum(cov, covs)[1]


def gaussian_barycenter(approxes: Sequence[GaussianApprox], tol: float = 1e-10,
                        max_iter: int = 500) -> GaussianApprox:
    """Wasserstein-2 barycenter of Gaussian approximations.

    The barycenter of Gaussians is Gaussian: its mean is the average of the
    input means and its covariance V solves the fixed point
    ``sum_j (V^{1/2} C_j V^{1/2})^{1/2} = K V``.  The covariance is found by
    fixed-point iteration initialized at the average input covariance,
    stopping when the residual Frobenius norm falls below ``tol``.
    """
    if len(approxes) == 0:
        raise ConfigError("need at least one Gaussian approximation")
    d = approxes[0].d
    for g in approxes[1:]:
        if g.d != d:
            raise ConfigError("Gaussian approximations have mixed dimensions")
    mean = np.mean(np.stack([g.mean for g in approxes]), axis=0)
    covs = [(g.cov + g.cov.T) / 2.0 for g in approxes]
    K = len(covs)
    V = np.mean(np.stack(covs), axis=0)
    residual = np.inf
    for _ in range(max_iter + 1):
        total, residual = _fixed_point_sum(V, covs)
        if residual < tol:
            return GaussianApprox(mean=mean, cov=V)
        w, U = _sym_eigh(V, "matrix barycenter iterate")
        inv_root = (U / np.sqrt(w)) @ U.T
        avg = total / K
        V = inv_root @ (avg @ avg) @ inv_root
        V = (V + V.T) / 2.0
    raise NumericError(
        f"barycenter fixed point did not converge in {max_iter} iterations; "
        f"last residual {residual:.3e}"
    )


# -- Consensus baseline -----------------------------------------------------

_RIDGE_SCALE = 1e-8


def _inverse_covariance(values: np.ndarray):
    """Inverse sample covariance with a trace-scaled ridge fallback."""
    d = values.shape[1]
    cov = np.atleast_2d(np.cov(values, rowvar=False, ddof=1))
    try:
        return np.linalg.inv(cov)
    except np.linalg.LinAlgError:
        ridge = _RIDGE_SCALE * np.trace(cov) / d
        try:
            return np.linalg.inv(cov + ridge * np.eye(d))
        except np.linalg.LinAlgError:
            raise NumericError("singular shard covariance") from None


def consensus_combine(subset_draws: Sequence[DrawMatrix]) -> DrawMatrix:
    """Combine aligned shard draws by inverse-covariance weighted averaging.

    Draw t of the output is ``inv(sum_j W_j) sum_j W_j theta_tj`` with W_j
    the inverse sample covariance of shard j.  Requires equal T and d across
    shards; covariances fall back to a small ridge when singular.
    """
    if len(subset_draws) == 0:
        raise ConfigError("need at least one shard")
    mats = [dm.values for dm in subset_draws]
    shape = mats[0].shape
    if shape[0] < 2:
        raise DataError("consensus combining needs at least 2 draws per shard")
    for m in mats[1:]:
        if m.shape != shape:
            raise ConfigError("shards must share draw count and dimension")
    if len(mats) == 1:
        return DrawMatrix(mats[0])
    weights = [_inverse_covariance(m) for m in mats]
    w_sum = np.sum(np.stack(weights), axis=0)
    weighted = np.zeros(shape)
    for m, w in zip(mats, weights):
        weighted += m @ w  # w symmetric, so row-wise right-multiply applies it
    try:
        combined = np.linalg.solve(w_sum, weighted.T).T
    except np.linalg.LinAlgError:
        raise NumericError("singular combined weight matrix") from None
    return DrawMatrix(combined)


# -- Joint combiner for multi-dimensional parameters ------------------------
#
# Shard draws are centered and whitened with pooled moments (mean of shard
# means; inverse covariance equal to the mean of shard inverse covariances).
# Each whitened coordinate is then combined by quantile averaging, resampled
# by inverse-CDF interpolation, and the rows mapped back through the pooled
# transform.  Whitened coordinates are close to independent for large draw
# counts, which is what justifies combining them separately.

@dataclass(frozen=True, eq=False)
class PooledTransform:
    """Pooled centering and whitening transform built from shard moments."""

    mean: np.ndarray
    cov: np.ndarray
    cov_sqrt: np.ndarray
    cov_inv_sqrt: np.ndarray

    def __post_init__(self):
        for name in ("mean", "cov", "cov_sqrt", "cov_inv_sqrt"):
            object.__setattr__(self, name, read_only(float_array(getattr(self, name))))

    def whiten(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) @ self.cov_inv_sqrt

    def unwhiten(self, values: np.ndarray) -> np.ndarray:
        return values @ self.cov_sqrt + self.mean


def pooled_center_scale(
    subset_draws: Sequence[DrawMatrix],
) -> tuple[PooledTransform, list[DrawMatrix]]:
    """Pool shard moments and whiten every shard's draws.

    The pooled covariance is the inverse of the averaged shard inverse
    covariances (sample covariances use the T - 1 denominator); its
    symmetric square root and inverse square root come from one shared
    eigendecomposition so the two are mutually consistent.
    """
    if len(subset_draws) == 0:
        raise ConfigError("need at least one shard")
    d = subset_draws[0].d
    for dm in subset_draws:
        if dm.d != d:
            raise ConfigError("shards must share the parameter dimension")
        if dm.T < 2:
            raise DataError("pooling needs at least 2 draws per shard")
    means = [dm.values.mean(axis=0) for dm in subset_draws]
    inverses = [_inverse_covariance(dm.values) for dm in subset_draws]
    mean = np.mean(np.stack(means), axis=0)
    pooled_inv = np.mean(np.stack(inverses), axis=0)
    w, U = _sym_eigh(pooled_inv, "pooled covariance")
    cov = (U / w) @ U.T
    cov_sqrt = (U / np.sqrt(w)) @ U.T
    cov_inv_sqrt = (U * np.sqrt(w)) @ U.T
    transform = PooledTransform(mean=mean, cov=cov, cov_sqrt=cov_sqrt,
                                cov_inv_sqrt=cov_inv_sqrt)
    whitened = [
        DrawMatrix(transform.whiten(dm.values), shard_id=dm.shard_id)
        for dm in subset_draws
    ]
    return transform, whitened


def combine_multidim(subset_draws: Sequence[DrawMatrix], grid=None,
                     T_out: int | None = None, seed: int = 0) -> DrawMatrix:
    """Approximate joint combined posterior draws for a d-dimensional parameter.

    Coordinates of the whitened draws are combined independently by quantile
    averaging; each is resampled ``T_out`` times by inverse-CDF interpolation
    from its own keyed stream, then rows are mapped back to the original
    scale.  Deterministic in (inputs, grid, T_out, seed).
    """
    g = default_grid() if grid is None else _as_grid(grid)
    if g.size < 2:
        raise ConfigError("resampling grid needs at least 2 points")
    transform, whitened = pooled_center_scale(subset_draws)
    if T_out is None:
        T_out = whitened[0].T
    if T_out < 1:
        raise ConfigError("T_out must be >= 1")
    # every coordinate's quantiles averaged in shard order: a G x d block
    blocks = [_order_statistics(dm.values, g) for dm in whitened]
    combined = np.mean(np.stack(blocks), axis=0)
    out = np.empty((T_out, whitened[0].d))
    for c in range(out.shape[1]):
        table = QuantileTable(grid=g, values=combined[:, c])
        stream = rng.stream(rng.RESAMPLE, seed, c)
        out[:, c] = sample_from_table(table, T_out, stream)
    return DrawMatrix(transform.unwhiten(out))


def marginal_tables(draws: DrawMatrix, grid=None) -> list[QuantileTable]:
    """Per-coordinate quantile tables of a draw matrix."""
    g = default_grid() if grid is None else _as_grid(grid)
    return [quantile_table(draws.values[:, c], g) for c in range(draws.d)]

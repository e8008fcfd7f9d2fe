"""Joint posterior approximation for multi-dimensional parameters.

Shard draws are centered and whitened with pooled moments (mean of shard
means; inverse covariance equal to the mean of shard inverse covariances).
Each whitened coordinate is then combined by quantile averaging, resampled
by inverse-CDF interpolation, and the rows mapped back through the pooled
transform.  Whitened coordinates are close to independent for large draw
counts, which is what justifies combining them separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng
from .combine import (
    QuantileTable,
    _as_grid,
    _inverse_covariance,
    _order_statistics,
    _sym_eigh,
    default_grid,
    quantile_table,
    sample_from_table,
)
from .errors import ConfigError, DataError
from .families import float_array, read_only
from .samplers import DrawMatrix


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

"""Quantitative evaluation of combined posteriors.

Distances between quantile tables, kernel density estimates and the
density-overlap accuracy score, bias/variance summaries, and log-log rate
fits for convergence checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combine import QuantileTable, _require_shared_grid
from .errors import ConfigError, DataError, NumericError
from .families import float_array, read_only

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _cell_weights(grid: np.ndarray) -> np.ndarray:
    """Midpoint-rule cell widths covering (0, 1); they sum to one."""
    edges = np.concatenate(([0.0], (grid[1:] + grid[:-1]) / 2.0, [1.0]))
    return np.diff(edges)


def w2_from_tables(A: QuantileTable, B: QuantileTable) -> float:
    """Wasserstein-2 distance between two distributions given as quantile tables.

    In one dimension the squared distance is the integral over (0, 1) of the
    squared quantile-function difference; here it is approximated by the
    midpoint rule on the shared grid.
    """
    _require_shared_grid(A, B)
    w = _cell_weights(A.grid)
    diff = A.values - B.values
    return float(math.sqrt(np.sum(w * diff * diff)))


def table_moments(table: QuantileTable) -> tuple[float, float]:
    """(mean, variance) of the distribution under the same midpoint rule."""
    w = _cell_weights(table.grid)
    mean = float(np.sum(w * table.values))
    var = float(np.sum(w * (table.values - mean) ** 2))
    return mean, var


def quantile_gap(A: QuantileTable, B: QuantileTable, u1: float, u2: float) -> float:
    """Largest absolute quantile difference over grid points in [u1, u2]."""
    _require_shared_grid(A, B)
    if not 0.0 < u1 < u2 < 1.0:
        raise ConfigError(f"need 0 < u1 < u2 < 1, got ({u1}, {u2})")
    mask = (A.grid >= u1) & (A.grid <= u2)
    if not np.any(mask):
        raise ConfigError(f"no grid points inside [{u1}, {u2}]")
    return float(np.max(np.abs(A.values[mask] - B.values[mask])))


# -- Kernel density estimation ----------------------------------------------

@dataclass(frozen=True, eq=False)
class DensityEstimate:
    """Density values on an increasing grid, normalized to unit mass."""

    grid_x: np.ndarray
    density: np.ndarray
    bandwidth: float

    def __post_init__(self):
        x = np.asarray(self.grid_x, dtype=float).copy()
        f = np.asarray(self.density, dtype=float).copy()
        if x.ndim != 1 or x.size < 2 or np.any(np.diff(x) <= 0):
            raise ConfigError("density grid must be increasing with >= 2 points")
        if f.shape != x.shape or np.any(f < 0) or not np.all(np.isfinite(f)):
            raise NumericError("density values must be finite and nonnegative")
        if abs(float(_trapezoid(f, x)) - 1.0) > 1e-3:
            raise NumericError("density does not integrate to 1 on its grid")
        if not self.bandwidth > 0:
            raise ConfigError("bandwidth must be positive")
        object.__setattr__(self, "grid_x", read_only(x))
        object.__setattr__(self, "density", read_only(f))

    def at(self, x: float) -> float:
        return float(np.interp(x, self.grid_x, self.density))


def silverman_bandwidth(samples: np.ndarray) -> float:
    """0.9 * min(sd, IQR / 1.34) * T^(-1/5), skipping a zero IQR."""
    # np.std of identical values can be a rounding residue, not 0
    if samples.min() == samples.max():
        raise NumericError("degenerate sample: zero spread")
    sd = float(np.std(samples))
    q75, q25 = np.percentile(samples, [75, 25])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * spread * samples.size ** (-0.2)


def _kernel_sum(samples: np.ndarray, h: float, grid: np.ndarray) -> np.ndarray:
    """Gaussian kernel sum on an evenly spaced grid, by linear binning.

    Each sample's unit mass is split between its two neighbouring grid
    points, and the counts are convolved with the kernel sampled at every
    grid offset, so no kernel tail is cut off (Silverman 1982; Wand 1994).
    The callers' grids extend the samples' range by 3h on both sides.
    """
    n = grid.size
    dx = (grid[-1] - grid[0]) / (n - 1)
    pos = (samples - grid[0]) / dx
    left = np.minimum(pos.astype(np.intp), n - 2)
    frac = pos - left
    counts = (np.bincount(left, weights=1.0 - frac, minlength=n)
              + np.bincount(left + 1, weights=frac, minlength=n))
    z = np.arange(1 - n, n) * (dx / h)
    kernel = np.exp(-0.5 * z * z) / (samples.size * h * math.sqrt(2.0 * math.pi))
    return np.convolve(counts, kernel, mode="valid")


def _density(samples: np.ndarray, h: float, grid: np.ndarray) -> np.ndarray:
    """``_kernel_sum`` divided by its trapezoid mass on ``grid``."""
    density = _kernel_sum(samples, h, grid)
    return density / float(_trapezoid(density, grid))


def kde_1d(samples, bandwidth="silverman") -> DensityEstimate:
    """Gaussian-kernel density on 512 points spanning the sample range
    extended by three bandwidths.

    The result is renormalized on its grid, so the clipped kernel tails
    (at most ~0.14% of the mass) never break the unit-integral contract.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        raise DataError("kernel density estimation needs at least 2 samples")
    if not np.all(np.isfinite(x)):
        raise DataError("samples contain non-finite values")
    h = silverman_bandwidth(x) if bandwidth == "silverman" else float(bandwidth)
    if not h > 0:
        raise ConfigError("bandwidth must be positive")
    grid = np.linspace(x.min() - 3.0 * h, x.max() + 3.0 * h, 512)
    # a spread of a few ulps rounds the 3h margins away and repeats grid points
    if np.any(np.diff(grid) <= 0):
        raise NumericError("sample spread too small to resolve on a density grid")
    return DensityEstimate(grid_x=grid, density=_density(x, h, grid), bandwidth=h)


def accuracy(q_samples, pi_samples) -> float:
    """Density overlap between two sample sets, in [0, 1].

    One minus half the integrated absolute difference between the two kernel
    density estimates, evaluated on a shared grid spanning both extended
    sample ranges.  Larger is better; disjoint supports give 0.
    """
    q = np.asarray(q_samples, dtype=float).ravel()
    p = np.asarray(pi_samples, dtype=float).ravel()
    if q.size < 2 or p.size < 2:
        raise DataError("accuracy needs at least 2 samples on each side")
    hq = silverman_bandwidth(q)
    hp = silverman_bandwidth(p)
    lo = min(q.min() - 3.0 * hq, p.min() - 3.0 * hp)
    hi = max(q.max() + 3.0 * hq, p.max() + 3.0 * hp)
    grid = np.linspace(lo, hi, 1024)
    fq, fp = _density(q, hq, grid), _density(p, hp, grid)
    value = 1.0 - 0.5 * float(_trapezoid(np.abs(fq - fp), grid))
    return float(min(max(value, 0.0), 1.0))


# -- Summaries and rate fits --------------------------------------------------

def bias_variance_summary(draws_1d, xi0: float) -> tuple[float, float]:
    """(sample mean - xi0, sample variance with the T - 1 denominator)."""
    draws = np.asarray(draws_1d, dtype=float).ravel()
    if draws.size < 2:
        raise DataError("bias/variance summary needs at least 2 draws")
    return float(draws.mean() - xi0), float(draws.var(ddof=1))


@dataclass(frozen=True, eq=False)
class RateFit:
    """Least-squares fit of log distance against log sample size."""

    log_n: np.ndarray
    log_w2: np.ndarray
    slope: float
    intercept: float

    def __post_init__(self):
        for name in ("log_n", "log_w2"):
            object.__setattr__(self, name, read_only(float_array(getattr(self, name))))


def rate_fit(ns, w2s) -> RateFit:
    """Fit the decay exponent of distances across sample sizes."""
    n = np.asarray(ns, dtype=float).ravel()
    w = np.asarray(w2s, dtype=float).ravel()
    if n.size != w.size or n.size < 3:
        raise ConfigError("rate fit needs >= 3 (n, distance) pairs")
    if np.any(n <= 0) or np.any(w <= 0) or not np.all(np.isfinite(n) & np.isfinite(w)):
        raise ConfigError("rate fit requires positive finite inputs")
    log_n, log_w = np.log(n), np.log(w)
    slope, intercept = np.polyfit(log_n, log_w, 1)
    return RateFit(log_n=log_n, log_w2=log_w, slope=float(slope),
                   intercept=float(intercept))

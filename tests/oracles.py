"""Independent analytic oracles used by the tests.

Quantiles come from bisection on the regularized incomplete gamma/beta
functions, deliberately avoiding both the sampling code under test and
scipy's ppf implementations.  Kernel density values come from the direct
sum over every grid point and every sample, which the binned estimate in
``pie.metrics`` approximates.  CSV text comes from ``csv.writer``, the
row-by-row rule the column-wise writer in ``pie.data`` must reproduce.
"""

import csv
import io
import math

import numpy as np
from scipy.special import betainc, gammainc, ndtri


def _bisect(cdf, u, lo, hi, iters=200):
    u = np.asarray(u, dtype=float)
    lo = np.full_like(u, lo, dtype=float)
    hi = np.full_like(u, hi, dtype=float)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def gamma_quantile(shape, rate, u):
    """Quantiles of Gamma(shape, rate) by bisection on gammainc."""
    mean = shape / rate
    sd = np.sqrt(shape) / rate
    hi = mean + 20.0 * sd + 10.0 / rate
    while gammainc(shape, rate * hi) < np.max(u):
        hi *= 2.0
    return _bisect(lambda x: gammainc(shape, rate * x), u, 0.0, hi)


def beta_quantile(a, b, u):
    """Quantiles of Beta(a, b) by bisection on betainc."""
    return _bisect(lambda x: betainc(a, b, x), u, 0.0, 1.0)


def normal_quantile(mu, sigma, u):
    return mu + sigma * ndtri(np.asarray(u, dtype=float))


def gamma_sd(shape, rate):
    return np.sqrt(shape) / rate


def beta_sd(a, b):
    return np.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))


def direct_kernel_sum(samples, h, grid):
    """Gaussian kernel sum at each grid point, summed over every sample."""
    # chunk over grid points to bound the broadcast to ~64 * T doubles
    out = np.empty(grid.size)
    norm = 1.0 / (samples.size * h * math.sqrt(2.0 * math.pi))
    for start in range(0, grid.size, 64):
        block = grid[start:start + 64, None]
        z = (block - samples[None, :]) / h
        out[start:start + 64] = norm * np.exp(-0.5 * z * z).sum(axis=1)
    return out


# floats whose shortest round-trip text is easy to get wrong: a signed zero,
# the smallest subnormal and normal, inexact decimals, exponent switches
SPECIAL_FLOATS = [-1.5e-7, -0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3,
                  123456789.0, 1e16, 1e22]


def reference_csv(header, rows) -> str:
    """CSV text by ``csv.writer`` with '\\n' line ends: text cells as they
    are, every other cell as ``repr(float(v))``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cell if isinstance(cell, str) else repr(float(cell)) for cell in row]
                     for row in rows)
    return out.getvalue()

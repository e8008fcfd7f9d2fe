"""Independent analytic oracles used by the tests.

Quantiles come from bisection on the regularized incomplete gamma/beta
functions, deliberately avoiding both the sampling code under test and
scipy's ppf implementations.  Kernel density values come from the direct
sum over every grid point and every sample, which the binned estimate in
``pie.metrics`` approximates.  CSV text comes from ``csv.writer``, the
row-by-row rule the column-wise writer in ``pie.data`` must reproduce, and
CSV input is read back by the ``csv.reader`` row loop that the one-pass
numeric parse in ``pie.data`` must match.  Shards come from scattering
shard labels through the seeded permutation and scanning the labels once
per shard, the rule the sorted hands of ``pie.models.PartitionPlan`` must
reproduce.  Metropolis chains come from the loop that checked the target on
every step through ``log_density``, whose draws the direct-kernel loop in
``pie.samplers`` must reproduce bit for bit.
The normal-linear log density, the Poisson base measure and the
normal-linear draw come from scipy, which the package itself does not
import: they pin the numpy and ``math`` code that replaced those calls.
"""

import csv
import io
import math

from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import betainc, gammainc, gammaln, ndtri
from scipy.stats import invgamma, multivariate_normal, norm

from pie import DataError, NumericError, rng


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


def normal_linear_log_density(y, Z, temper, mu_star, omega, a, b, theta):
    """temper * log N(y; Z beta, sigma2 I) + log N(beta; mu_star, sigma2 omega)
    + log InvGamma(sigma2; shape a / 2, scale b / 2), theta = (beta, sigma2)."""
    beta, sigma2 = np.asarray(theta[:-1], dtype=float), float(theta[-1])
    return (temper * norm.logpdf(y, Z @ beta, math.sqrt(sigma2)).sum()
            + multivariate_normal.logpdf(beta, mu_star, sigma2 * np.asarray(omega))
            + invgamma.logpdf(sigma2, a / 2.0, scale=b / 2.0))


def log_factorial_sum(y):
    """log prod y_i! by scipy's log-gamma."""
    return gammaln(np.asarray(y, dtype=float) + 1.0).sum()


def normal_linear_draws(post, T, g):
    """The normal-linear exact draw from generator ``g``, with the whitening
    L^{-T} z by scipy's triangular solve (L the Cholesky factor of the
    coefficient precision)."""
    L = np.linalg.cholesky(post.coef_precision)
    sigma2 = 1.0 / g.gamma(post.noise_shape, 1.0 / post.noise_rate, size=T)
    z = g.standard_normal((T, post.coef_location.size))
    white = solve_triangular(L, z.T, lower=True, trans="T").T
    return np.column_stack([post.coef_location + np.sqrt(sigma2)[:, None] * white, sigma2])


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


def reference_read_table(path, expected_header=None,
                         text_columns: int = 0) -> tuple[Path, list, list, np.ndarray]:
    """The CSV reader as a ``csv.reader`` row loop with one ``float()`` call
    per cell: the rule ``pie.data._read_table`` must follow on every input,
    in the values it returns and in the message of every error."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [name.strip() for name in rows[0]]
    if expected_header is not None and header != expected_header:
        raise DataError(f"{path}: expected header '{','.join(expected_header)}'")
    values = np.empty((len(rows) - 1, len(header) - text_columns))
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(
                f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            values[lineno - 2] = [float(cell) for cell in row[text_columns:]]
        except ValueError:
            bad = next(c for c in row[text_columns:] if not _is_float(c))
            raise DataError(
                f"{path}: line {lineno}: non-numeric value '{bad}'"
            ) from None
    bad_rows = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad_rows.size:
        raise DataError(f"{path}: line {bad_rows[0] + 2}: non-finite value")
    labels = [[row[i] for row in rows[1:]] for i in range(text_columns)]
    return path, header, labels, values


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def reference_partition(n, K, seed):
    """(assignments, shard sizes, shard indices) of the round-robin deal by a
    scatter of shard labels and one ``flatnonzero`` scan per shard."""
    perm = rng.stream(rng.PARTITION, seed).permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    assignments[perm] = np.arange(n) % K
    sizes = np.bincount(assignments, minlength=K)
    return assignments, sizes, [np.flatnonzero(assignments == j) for j in range(K)]


def reference_metropolis(target, init, cfg):
    """(T x d draws, accept rate) of the random-walk Metropolis chain that
    evaluates ``target.log_density`` on every step and forms each step as
    ``theta + scale * z[i]`` on 1-element-or-wider arrays."""
    theta = np.atleast_1d(np.asarray(init, dtype=float)).copy()
    d = theta.size
    lp = target.log_density(theta)
    if not np.isfinite(lp):
        raise NumericError(f"target is not finite at the initial point {init!r}")

    auto = cfg.proposal_scale == "auto"
    scale = 2.38 / math.sqrt(d) if auto else float(cfg.proposal_scale)
    n_burn = int(cfg.T_total * cfg.burn_fraction)
    n_post = cfg.T_total - n_burn
    g = rng.stream(rng.CHAIN, cfg.seed)

    def run_phase(n_steps, adapt):
        nonlocal theta, lp, scale
        states = np.empty((n_steps, d))
        accepted = 0
        done = 0
        batch = 0
        while done < n_steps:
            block = min(50, n_steps - done)
            z = g.standard_normal((block, d))
            logu = np.log(g.random(block))
            acc_block = 0
            for i in range(block):
                prop = theta + scale * z[i]
                lp_prop = target.log_density(prop)
                if logu[i] < lp_prop - lp:
                    theta, lp = prop, lp_prop
                    acc_block += 1
                states[done + i] = theta
            done += block
            accepted += acc_block
            batch += 1
            if adapt:
                step = min(0.5, 1.0 / math.sqrt(batch))
                scale *= math.exp(step * (acc_block / block - 0.234))
        return states, accepted

    if n_burn:
        run_phase(n_burn, adapt=auto)
    states, accepted = run_phase(n_post, adapt=False)
    return states[cfg.thin - 1::cfg.thin], accepted / n_post

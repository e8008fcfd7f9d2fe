"""Data simulation and file formats.

CSV contract: header row, column ``y`` for responses, optional columns
``x1..xp`` for the design, UTF-8, '.' decimal separator, '\\n' line endings.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from . import rng
from .combine import QuantileTable
from .errors import ConfigError, DataError
from .models import ObservationSet


def simulate_univariate(family: str, theta0: float, n: int, seed: int) -> ObservationSet:
    """Draw n i.i.d. observations from the named family at parameter theta0."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    g = rng.stream(rng.SIMULATE, seed)
    if family == "poisson":
        if theta0 <= 0:
            raise ConfigError("poisson rate must be positive")
        y = g.poisson(theta0, n).astype(float)
    elif family == "exponential":
        if theta0 <= 0:
            raise ConfigError("exponential rate must be positive")
        y = g.exponential(1.0 / theta0, n)
    elif family == "bernoulli":
        if not 0.0 <= theta0 <= 1.0:
            raise ConfigError("bernoulli probability must lie in [0, 1]")
        y = g.binomial(1, theta0, n).astype(float)
    else:
        raise ConfigError(f"unsupported simulation family '{family}'")
    meta = {"source": "simulate", "family": family, "theta0": float(theta0),
            "seed": int(seed)}
    return ObservationSet(y, meta=meta)


def simulate_linear(n: int, p: int, seed: int) -> ObservationSet:
    """Sparse signed regression data.

    Design entries are independent uniform on {-1, +1}; the first
    ``ceil(p / 10)`` coefficients alternate +1 / -1 and the rest are zero;
    responses add standard normal noise.
    """
    if n < 1 or p < 1:
        raise ConfigError("n and p must be >= 1")
    g = rng.stream(rng.SIMULATE, seed)
    design = (g.integers(0, 2, size=(n, p)) * 2 - 1).astype(float)
    beta = np.zeros(p)
    k = math.ceil(p / 10)
    beta[:k] = [1.0 if i % 2 == 0 else -1.0 for i in range(k)]
    y = design @ beta + g.standard_normal(n)
    meta = {"source": "simulate", "family": "normal-linear", "beta0": beta.tolist(),
            "sigma2": 1.0, "seed": int(seed)}
    return ObservationSet(y, design, meta=meta)


def load_csv(path) -> ObservationSet:
    """Parse an observation CSV; errors name the offending line."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [name.strip() for name in rows[0]]
    if "y" not in header:
        raise DataError(f"{path}: missing 'y' column")
    x_names = [name for name in header if name != "y"]
    p = len(x_names)
    expected = [f"x{i}" for i in range(1, p + 1)]
    if sorted(x_names) != sorted(expected):
        raise DataError(f"{path}: design columns must be x1..x{p}, got {x_names}")
    y_col = header.index("y")
    x_cols = [header.index(name) for name in expected]
    ys, xs = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(
                f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            bad = next(c for c in row if not _is_float(c))
            raise DataError(
                f"{path}: line {lineno}: non-numeric value '{bad}'"
            ) from None
        if not all(math.isfinite(v) for v in values):
            raise DataError(f"{path}: line {lineno}: non-finite value")
        ys.append(values[y_col])
        xs.append([values[c] for c in x_cols])
    if not ys:
        raise DataError(f"{path}: no data rows")
    design = np.array(xs) if p else None
    return ObservationSet(np.array(ys), design, meta={"source": str(path)})


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def write_observations(obs: ObservationSet, path):
    """Write an observation set back out under the CSV contract."""
    path = Path(path)
    header = ["y"] + [f"x{i}" for i in range(1, obs.p + 1)]
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(obs.n):
            row = [repr(float(obs.responses[i]))]
            if obs.design is not None:
                row += [repr(float(v)) for v in obs.design[i]]
            writer.writerow(row)


def write_quantile_table(table: QuantileTable, path):
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["u", "value"])
        for u, v in zip(table.grid, table.values):
            writer.writerow([repr(float(u)), repr(float(v))])


def read_quantile_table(path) -> QuantileTable:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    rows = list(csv.reader(text.splitlines()))
    if not rows or [c.strip() for c in rows[0]] != ["u", "value"]:
        raise DataError(f"{path}: expected header 'u,value'")
    try:
        grid = [float(r[0]) for r in rows[1:]]
        values = [float(r[1]) for r in rows[1:]]
    except (ValueError, IndexError):
        raise DataError(f"{path}: malformed quantile table") from None
    return QuantileTable(np.array(grid), np.array(values))


def write_draws(values: np.ndarray, path):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"theta{i}" for i in range(1, values.shape[1] + 1)])
        for row in values:
            writer.writerow([repr(float(v)) for v in row])


def read_draws(path) -> np.ndarray:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    rows = list(csv.reader(text.splitlines()))
    if len(rows) < 2:
        raise DataError(f"{path}: no draws")
    try:
        return np.array([[float(c) for c in row] for row in rows[1:]])
    except ValueError:
        raise DataError(f"{path}: malformed draws file") from None

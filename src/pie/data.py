"""Data simulation and file formats.

CSV contract: header row, column ``y`` for responses, optional columns
``x1..xp`` for the design, UTF-8, '.' decimal separator, '\\n' line endings.
Every file pie writes holds each number as ``repr`` of the Python float,
the shortest text that reads back as the same float.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from . import rng
from .combine import QuantileTable
from .errors import ConfigError, DataError, NumericError, check_count
from .families import SIMULATED
from .models import ObservationSet


def simulate_univariate(family: str, theta0: float, n: int, seed: int) -> ObservationSet:
    """Draw n i.i.d. observations from the named family at parameter theta0."""
    check_count(n, "n")
    if not math.isfinite(theta0):
        raise ConfigError(f"simulation parameter must be finite, got {theta0!r}")
    source = SIMULATED.get(family)
    if source is None:
        raise ConfigError(f"unsupported simulation family '{family}'")
    source.check_theta0(theta0)
    g = rng.stream(rng.SIMULATE, seed)
    try:
        y = source.simulate_data(theta0, n, g)
    except ValueError as exc:  # numpy refuses a poisson rate near 2**63
        raise ConfigError(f"cannot simulate {family} data at {theta0!r}: {exc}") from None
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
    check_count(n * p, "design size n * p")
    g = rng.stream(rng.SIMULATE, seed)
    design = (g.integers(0, 2, size=(n, p)) * 2 - 1).astype(float)
    beta = np.zeros(p)
    k = math.ceil(p / 10)
    beta[:k] = [1.0 if i % 2 == 0 else -1.0 for i in range(k)]
    # the signal is a sum of small integers, exact in any order; an elementwise
    # sum keeps it off BLAS, whose n x p matrix-vector product wakes threads
    # that spin on after the call returns
    y = (design * beta).sum(axis=1) + g.standard_normal(n)
    meta = {"source": "simulate", "family": "normal-linear", "beta0": beta.tolist(),
            "sigma2": 1.0, "seed": int(seed)}
    return ObservationSet(y, design, meta=meta)


def _read_table(path, expected_header=None,
                text_columns: int = 0) -> tuple[Path, list, list, np.ndarray]:
    """Read a CSV into its header names, its text cells and a numeric array.

    The first ``text_columns`` columns stay text, one list per column; the
    rest fill a (rows, columns) float array.  Every error is a ``DataError``
    naming the file and, for a bad row, its line: a header other than
    ``expected_header`` (when given), a row whose field count differs from
    the header's, a non-numeric cell, a non-finite value, or a row that
    ``csv`` cannot split (say, a quoted cell past its field size limit).

    A well-formed numeric body is parsed in one pass (``_parse_body``); a
    ``csv.reader`` row loop reads every other body, with the same floats,
    and names the bad line.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    lines = text.splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    reader = csv.reader(lines)
    records = _records(reader, path)
    header = [name.strip() for name in next(records)]
    if expected_header is not None and header != expected_header:
        raise DataError(f"{path}: expected header '{','.join(expected_header)}'")
    # text columns appear only in pie report's few-row intervals.csv: they
    # stay on the row loop
    values = None if text_columns else _parse_body(lines[reader.line_num:], len(header))
    if values is not None:
        return path, header, [], values
    rows = list(records)
    values = np.empty((len(rows), len(header) - text_columns))
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataError(f"{path}: line {lineno}: expected {len(header)} fields, "
                            f"got {len(row)}")
        for column, cell in enumerate(row[text_columns:]):
            try:
                values[lineno - 2, column] = float(cell)
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-numeric value '{cell}'") from None
    bad_rows = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad_rows.size:
        raise DataError(f"{path}: line {bad_rows[0] + 2}: non-finite value")
    labels = [[row[i] for row in rows] for i in range(text_columns)]
    return path, header, labels, values


def _records(reader, path):
    """The rows of ``reader``; a row it cannot split raises ``DataError``
    naming its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def _parse_body(lines: list, width: int):
    """The (rows, width) array of a well-formed numeric body in one C-level
    pass, or None when the row loop must read it and name the bad line.

    The pass fails on a quoted or non-numeric cell, ``1_0``, non-ASCII
    digits, a whitespace-only line or a ragged row; it skips an empty
    line, which the row count catches.  Its floats are ``float()``'s, bit
    for bit.  An empty body or an empty first line never reaches it: it
    warns when it finds no data.
    """
    if not lines or not lines[0]:
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    whole = values.shape == (len(lines), width) and np.isfinite(values).all()
    return values if whole else None


def format_numbers(column) -> list:
    """Each number of a one-dimensional ``column`` as ``repr`` of the Python float.

    orjson writes the whole column in one native call with the same
    shortest round-trip digits; for every value ``repr`` writes in
    positional form (±0 and 1e-4 <= |x| < 1e16) its text is ``repr``'s.
    The rest, where orjson writes ``0.00001`` or ``1e16`` for ``repr``'s
    ``1e-05`` or ``1e+16``, or ``null`` for a non-finite value, take
    ``repr`` itself.
    """
    import orjson  # not at module level: ``import pie`` need not load it

    values = np.ascontiguousarray(column, dtype=float)
    if not values.size:
        return []
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    size = np.abs(values)
    for i in np.flatnonzero(~((size >= 1e-4) & (size < 1e16)) & (values != 0)).tolist():
        text[i] = repr(float(values[i]))
    return text


def write_rows(path, header: list, blocks):
    """Write a header and blocks of rows as CSV.

    Each block is a list of equal-length columns.  A numpy array holds
    numbers, formatted by ``format_numbers`` so that they read back exactly;
    any other column holds text cells, written as is, which therefore must
    not contain a comma, a quote or a line break.  Each block is written
    with one call, so only one block of text is held at a time.
    """
    try:
        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for block in blocks:
                cells = [format_numbers(col) if isinstance(col, np.ndarray) else col
                         for col in block]
                fh.write("\n".join([*map(",".join, zip(*cells, strict=True)), ""]))
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def _row_blocks(columns: list, rows: int):
    """Blocks of at most 4096 rows cut from equal-length number columns."""
    return ([col[start:start + 4096] for col in columns]
            for start in range(0, rows, 4096))


def format_json(obj) -> str:
    """``obj`` as indented JSON with sorted keys, ending in a newline.  A
    non-finite number, which ``read_json`` refuses, is a NumericError."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"refusing to write a non-finite number as JSON: {exc}") from None


def write_json(path, obj):
    """Write ``obj`` in the ``format_json`` format."""
    try:
        Path(path).write_text(format_json(obj), encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def _reject_constant(name: str):
    raise ValueError(f"non-finite value {name}")


def read_json(path):
    """Parse a JSON file strictly: ``NaN`` and ``Infinity`` are rejected."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"),
                          parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def load_csv(path) -> ObservationSet:
    """Parse an observation CSV; errors name the offending line."""
    path, header, _, values = _read_table(path)
    twice = [name for i, name in enumerate(header) if name in header[:i]]
    if twice:
        raise DataError(f"{path}: column '{twice[0]}' appears twice in the header")
    if "y" not in header:
        raise DataError(f"{path}: missing 'y' column")
    # with no name twice and 'y' present, the design has len(header) - 1 columns
    x_names = [name for name in header if name != "y"]
    expected = [f"x{i}" for i in range(1, len(header))]
    if sorted(x_names) != sorted(expected):
        raise DataError(f"{path}: design columns must be x1..x{len(expected)}, got {x_names}")
    if not len(values):
        raise DataError(f"{path}: no data rows")
    design = values[:, [header.index(name) for name in expected]] if expected else None
    return ObservationSet(values[:, header.index("y")], design,
                          meta={"source": str(path)})


def write_observations(obs: ObservationSet, path):
    """Write an observation set back out under the CSV contract."""
    header = ["y"] + [f"x{i}" for i in range(1, obs.p + 1)]
    columns = [obs.responses] if obs.design is None else [obs.responses, *obs.design.T]
    write_rows(path, header, _row_blocks(columns, obs.n))


def write_quantile_table(table: QuantileTable, path):
    write_rows(path, ["u", "value"], _row_blocks([table.grid, table.values], table.size))


def read_quantile_table(path) -> QuantileTable:
    path, _, _, values = _read_table(path, ["u", "value"])
    try:
        return QuantileTable(values[:, 0], values[:, 1])
    except (ConfigError, NumericError) as exc:
        raise DataError(f"{path}: {exc}") from None


def write_draws(values: np.ndarray, path):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    write_rows(path, [f"theta{i}" for i in range(1, values.shape[1] + 1)],
               _row_blocks(list(values.T), len(values)))


def read_draws(path) -> np.ndarray:
    path, _, _, values = _read_table(path)
    if not len(values):
        raise DataError(f"{path}: no draws")
    return values

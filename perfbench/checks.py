"""Output check of one emitted `pie run` report.

A report passes when every file `emit_report` returned exists,
`metrics.json` parses under a strict parser (no `NaN`, no `Infinity`),
every quantile table is finite with nondecreasing values on an increasing
grid, every interval is finite with lower <= upper, and, for exact-sampler
runs, the mean `accuracy` over the report's cells meets acceptance
criterion 8's floor (criterion 8 applies the floor to the mean over
coefficient marginals).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

ACCURACY_FLOOR = 0.90


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _rows(path: Path) -> list[list[str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def _check_quantiles(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    # columns functional,u,value,source; a table is the rows of one (functional, source)
    keys = np.array([line[:line.index(",")] + "/" + line[line.rindex(",") + 1:]
                     for line in lines])
    u, v = np.loadtxt(lines, delimiter=",", usecols=(1, 2), ndmin=2).T
    same_table = keys[1:] == keys[:-1]
    firsts = keys[np.r_[True, ~same_table]]
    if np.unique(firsts).size != firsts.size:
        return [f"{path}: rows of one table are not contiguous"]
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        return [f"{path}: non-finite entries"]
    problems = []
    for what, bad in (("grid is not increasing", np.diff(u) <= 0),
                      ("quantiles decrease", np.diff(v) < 0)):
        rows = np.flatnonzero(bad & same_table)
        if rows.size:
            problems.append(f"{path}: table {keys[rows[0] + 1]} {what}")
    return problems


def _check_intervals(path: Path) -> list[str]:
    problems = []
    for functional, alpha, lower, upper in _rows(path):
        lo, hi = float(lower), float(upper)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            problems.append(f"{path}: {functional} alpha={alpha} interval [{lower}, {upper}]")
    return problems


def check_report(paths, exact: bool) -> tuple[list[str], list[dict]]:
    """Return (problems, metric cells) for the report files in ``paths``."""
    paths = [Path(p) for p in paths]
    missing = [str(p) for p in paths if not p.is_file()]
    if missing:
        return [f"missing report files: {missing}"], []
    by_name = {p.name: p for p in paths}
    try:
        cells = strict_json(by_name["metrics.json"].read_text(encoding="utf-8"))["cells"]
    except (KeyError, ValueError) as exc:
        return [f"metrics.json does not parse strictly: {exc}"], []
    problems = []
    if not cells:
        problems.append("metrics.json has no cells")
    for p in paths:
        if p.name == "quantiles.csv":
            problems += _check_quantiles(p)
        elif p.name == "intervals.csv":
            problems += _check_intervals(p)
    if exact and cells:
        mean_accuracy = sum(c["accuracy"] for c in cells) / len(cells)
        if not mean_accuracy >= ACCURACY_FLOOR:
            problems.append(f"mean accuracy {mean_accuracy:.4f} < {ACCURACY_FLOOR}")
    return problems, cells

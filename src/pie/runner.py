"""End-to-end experiment orchestration.

Shards are sampled one after another in shard order; every shard's stream
is keyed by (master seed, shard id), so a report depends only on the
configuration.  Each seed's partition, a pure function of (n, K, seed), is
dealt on one helper thread while the data are drawn.  One pass over the
shards samples each one, reads its quantile rows and drops its draws,
unless the mode's combiner reads them (consensus and multidim); those are
released once combined, before the full-data oracle is drawn.  The first
shard that fails ends the run: no later shard is sampled, and partial
results are never emitted.
"""

from __future__ import annotations

import os
import platform
import re
import tempfile
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import __version__, rng
# perfbench/tracing.py patches average_quantile_tables, pie_interval,
# quantile_table, sample_from_table and the four sample_* wrappers on this
# module, so they stay bound here though _run_seed reads every quantile off
# _order_statistics, scores every cell from two quantile tables, and
# _exact_draws reaches every family through its object
from .combine import (  # noqa: F401
    QuantileTable,
    _order_statistics,
    average_quantile_tables,
    combine_multidim,
    default_grid,
    consensus_combine,
    pie_interval,
    quantile_table,
    sample_from_table,
)
from .config import ExperimentConfig
from .data import (format_json, format_numbers, load_csv, simulate_linear,
                   simulate_univariate, write_draws, write_rows)
from .errors import ConfigError, DataError, PieError
from .families import CONJUGATE
from .metrics import accuracy, quantile_gap, table_moments, w2_from_tables
from .models import ObservationSet, TemperedTarget, apply_functional, partition
from .samplers import (  # noqa: F401 - the sample_* wrappers, see above
    DrawMatrix,
    _exact,
    sample_bernoulli_beta,
    sample_exponential_gamma,
    sample_metropolis,
    sample_normal_linear_nig,
    sample_poisson_gamma,
)


INTERVALS_HEADER = ["functional", "alpha", "lower", "upper"]
# libyaml's emitter writes the same bytes as the pure-Python SafeDumper, which
# is kept for a PyYAML built without libyaml
YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
# a file that emit_report writes under a seed directory
SEED_FILE = re.compile(r"seed-(0|[1-9][0-9]*)/(quantiles|intervals|draws)\.csv")


@dataclass
class SeedResult:
    """All artifacts produced by one replicate (one master seed).

    ``tables`` maps each functional name, ``f0`` .. ``f<m-1>`` in config
    order, to its quantile tables by source: ``shard0`` .. ``shard<K-1>``
    ascending, then ``combined``.  ``emit_report`` writes them in this order.
    """

    seed: int
    tables: dict
    intervals: list
    combined_draws: Optional[np.ndarray]
    cells: list


@dataclass
class ExperimentReport:
    """Config echo, versions, per-seed results, and phase timings."""

    config: dict
    versions: dict
    seed_results: list
    timings: dict


def _versions() -> dict:
    return {
        "pie": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _dataset(cfg: ExperimentConfig, seed: int) -> ObservationSet:
    family = CONJUGATE[cfg.model.family]
    if cfg.data_source == "csv":
        obs = load_csv(cfg.data_path)
        if obs.n != cfg.n:
            raise DataError(f"config says n={cfg.n} but {cfg.data_path} has {obs.n} rows")
        if family.regression and obs.p != cfg.model.parameter_dim - 1:
            raise DataError("csv design dimension does not match the model")
        return obs
    if family.regression:
        return simulate_linear(cfg.n, cfg.model.parameter_dim - 1, seed)
    return simulate_univariate(family.simulate, cfg.true_theta, cfg.n, seed)


def _exact_draws(cfg: ExperimentConfig, data: ObservationSet, temper: float,
                 T: int, seed: int, shard_id=None) -> DrawMatrix:
    family = CONJUGATE[cfg.model.family]
    post = family.posterior(cfg.model.hyperparameters, data, temper)
    return _exact(family, post, T, seed, shard_id)


def _sample_shard(cfg: ExperimentConfig, obs: ObservationSet, plan, master_seed: int,
                  j: int) -> DrawMatrix:
    shard = obs.take(plan.shard_indices(j))
    temper = obs.n / shard.n
    seed = rng.shard_seed(master_seed, j)
    if cfg.sampler == "exact":
        return _exact_draws(cfg, shard, temper, cfg.chain.retained, seed, shard_id=j)
    target = TemperedTarget(cfg.model, shard, temper)
    chain = replace(cfg.chain, seed=seed)
    return sample_metropolis(target, cfg.model.prior_mean(), chain, shard_id=j)


def _lap(timings: dict, phase: str, t0: float) -> float:
    """Add the time since ``t0`` to ``timings[phase]``; return the time now."""
    timings[phase] = timings.get(phase, 0.0) + (now := time.perf_counter()) - t0
    return now


def _quantile_rows(functionals: list, dm: DrawMatrix, levels: np.ndarray) -> np.ndarray:
    """Each functional's quantiles of the draws at ``levels``, one column per
    functional, read off one T x F block."""
    columns = [apply_functional(functional, dm) for functional in functionals]
    return _order_statistics(np.column_stack(columns), levels)


def _run_seed(cfg: ExperimentConfig, master_seed: int, timings: dict) -> SeedResult:
    grid = default_grid(cfg.grid_size)
    # every source's quantiles are read at the grid, then at (alpha/2, 1 - alpha/2)
    # for each alpha: its table rows first, its interval ends after them
    levels = np.concatenate([grid, *([a / 2.0, 1.0 - a / 2.0] for a in cfg.alpha_levels)])
    K = 1 if cfg.mode == "full-oracle" else cfg.K
    t0 = time.perf_counter()
    # the plan reads only (n, K, seed), never the data, so a helper thread
    # deals it while this one draws the data; each side has its own stream
    # and arrays, and numpy releases the GIL in both.  Leaving the block joins
    # the helper, so a data error is raised first and no helper outlives the
    # call.  Imported here, as format_numbers imports orjson, so that
    # importing pie loads none of it.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(1, f"pie-partition-{master_seed}") as helper:
        dealt = helper.submit(partition, cfg.n, K, master_seed)
        obs = _dataset(cfg, master_seed)
        t0 = _lap(timings, "data", t0)
        plan = dealt.result()
    t0 = _lap(timings, "partition", t0)
    # the mode's combiner, if it reads draws (pie and full-oracle average the
    # shards' rows), looked up once and from this module's globals at call time
    combiners = {"consensus": consensus_combine,
                 "multidim": partial(combine_multidim, grid=grid, seed=master_seed)}
    combiner = combiners.get(cfg.mode)
    rows, kept = {}, []
    for j in range(plan.K):
        try:
            dm = _sample_shard(cfg, obs, plan, master_seed, j)
        except Exception as exc:  # noqa: BLE001 - the first failure ends the run
            cls = type(exc) if isinstance(exc, PieError) else PieError
            raise cls(f"shard {j}: {exc}") from exc
        rows[f"shard{j}"] = _quantile_rows(cfg.functionals, dm, levels)
        if combiner is not None:
            kept.append(dm)
        del dm  # a shard's draws outlive its step only if the combiner reads them
    t0 = _lap(timings, "sample", t0)

    if combiner is None:
        # the barycenter: the shards' quantile functions averaged in shard order
        combined_dm = None
        rows["combined"] = np.mean(np.stack(list(rows.values())), axis=0)
    else:
        combined_dm = combiner(kept)
        kept.clear()  # released before the oracle is drawn
        rows["combined"] = _quantile_rows(cfg.functionals, combined_dm, levels)
    tables = {f"f{i}": {source: QuantileTable(grid=grid, values=r[:grid.size, i])
                        for source, r in rows.items()}
              for i in range(len(cfg.functionals))}
    # lower <= upper by construction: the floor-rule index does not decrease
    # with the level, and every source's rows are read off sorted draws
    ends = rows["combined"][grid.size:].reshape(-1, 2, len(tables))
    intervals = [{"functional": name, "alpha": alpha, "lower": float(lower),
                  "upper": float(upper)}
                 for i, name in enumerate(tables)
                 for alpha, (lower, upper) in zip(cfg.alpha_levels, ends[:, :, i])]
    t0 = _lap(timings, "combine", t0)

    oracle = _exact_draws(cfg, obs, 1.0, cfg.chain.retained,
                          rng.oracle_seed(master_seed))
    oracle_rows = _quantile_rows(cfg.functionals, oracle, levels)
    # every cell compares the combined table with the oracle's: each table's
    # values are equally weighted atoms of its law, in every mode
    theta0 = CONJUGATE[cfg.model.family].true_theta(cfg.true_theta, obs.meta)
    cells = []
    for idx, (name, functional) in enumerate(zip(tables, cfg.functionals)):
        combined_table = tables[name]["combined"]
        oracle_table = QuantileTable(grid=grid, values=oracle_rows[:grid.size, idx])
        mean, variance = table_moments(combined_table)
        xi0 = None if theta0 is None else float(functional.a @ theta0 + functional.b)
        cells.append({
            "seed": master_seed,
            "functional": name,
            "w2": w2_from_tables(combined_table, oracle_table),
            "accuracy": accuracy(combined_table.values, oracle_table.values),
            "bias": None if xi0 is None else mean - xi0,
            "variance": variance,
            "quantile_gap": quantile_gap(combined_table, oracle_table, 0.05, 0.95),
        })
    _lap(timings, "metrics", t0)

    return SeedResult(
        seed=master_seed,
        tables=tables,
        intervals=intervals,
        combined_draws=None if combined_dm is None else combined_dm.values,
        cells=cells,
    )


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Run the configured experiment and return an in-memory report.

    The report depends only on the configuration content (seeds included).
    ``workers`` is accepted for compatibility and has no effect: shards are
    sampled in one ordered loop.
    """
    timings: dict = {}
    seed_results = [_run_seed(cfg, seed, timings) for seed in cfg.seeds]
    return ExperimentReport(
        config=cfg.echo(),
        versions=_versions(),
        seed_results=seed_results,
        timings=timings,
    )


def _quantile_blocks(result: SeedResult):
    """Blocks of ``quantiles.csv``, one per table in the order of
    ``result.tables``; a grid's text is formatted once and reused for as
    long as the tables share that grid."""
    grid = grid_text = None
    for name, per_source in result.tables.items():
        for source, table in per_source.items():
            if not np.array_equal(table.grid, grid):
                grid, grid_text = table.grid, format_numbers(table.grid)
            yield [[name] * table.size, grid_text, table.values, [source] * table.size]


def _interval_columns(intervals: list) -> list:
    """The columns of ``intervals.csv``, in ``INTERVALS_HEADER`` order."""
    return [[e["functional"] for e in intervals],
            *(np.array([e[key] for e in intervals], dtype=float)
              for key in ("alpha", "lower", "upper"))]


def _report_files(report: ExperimentReport) -> dict:
    """Map each report file's path, relative to the output directory, to a
    call that writes that file to a given path.

    The mapping's order is the report's order: the returned paths, the
    overwrite check, the staged writes and the moves all follow it.
    """
    echo = {"config": report.config, "versions": report.versions}
    cells = [cell for result in report.seed_results for cell in result.cells]
    # formatted before emit_report makes a directory, so a number JSON cannot
    # hold leaves nothing behind
    texts = {Path("config.yaml"): yaml.dump(echo, Dumper=YAML_DUMPER, sort_keys=True),
             Path("metrics.json"): format_json({"cells": cells}),
             Path("timings.json"): format_json(report.timings)}
    files = {rel: partial(Path.write_text, data=text, encoding="utf-8")
             for rel, text in texts.items()}
    for result in report.seed_results:
        seed_dir = Path(f"seed-{result.seed}")
        files[seed_dir / "quantiles.csv"] = partial(
            write_rows, header=["functional", "u", "value", "source"],
            blocks=_quantile_blocks(result))
        files[seed_dir / "intervals.csv"] = partial(
            write_rows, header=INTERVALS_HEADER,
            blocks=[_interval_columns(result.intervals)])
        if result.combined_draws is not None:
            files[seed_dir / "draws.csv"] = partial(write_draws, result.combined_draws)
    return files


def emit_report(report: ExperimentReport, out_dir, overwrite: bool = False) -> list:
    """Write the report files under ``out_dir`` and return their paths.

    Layout: ``config.yaml`` (config echo plus versions), ``metrics.json``
    (one cell per seed and functional), ``timings.json`` (wall-clock, the
    one file exempt from byte-level determinism), and per seed a
    ``seed-<s>/`` directory with ``quantiles.csv``, ``intervals.csv`` and,
    for modes that produce combined draws, ``draws.csv``.

    The files are first written to a staging directory inside ``out_dir``
    and only then moved into place, so a failed write leaves no partial
    report behind.  With ``overwrite``, an earlier report's seed files that
    this report does not write are then deleted, and so is each seed
    directory they leave empty; no other file is touched.
    """
    out = Path(out_dir)
    files = _report_files(report)
    targets = [out / rel for rel in files]
    if not overwrite:
        existing = [str(p) for p in targets if p.exists()]
        if existing:
            raise ConfigError(f"refusing to overwrite existing files: {existing}")

    try:
        out.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".staging-", dir=out,
                                         ignore_cleanup_errors=True) as staging:
            stage = Path(staging)
            for rel, write in files.items():
                (stage / rel).parent.mkdir(exist_ok=True)
                write(stage / rel)
            # every directory first, so a failed mkdir moves no file
            for target in targets:
                target.parent.mkdir(exist_ok=True)
            for rel, target in zip(files, targets):
                os.replace(stage / rel, target)
        if overwrite:
            # an earlier report's seed files that this one did not write go,
            # and so does each seed directory they leave empty
            for path in set(out.glob("seed-*/*.csv")) - set(targets):
                if SEED_FILE.fullmatch(path.relative_to(out).as_posix()) and path.is_file():
                    path.unlink()
                    if not any(path.parent.iterdir()):
                        path.parent.rmdir()
    except (OSError, DataError) as exc:
        raise DataError(f"failed writing report under {out}: {exc}") from None
    return targets

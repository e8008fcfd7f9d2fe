"""End-to-end experiment orchestration.

Shards are sampled concurrently in a work pool; every shard's stream is
keyed by (master seed, shard id), so reports are byte-identical regardless
of worker count or scheduling.  Combining and metrics run after a barrier.
Any shard failure aborts the whole combine; partial results are never
emitted.
"""

from __future__ import annotations

import csv
import json
import platform
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np
import scipy
import yaml

from . import __version__, rng
from .combine import (
    average_quantile_tables,
    default_grid,
    consensus_combine,
    pie_interval,
    quantile_table,
    sample_from_table,
)
from .config import ExperimentConfig
from .data import load_csv, simulate_linear, simulate_univariate
from .errors import ConfigError, DataError, PieError
from .families import CONJUGATE
from .metrics import accuracy, quantile_gap, table_moments, w2_from_tables
from .models import ObservationSet, TemperedTarget, apply_functional, partition
from .multidim import combine_multidim
from .samplers import (
    DrawMatrix,
    sample_bernoulli_beta,
    sample_exponential_gamma,
    sample_metropolis,
    sample_normal_linear_nig,
    sample_poisson_gamma,
)


@dataclass
class SeedResult:
    """All artifacts produced by one replicate (one master seed)."""

    seed: int
    functional_names: list
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
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def _dataset(cfg: ExperimentConfig, seed: int) -> ObservationSet:
    family = CONJUGATE[cfg.model.family]
    if cfg.data_source == "csv":
        obs = load_csv(cfg.data_path)
        if obs.n != cfg.n:
            raise DataError(
                f"config says n={cfg.n} but {cfg.data_path} has {obs.n} rows"
            )
        if family.regression and obs.p != cfg.model.parameter_dim - 1:
            raise DataError("csv design dimension does not match the model")
        return obs
    if family.regression:
        return simulate_linear(cfg.n, cfg.model.parameter_dim - 1, seed)
    if cfg.true_theta is None:
        raise ConfigError("simulated univariate data requires data.true_theta")
    return simulate_univariate(family.simulate, cfg.true_theta, cfg.n, seed)


def _exact_draws(cfg: ExperimentConfig, shard: ObservationSet, temper: float,
                 T: int, seed: int, shard_id=None) -> DrawMatrix:
    h = cfg.model.hyperparameters
    family = cfg.model.family
    if family == "poisson-gamma":
        return sample_poisson_gamma(shard.responses, temper, h["a"], h["b"], T,
                                    seed, shard_id=shard_id)
    if family == "exponential-gamma":
        return sample_exponential_gamma(shard.responses, temper, h["a"], h["b"], T,
                                        seed, shard_id=shard_id)
    if family == "bernoulli-beta":
        return sample_bernoulli_beta(shard.responses, temper, h["a"], h["b"], T,
                                     seed, shard_id=shard_id)
    if family == "normal-linear-nig":
        return sample_normal_linear_nig(shard.responses, shard.design, temper,
                                        h["mu_star"], h["omega"], h["a"], h["b"],
                                        T, seed, shard_id=shard_id)
    raise ConfigError(f"no exact sampler for family '{family}'")


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


def _sample_all_shards(cfg, obs, plan, master_seed, workers) -> list:
    K = plan.K
    results: list = [None] * K
    failures: list = []
    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        futures = {
            pool.submit(_sample_shard, cfg, obs, plan, master_seed, j): j
            for j in range(K)
        }
        for future in as_completed(futures):
            j = futures[future]
            try:
                results[j] = future.result()
            except Exception as exc:  # noqa: BLE001 - aggregated below
                failures.append((j, exc))
    if failures:
        failures.sort()
        detail = "; ".join(f"shard {j}: {exc}" for j, exc in failures)
        first = failures[0][1]
        cls = type(first) if isinstance(first, PieError) else PieError
        raise cls(f"shard sampling failed: {detail}")
    return results


def _true_xi(cfg: ExperimentConfig, obs: ObservationSet, functional) -> Optional[float]:
    theta0 = CONJUGATE[cfg.model.family].true_theta(cfg.true_theta, obs.meta)
    return None if theta0 is None else float(functional.a @ theta0 + functional.b)


def _run_seed(cfg: ExperimentConfig, master_seed: int, workers: int,
              timings: dict) -> SeedResult:
    grid = default_grid(cfg.grid_size)
    obs = _dataset(cfg, master_seed)
    K = 1 if cfg.mode == "full-oracle" else cfg.K
    plan = partition(obs.n, K, master_seed)

    t0 = time.perf_counter()
    shard_draws = _sample_all_shards(cfg, obs, plan, master_seed, workers)
    timings["sample"] = timings.get("sample", 0.0) + time.perf_counter() - t0

    t0 = time.perf_counter()
    names = [f"f{i}" for i in range(len(cfg.functionals))]
    combined_dm = None
    if cfg.mode == "consensus":
        combined_dm = consensus_combine(shard_draws)
    elif cfg.mode == "multidim":
        combined_dm = combine_multidim(shard_draws, grid, seed=master_seed)

    tables: dict = {}
    intervals: list = []
    for name, functional in zip(names, cfg.functionals):
        shard_xi = [apply_functional(functional, dm) for dm in shard_draws]
        per_source = {
            f"shard{j}": quantile_table(xi, grid) for j, xi in enumerate(shard_xi)
        }
        if combined_dm is None:
            per_source["combined"] = average_quantile_tables(
                [per_source[f"shard{j}"] for j in range(K)]
            )
            interval_xi = shard_xi
        else:
            interval_xi = [apply_functional(functional, combined_dm)]
            per_source["combined"] = quantile_table(interval_xi[0], grid)
        for alpha in cfg.alpha_levels:
            est = pie_interval(interval_xi, alpha)
            intervals.append({"functional": name, "alpha": alpha,
                              "lower": est.lower, "upper": est.upper})
        tables[name] = per_source
    timings["combine"] = timings.get("combine", 0.0) + time.perf_counter() - t0

    t0 = time.perf_counter()
    oracle = _exact_draws(cfg, obs, 1.0, cfg.chain.retained,
                          rng.oracle_seed(master_seed))
    cells = []
    for idx, (name, functional) in enumerate(zip(names, cfg.functionals)):
        combined_table = tables[name]["combined"]
        oracle_xi = apply_functional(functional, oracle)
        oracle_table = quantile_table(oracle_xi, grid)
        if combined_dm is None:
            stream = rng.stream(rng.METRICS, master_seed, idx)
            combined_samples = sample_from_table(combined_table, oracle.T, stream)
        else:
            combined_samples = apply_functional(functional, combined_dm)
        mean, variance = table_moments(combined_table)
        xi0 = _true_xi(cfg, obs, functional)
        cells.append({
            "seed": master_seed,
            "functional": name,
            "w2": w2_from_tables(combined_table, oracle_table),
            "accuracy": accuracy(combined_samples, oracle_xi),
            "bias": None if xi0 is None else mean - xi0,
            "variance": variance,
            "quantile_gap": quantile_gap(combined_table, oracle_table, 0.05, 0.95),
            "rate_slope": None,
        })
    timings["metrics"] = timings.get("metrics", 0.0) + time.perf_counter() - t0

    return SeedResult(
        seed=master_seed,
        functional_names=names,
        tables=tables,
        intervals=intervals,
        combined_draws=None if combined_dm is None else combined_dm.values,
        cells=cells,
    )


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Run the configured experiment and return an in-memory report.

    The report depends only on the configuration content (seeds included),
    never on ``workers`` or scheduling.
    """
    timings: dict = {}
    seed_results = [_run_seed(cfg, seed, workers, timings) for seed in cfg.seeds]
    return ExperimentReport(
        config=cfg.echo(),
        versions=_versions(),
        seed_results=seed_results,
        timings=timings,
    )


def _write_csv(path: Path, header: list, rows):
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def emit_report(report: ExperimentReport, out_dir, overwrite: bool = False) -> list:
    """Write the report files under ``out_dir`` and return their paths.

    Layout: ``config.yaml`` (config echo plus versions), ``metrics.json``
    (one cell per seed and functional), ``timings.json`` (wall-clock, the
    one file exempt from byte-level determinism), and per seed a
    ``seed-<s>/`` directory with ``quantiles.csv``, ``intervals.csv`` and,
    for modes that produce combined draws, ``draws.csv``.
    """
    out = Path(out_dir)
    targets = [out / "config.yaml", out / "metrics.json", out / "timings.json"]
    for result in report.seed_results:
        seed_dir = out / f"seed-{result.seed}"
        targets.append(seed_dir / "quantiles.csv")
        targets.append(seed_dir / "intervals.csv")
        if result.combined_draws is not None:
            targets.append(seed_dir / "draws.csv")
    if not overwrite:
        existing = [str(p) for p in targets if p.exists()]
        if existing:
            raise ConfigError(f"refusing to overwrite existing files: {existing}")

    out.mkdir(parents=True, exist_ok=True)
    try:
        (out / "config.yaml").write_text(
            yaml.safe_dump({"config": report.config, "versions": report.versions},
                           sort_keys=True),
            encoding="utf-8",
        )
        cells = [cell for result in report.seed_results for cell in result.cells]
        (out / "metrics.json").write_text(
            json.dumps({"cells": cells}, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        (out / "timings.json").write_text(
            json.dumps(report.timings, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        for result in report.seed_results:
            seed_dir = out / f"seed-{result.seed}"
            seed_dir.mkdir(exist_ok=True)
            rows = []
            for name in result.functional_names:
                per_source = result.tables[name]
                sources = sorted(
                    (s for s in per_source if s != "combined"),
                    key=lambda s: int(s.removeprefix("shard")),
                ) + ["combined"]
                for source in sources:
                    table = per_source[source]
                    rows.extend(
                        [name, repr(float(u)), repr(float(v)), source]
                        for u, v in zip(table.grid, table.values)
                    )
            _write_csv(seed_dir / "quantiles.csv",
                       ["functional", "u", "value", "source"], rows)
            _write_csv(
                seed_dir / "intervals.csv",
                ["functional", "alpha", "lower", "upper"],
                [
                    [e["functional"], repr(float(e["alpha"])),
                     repr(float(e["lower"])), repr(float(e["upper"]))]
                    for e in result.intervals
                ],
            )
            if result.combined_draws is not None:
                _write_csv(
                    seed_dir / "draws.csv",
                    [f"theta{i}" for i in range(1, result.combined_draws.shape[1] + 1)],
                    [[repr(float(v)) for v in row] for row in result.combined_draws],
                )
    except OSError as exc:
        raise DataError(f"failed writing report under {out}: {exc}") from None
    return targets

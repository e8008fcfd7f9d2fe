"""Command-line interface.

Subcommands: simulate | run | combine | metrics | report.  Flags override
config keys; exit codes are 0 on success, 2 for config errors, 3 for data
errors, and 4 for numeric failures.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import click

from . import __version__
from .combine import default_grid, pie_interval, quantile_table, average_quantile_tables
from .config import MODES, SAMPLERS, load_config
from .data import (
    _read_table,
    format_json,
    read_draws,
    read_json,
    read_quantile_table,
    simulate_linear,
    simulate_univariate,
    write_json,
    write_observations,
    write_quantile_table,
)
from .errors import DataError, PieError
from .metrics import accuracy, bias_variance_summary, quantile_gap, w2_from_tables
from .runner import INTERVALS_HEADER, emit_report, run_experiment


def _exits_with_code(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PieError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)

    return wrapper


@click.group()
@click.version_option(version=__version__)
def main():
    """Parallel subset-posterior sampling with quantile-averaged intervals."""


@main.command()
@click.option("--family", required=True,
              type=click.Choice(["poisson", "exponential", "bernoulli", "linear"]))
@click.option("--n", "n", required=True, type=int, help="Number of observations.")
@click.option("--theta0", type=float, default=None,
              help="True parameter for the univariate families.")
@click.option("--p", "p", type=int, default=10, help="Design dimension (linear).")
@click.option("--seed", type=int, default=0)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@_exits_with_code
def simulate(family, n, theta0, p, seed, out):
    """Simulate a dataset and write it as CSV."""
    if family == "linear":
        obs = simulate_linear(n, p, seed)
    else:
        if theta0 is None:
            raise click.UsageError("--theta0 is required for univariate families")
        obs = simulate_univariate(family, theta0, n, seed)
    write_observations(obs, out)
    click.echo(f"wrote {obs.n} rows (p={obs.p}) to {out}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="YAML experiment configuration.")
@click.option("--set", "assignments", multiple=True, metavar="KEY=VALUE",
              help="Override any config key, e.g. --set chain.thin=2")
@click.option("--mode", default=None, type=click.Choice(MODES))
@click.option("--n", "n", type=int, default=None)
@click.option("--shards", "-K", "shards", type=int, default=None)
@click.option("--seed", type=int, default=None, help="Replaces the seed list.")
@click.option("--sampler", type=click.Choice(SAMPLERS), default=None)
@click.option("--grid-size", type=int, default=None)
@click.option("--out", type=click.Path(file_okay=False), default=None,
              help="Output directory [default: config output_dir, else $PIE_OUT_DIR, "
                   "else out].")
@click.option("--workers", type=int, default=1, show_default=True,
              help="Accepted for compatibility; has no effect (shards are sampled "
                   "in order in one process).")
@click.option("--overwrite/--no-overwrite", default=False, show_default=True)
@_exits_with_code
def run(config_path, assignments, mode, n, shards, seed, sampler, grid_size, out,
        workers, overwrite):
    """Run a configured experiment and emit its report files."""
    overrides = {}
    for item in assignments:
        if "=" not in item:
            raise click.UsageError(f"--set expects KEY=VALUE, got '{item}'")
        key, value = item.split("=", 1)
        overrides[key] = value
    flags = {"mode": mode, "n": n, "K": shards, "seeds": None if seed is None else [seed],
             "sampler": sampler, "grid_size": grid_size}
    overrides.update((key, value) for key, value in flags.items() if value is not None)
    cfg = load_config(config_path, overrides)
    if out:  # a path as typed: YAML would read yes, 010, ~ or [a] as another type
        cfg = replace(cfg, output_dir=out)
    report = run_experiment(cfg, workers=workers)
    paths = emit_report(report, cfg.output_dir, overwrite=overwrite)
    click.echo(f"wrote {len(paths)} files under {cfg.output_dir}")


@main.command()
@click.argument("draw_files", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--column", type=click.IntRange(min=1), default=1, show_default=True,
              help="1-based draw column to combine.")
@click.option("--grid-size", type=int, default=999, show_default=True)
@click.option("--alpha", type=float, default=None,
              help="Also report the credible interval at this level.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@_exits_with_code
def combine(draw_files, column, grid_size, alpha, out):
    """Average per-shard quantile tables computed from draw CSV files."""
    grid = default_grid(grid_size)
    shard_xi = []
    for path in draw_files:
        draws = read_draws(path)
        if draws.shape[1] < column:
            raise DataError(f"{path}: has {draws.shape[1]} columns, no column {column}")
        shard_xi.append(draws[:, column - 1])
    tables = [quantile_table(xi, grid) for xi in shard_xi]
    combined = average_quantile_tables(tables)
    # the interval is checked before the table is written: a failed call writes nothing
    est = None if alpha is None else pie_interval(shard_xi, alpha)
    write_quantile_table(combined, out)
    click.echo(f"combined {len(tables)} shards into {out}")
    if est is not None:
        click.echo(json.dumps({"alpha": est.alpha, "lower": est.lower,
                               "upper": est.upper}))


@main.command()
@click.option("--table-a", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--table-b", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--samples-a", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--samples-b", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--u1", type=float, default=0.05, show_default=True)
@click.option("--u2", type=float, default=0.95, show_default=True)
@click.option("--xi0", type=float, default=None,
              help="True functional value, for the bias summary.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the JSON report here instead of stdout.")
@_exits_with_code
def metrics(table_a, table_b, samples_a, samples_b, u1, u2, xi0, out):
    """Compare two quantile tables and/or two sample files."""
    result = {}
    if table_a and table_b:
        A = read_quantile_table(table_a)
        B = read_quantile_table(table_b)
        result["w2"] = w2_from_tables(A, B)
        result["quantile_gap"] = quantile_gap(A, B, u1, u2)
    if samples_a and samples_b:
        xa = read_draws(samples_a)[:, 0]
        xb = read_draws(samples_b)[:, 0]
        result["accuracy"] = accuracy(xa, xb)
        if xi0 is not None:
            bias, variance = bias_variance_summary(xa, xi0)
            result["bias"] = bias
            result["variance"] = variance
    if not result:
        raise click.UsageError("provide --table-a/--table-b or --samples-a/--samples-b")
    if out:
        write_json(out, result)
        click.echo(f"wrote {out}")
    else:
        click.echo(format_json(result), nl=False)


@main.command()
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
@_exits_with_code
def report(run_dir):
    """Summarize an emitted run directory."""
    run_dir = Path(run_dir)
    metrics_path = run_dir / "metrics.json"
    lines = []
    if metrics_path.exists():
        doc = read_json(metrics_path)
        cells = doc.get("cells") if isinstance(doc, dict) else None
        if not isinstance(cells, list):
            raise DataError(f"{metrics_path}: expected a 'cells' list")
        lines.append(f"{len(cells)} metric cells")
        for cell in cells:
            try:
                parts = [f"seed={cell['seed']}", f"functional={cell['functional']}"]
                for key in ("w2", "accuracy", "bias", "variance", "quantile_gap"):
                    value = cell.get(key)
                    if value is not None:
                        parts.append(f"{key}={value:.6g}")
            except (TypeError, KeyError, ValueError):
                raise DataError(f"{metrics_path}: malformed cell {cell!r}") from None
            lines.append("  " + " ".join(parts))
    for intervals in sorted(run_dir.glob("seed-*/intervals.csv")):
        _, _, (names,), values = _read_table(intervals, INTERVALS_HEADER, text_columns=1)
        lines.append(f"{intervals.parent.name}:")
        for name, (alpha, lower, upper) in zip(names, values):
            lines.append(
                f"  {name}: {100 * (1 - alpha):g}% interval "
                f"[{lower:.6g}, {upper:.6g}]"
            )
    for line in lines:
        click.echo(line)


if __name__ == "__main__":
    main()

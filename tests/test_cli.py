import json

import numpy as np
import yaml
from click.testing import CliRunner

from pie.cli import main
from pie.config import load_config
from pie.data import load_csv, read_quantile_table, write_draws


def write_config(path, **extra):
    raw = {
        "model": {"family": "poisson-gamma", "a": 1.0, "b": 1.0},
        "n": 200,
        "K": 2,
        "chain": {"T_total": 2000},
        "alpha_levels": [0.1],
        "grid_size": 99,
        "seeds": [0],
        "mode": "pie",
        "data": {"source": "simulate", "true_theta": 3.0},
    }
    raw.update(extra)
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return path


def test_simulate_writes_csv(tmp_path):
    out = tmp_path / "data.csv"
    result = CliRunner().invoke(
        main, ["simulate", "--family", "poisson", "--n", "50", "--theta0", "2.5",
               "--seed", "1", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert load_csv(out).n == 50


def test_run_emits_report(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml")
    out_dir = tmp_path / "run"
    result = CliRunner().invoke(
        main, ["run", "--config", str(cfg), "--out", str(out_dir)]
    )
    assert result.exit_code == 0, result.output
    assert (out_dir / "metrics.json").exists()
    assert (out_dir / "seed-0" / "quantiles.csv").exists()

    summary = CliRunner().invoke(main, ["report", str(out_dir)])
    assert summary.exit_code == 0, summary.output
    assert "interval" in summary.output


def test_run_flag_overrides(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml")
    out_dir = tmp_path / "run"
    result = CliRunner().invoke(
        main, ["run", "--config", str(cfg), "--out", str(out_dir),
               "--set", "grid_size=49", "-K", "4", "--seed", "9"]
    )
    assert result.exit_code == 0, result.output
    lines = (out_dir / "seed-9" / "quantiles.csv").read_text().strip().splitlines()
    assert len(lines) - 1 == 49 * 5  # 4 shards + combined


def test_output_dir_env_var(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "cfg.yaml")
    monkeypatch.setenv("PIE_OUT_DIR", str(tmp_path / "env-run"))
    result = CliRunner().invoke(main, ["run", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "env-run" / "metrics.json").exists()


LINEAR_OVERRIDES = ["model.family=normal-linear-nig", "model.a=6", "data.p=2"]
MALFORMED_OVERRIDES = [
    ["model.a=abc"], ["model.a=[1,2]"], ["K=abc"], ["seeds=[a]"], ["alpha_levels=abc"],
    ["chain.thin=abc"], ["chain.T_total=[1]"], ["grid_size=x"],
    [*LINEAR_OVERRIDES, "data.p=x"], ["data.true_theta=x"], ["functionals=[{a: [x]}]"],
    [*LINEAR_OVERRIDES, "model.omega=[[1,0],[0]]"], ["model=[1]"], ["chain=5"],
]


def test_config_error_exit_code(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml", alpha_levels=[2.0])
    result = CliRunner().invoke(main, ["run", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "error" in result.output

    # malformed values are config errors too, never a raw traceback
    cfg = write_config(tmp_path / "ok.yaml")
    load_config(cfg, dict(item.split("=", 1) for item in LINEAR_OVERRIDES))
    for overrides in MALFORMED_OVERRIDES:
        args = ["run", "--config", str(cfg), "--out", str(tmp_path / "never")]
        for item in overrides:
            args += ["--set", item]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, (overrides, result.output, result.exception)
        assert "error" in result.output


def test_invalid_yaml_exit_code(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("model: {family: poisson-gamma\n", encoding="utf-8")
    result = CliRunner().invoke(main, ["run", "--config", str(path)])
    assert result.exit_code == 2
    assert "YAML" in result.output


def test_data_error_exit_code(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml",
                       data={"source": "csv", "path": str(tmp_path / "nope.csv")})
    result = CliRunner().invoke(
        main, ["run", "--config", str(cfg), "--out", str(tmp_path / "r")]
    )
    assert result.exit_code == 3


def test_overwrite_refusal_exit_code(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml")
    out_dir = str(tmp_path / "run")
    runner = CliRunner()
    assert runner.invoke(main, ["run", "--config", str(cfg), "--out", out_dir]).exit_code == 0
    assert runner.invoke(main, ["run", "--config", str(cfg), "--out", out_dir]).exit_code == 2
    assert runner.invoke(main, ["run", "--config", str(cfg), "--out", out_dir,
                                "--overwrite"]).exit_code == 0


def test_combine_and_metrics_commands(tmp_path):
    g = np.random.default_rng(0)
    files = []
    for j in range(3):
        path = tmp_path / f"shard{j}.csv"
        write_draws(g.standard_normal((500, 1)) + j, path)
        files.append(str(path))
    table_out = tmp_path / "combined.csv"
    result = CliRunner().invoke(
        main, ["combine", *files, "--grid-size", "99", "--alpha", "0.1",
               "--out", str(table_out)]
    )
    assert result.exit_code == 0, result.output
    table = read_quantile_table(table_out)
    assert table.size == 99
    interval = json.loads(result.output.strip().splitlines()[-1])
    assert interval["lower"] < interval["upper"]

    other = tmp_path / "other.csv"
    from pie import default_grid, quantile_table
    from pie.data import write_quantile_table
    write_quantile_table(quantile_table(g.standard_normal(500) + 1.0,
                                        default_grid(99)), other)
    metrics_result = CliRunner().invoke(
        main, ["metrics", "--table-a", str(table_out), "--table-b", str(other)]
    )
    assert metrics_result.exit_code == 0, metrics_result.output
    payload = json.loads(metrics_result.output)
    assert set(payload) == {"w2", "quantile_gap"}


def test_numeric_error_exit_code(tmp_path):
    path = tmp_path / "const.csv"
    write_draws(np.ones((50, 1)), path)
    result = CliRunner().invoke(
        main, ["metrics", "--samples-a", str(path), "--samples-b", str(path)]
    )
    assert result.exit_code == 4  # degenerate sample: zero spread


def test_metrics_on_samples(tmp_path):
    g = np.random.default_rng(1)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_draws(g.standard_normal((2000, 1)), a)
    write_draws(g.standard_normal((2000, 1)), b)
    result = CliRunner().invoke(
        main, ["metrics", "--samples-a", str(a), "--samples-b", str(b),
               "--xi0", "0.0"]
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["accuracy"] > 0.9
    assert "bias" in payload and "variance" in payload

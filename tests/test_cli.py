import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from pie.cli import main
from pie.config import load_config
from pie.data import (load_csv, read_quantile_table, simulate_linear, write_draws,
                      write_observations)
from pie.errors import DataError


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

    # the config's output_dir beats the variable, on the CLI as in load_config
    cfg = write_config(tmp_path / "cfg-out.yaml", output_dir=str(tmp_path / "cfg-run"))
    assert load_config(cfg).output_dir == str(tmp_path / "cfg-run")
    result = CliRunner().invoke(main, ["run", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "cfg-run" / "metrics.json").exists()


def test_out_is_a_path_as_typed(tmp_path, monkeypatch):
    # YAML would read these as a bool, an octal int, null, null and a list
    cfg = write_config(tmp_path / "cfg.yaml")
    monkeypatch.delenv("PIE_OUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    for name in ("yes", "010", "null", "~", "[a]"):
        result = CliRunner().invoke(main, ["run", "--config", str(cfg), "--out", name])
        assert result.exit_code == 0, (name, result.output)
        assert (tmp_path / name / "metrics.json").exists(), name
    assert not (tmp_path / "out").exists()


LINEAR_OVERRIDES = ["model.family=normal-linear-nig", "model.a=6", "data.p=2"]
MALFORMED_OVERRIDES = [
    ["model.a=abc"], ["model.a=[1,2]"], ["K=abc"], ["seeds=[a]"], ["alpha_levels=abc"],
    ["chain.thin=abc"], ["chain.T_total=[1]"], ["grid_size=x"],
    [*LINEAR_OVERRIDES, "data.p=x"], ["data.true_theta=x"], ["functionals=[{a: [x]}]"],
    [*LINEAR_OVERRIDES, "model.omega=[[1,0],[0]]"], ["model=[1]"], ["chain=5"],
    # a flat prior has no normaliser for the Metropolis target to hold
    [*LINEAR_OVERRIDES, "model.omega=[[.inf, 0], [0, .inf]]", "sampler=metropolis"],
    # whole-number keys refuse a fraction or a bool rather than truncate it
    ["n=200.5"], ["n=true", "K=1"], ["K=1.5"], ["grid_size=49.5"], ["chain.T_total=2000.5"],
    ["chain.thin=1.5"], ["seeds=[1.5]"], ["seeds=[true]"], [*LINEAR_OVERRIDES, "data.p=2.5"],
    # real-number keys refuse a bool rather than read it as 1.0 or 0.0
    ["model.a=yes"], ["chain.burn_fraction=no"], ["data.true_theta=true"],
    ["chain.proposal_scale=on"], [*LINEAR_OVERRIDES, "model.omega=yes"],
    ["functionals=[{a: [1], b: true}]"],
    ["functionals=[{a: [1], b: .inf}]"], ["functionals=[{a: [1], b: .nan}]"],
    # numpy refuses this grid size before allocating anything
    ["grid_size=100000000000000000000"],
    # a one-value table has no spread to score, in any mode
    ["grid_size=1"], ["grid_size=1", "mode=consensus"],
    # sizes numpy would try to allocate (36 TiB of chain states, a 4 EiB grid)
    ["chain.T_total=1.0e+13"], ["grid_size=576460752303423488"], ["grid_size=100000001"],
    # 72.8 TiB of Poisson counts, a 7.28 TiB omega, a design past 10^8 entries
    ["n=1.0e+13"], [*LINEAR_OVERRIDES, "data.p=1000000"], [*LINEAR_OVERRIDES, "n=50000001"],
    # a value that is not YAML, or that names a Python object
    ["n=[1"], ["mode=!!python/name:os.system"],
    # list keys take only a list, and a functional only the keys a and b
    ["seeds='12'"], ["seeds={1: 2, 3: 4}"], ["alpha_levels={0.1: x}"],
    ["functionals=[{a: [1], bb: 2}]"],
    # keys nothing reads: misspellings, keys of no table, and normal-linear keys
    # on the Poisson base config
    ["chian.thin=2"], ["model.aa=3"], ["alpha_level=[0.5]"], ["chain.seed=4"], ["workers=2"],
    ["model.omega=3"], ["data.p=5"],
    # a path key takes only a string: quote a path YAML reads as another type
    ["output_dir={a: 1}"], ["data.path={x: 1}"], ["data.source=csv", "data.path=[1, 2]"],
]


def test_config_error_exit_code(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml", alpha_levels=[2.0])
    result = CliRunner().invoke(main, ["run", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "error" in result.output

    # malformed values are config errors too, never a raw traceback
    cfg = write_config(tmp_path / "ok.yaml")
    load_config(cfg, dict(item.split("=", 1) for item in LINEAR_OVERRIDES))
    whole_floats = load_config(cfg, {"n": "1.0e+6", "K": "2.0", "seeds": "[3.0]"})
    assert (whole_floats.n, whole_floats.K, whole_floats.seeds) == (1000000, 2, [3])
    assert type(whole_floats.n) is int
    for overrides in MALFORMED_OVERRIDES:
        args = ["run", "--config", str(cfg), "--out", str(tmp_path / "never")]
        for item in overrides:
            args += ["--set", item]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, (overrides, result.output, result.exception)
        assert "error" in result.output


def test_simulation_parameter_faults_exit_code(tmp_path):
    # a rate numpy cannot draw from, or that draws no valid data, is a config error
    cfg = write_config(tmp_path / "cfg.yaml", n=10, K=2)
    cases = [("poisson", "poisson-gamma", value) for value in ("inf", "nan", "1e300")]
    cases += [("exponential", "exponential-gamma", value) for value in ("inf", "nan")]
    for family, model, value in cases:
        yaml_value = value if value == "1e300" else "." + value
        runs = [
            ["run", "--config", str(cfg), "--out", str(tmp_path / "never"),
             "--set", f"model.family={model}", "--set", f"data.true_theta={yaml_value}"],
            ["simulate", "--family", family, "--n", "10", "--theta0", value,
             "--out", str(tmp_path / "never.csv")],
        ]
        for args in runs:
            result = CliRunner().invoke(main, args)
            assert result.exit_code == 2, (args, result.output, result.exception)
            assert "error" in result.output
    # data too large to allocate is refused before anything is allocated
    linear = [arg for item in LINEAR_OVERRIDES for arg in ("--set", item)]
    for args in (["simulate", "--family", "linear", "--n", "1000000000000000000000",
                  "--out", str(tmp_path / "never.csv")],
                 ["simulate", "--family", "linear", "--n", "50000001", "--p", "2",
                  "--out", str(tmp_path / "never.csv")],
                 ["simulate", "--family", "poisson", "--n", "10000000000000",
                  "--theta0", "3", "--out", str(tmp_path / "never.csv")],
                 ["run", "--config", str(cfg), "--out", str(tmp_path / "never"),
                  *linear, "--set", "n=1.0e+21"],
                 ["run", "--config", str(cfg), "--out", str(tmp_path / "never"),
                  "--set", "n=1.0e+13"]):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, (args, result.output, result.exception)
        assert "must lie in [1, 1e+08]" in result.output
    assert not (tmp_path / "never").exists() and not (tmp_path / "never.csv").exists()


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


def test_csv_shape_mismatch_exit_code(tmp_path):
    csv_path = tmp_path / "data.csv"
    write_observations(simulate_linear(50, 3, seed=0), csv_path)
    cases = [([], "config says n=200 but"),
             ([*LINEAR_OVERRIDES, "n=50"], "csv design dimension does not match the model")]
    cfg = write_config(tmp_path / "cfg.yaml", data={"source": "csv", "path": str(csv_path)})
    for overrides, message in cases:
        args = ["run", "--config", str(cfg), "--out", str(tmp_path / "never")]
        for item in overrides:
            args += ["--set", item]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 3, (overrides, result.output, result.exception)
        assert message in result.output
    assert not (tmp_path / "never").exists()


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


def test_combine_column_range(tmp_path):
    files = []
    for j in range(2):
        path = tmp_path / f"shard{j}.csv"
        write_draws(np.column_stack([np.arange(50.0) + j, -np.arange(50.0)]), path)
        files.append(str(path))
    out = tmp_path / "table.csv"
    for column, code in (("0", 2), ("-1", 2), ("3", 3)):
        result = CliRunner().invoke(main, ["combine", *files, "--column", column,
                                           "--out", str(out)])
        assert result.exit_code == code, (column, result.output, result.exception)
        assert isinstance(result.exception, SystemExit), column
        assert not out.exists()
    assert f"{files[0]}: has 2 columns, no column 3" in result.output
    # an interval that cannot be computed writes no table either
    one_draw = tmp_path / "one.csv"
    write_draws(np.array([[1.0]]), one_draw)
    for args, code in ((["--alpha", "1.5", *files], 2),
                       (["--alpha", "0.1", files[0], str(one_draw)], 3)):
        result = CliRunner().invoke(main, ["combine", *args, "--out", str(out)])
        assert result.exit_code == code, (args, result.output, result.exception)
        assert "combined" not in result.output and not out.exists()
    result = CliRunner().invoke(main, ["combine", *files, "--column", "2",
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert read_quantile_table(out).values.max() <= 0.0


def test_combine_oversized_grid_exit_code(tmp_path):
    path = tmp_path / "shard.csv"
    write_draws(np.arange(50.0)[:, None], path)
    out = tmp_path / "table.csv"
    # numpy refuses the first size before allocating anything; it would try
    # to allocate the second (4 EiB)
    for size in ("100000000000000000000", "576460752303423488"):
        result = CliRunner().invoke(main, ["combine", str(path), "--grid-size", size,
                                           "--out", str(out)])
        assert result.exit_code == 2, (result.output, result.exception)
        assert "grid size" in result.output and not out.exists()


def test_package_imports_without_scipy(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    config = write_config(tmp_path / "cfg.yaml")
    # loading a valid config pulls in none of the lazily imported modules either
    code = (f"import sys; sys.path.insert(0, {src!r}); import pie, pie.cli; "
            f"pie.load_config({str(config)!r}); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'concurrent', 'orjson', 'difflib')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"


def test_oversized_csv_field_exit_code(tmp_path):
    # a quoted cell past the csv module's field size limit (131 072 characters)
    path = tmp_path / "big.csv"
    path.write_text('y\n"' + "1" * 200_000 + '"\n', encoding="utf-8")
    with pytest.raises(DataError, match="line 2: field larger than field limit"):
        load_csv(path)
    result = CliRunner().invoke(main, ["combine", str(path), "--out",
                                       str(tmp_path / "x.csv")])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "line 2: field larger than field limit" in result.output
    assert not (tmp_path / "x.csv").exists()


def test_non_finite_draws_exit_code(tmp_path):
    path = tmp_path / "draws.csv"
    path.write_text("theta1\n0.5\n1.5\nnan\n2.5\n", encoding="utf-8")
    for args in (["combine", str(path), "--out", str(tmp_path / "table.csv")],
                 ["metrics", "--samples-a", str(path), "--samples-b", str(path)]):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 3, (args, result.output)
        assert "line 4: non-finite value" in result.output
        assert "NaN" not in result.output
    assert not (tmp_path / "table.csv").exists()


def test_numeric_error_exit_code(tmp_path):
    path = tmp_path / "const.csv"
    write_draws(np.ones((50, 1)), path)
    result = CliRunner().invoke(
        main, ["metrics", "--samples-a", str(path), "--samples-b", str(path)]
    )
    assert result.exit_code == 4  # degenerate sample: zero spread


def test_constant_combined_sample_exit_code(tmp_path):
    # a proposal scale of 1e300 rejects every step, so each chain stays at its
    # start and every table it gives is one repeated value
    cfg = write_config(tmp_path / "cfg.yaml", n=1000, chain={"T_total": 10000})
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", "--config", str(cfg), "--set",
                                       "sampler=metropolis", "--set",
                                       "chain.proposal_scale=1e300", "--out", str(out)])
    assert result.exit_code == 4, (result.output, result.exception)
    assert "degenerate sample: zero spread" in result.output
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings
def test_non_finite_metrics_are_refused(tmp_path):
    # metrics that overflow, or whose bandwidth underflows, at extreme scales
    # are NaN or Infinity, which read_json refuses: the run writes nothing
    cfg = write_config(tmp_path / "cfg.yaml", n=200, K=4)
    for i, overrides in enumerate([
            ["model.b=1e300"], ["model.family=exponential-gamma", "data.true_theta=1e-300"],
            ["functionals=[{a: [1.0e-300]}]"], [*LINEAR_OVERRIDES, "model.b=1e300"],
            ["functionals=[{a: [1.0e+300]}]"]]):
        out = tmp_path / f"out{i}"
        args = ["run", "--config", str(cfg), "--out", str(out)]
        for item in overrides:
            args += ["--set", item]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 4, (overrides, result.output, result.exception)
        assert "non-finite number" in result.output
        assert not out.exists()


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


def test_file_faults_exit_code(tmp_path):
    draws = tmp_path / "ok.csv"
    write_draws(np.arange(1.0, 51.0)[:, None], draws)
    empty_table, falling_table = tmp_path / "empty.csv", tmp_path / "falling.csv"
    empty_table.write_text("u,value\n", encoding="utf-8")
    falling_table.write_text("u,value\n0.25,2.0\n0.75,1.0\n", encoding="utf-8")
    missing = tmp_path / "missing"
    cases = [
        (["simulate", "--family", "poisson", "--n", "5", "--theta0", "1",
          "--out", str(missing / "x.csv")], missing / "x.csv"),
        (["combine", str(draws), "--out", str(missing / "x.csv")], missing / "x.csv"),
        (["metrics", "--samples-a", str(draws), "--samples-b", str(draws),
          "--out", str(missing / "m.json")], missing / "m.json"),
        (["metrics", "--table-a", str(empty_table), "--table-b", str(empty_table)],
         empty_table),
        (["metrics", "--table-a", str(falling_table), "--table-b", str(falling_table)],
         falling_table),
    ]
    for args, named in cases:
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 3, (args, result.output, result.exception)
        assert isinstance(result.exception, SystemExit), args
        assert str(named) in result.output, (args, result.output)
        assert "Traceback" not in result.output


def test_report_malformed_run_dir_exit_code(tmp_path):
    cases = []
    for i, text in enumerate(['{"cells": [', '{"cells": [1]}', '{"cells": {}}', '[]',
                              '{"cells": [{"seed": 0, "functional": "f0", "w2": "x"}]}',
                              '{"cells": [{"seed": 0, "functional": "f0", "w2": NaN}]}']):
        run_dir = tmp_path / f"metrics-{i}"
        run_dir.mkdir()
        (run_dir / "metrics.json").write_text(text, encoding="utf-8")
        cases.append((run_dir, str(run_dir / "metrics.json")))
    bad_interval = tmp_path / "bad-interval"
    (bad_interval / "seed-0").mkdir(parents=True)
    # a well-formed metrics.json, so the fault comes after printable lines
    (bad_interval / "metrics.json").write_text(
        '{"cells": [{"seed": 0, "functional": "f0", "w2": 0.5}]}', encoding="utf-8")
    (bad_interval / "seed-0" / "intervals.csv").write_text(
        "functional,alpha,lower,upper\nf0,abc,1,2\n", encoding="utf-8")
    cases.append((bad_interval, f"{bad_interval / 'seed-0' / 'intervals.csv'}: "
                                "line 2: non-numeric value 'abc'"))
    for run_dir, named in cases:
        result = CliRunner().invoke(main, ["report", str(run_dir)])
        assert result.exit_code == 3, (run_dir, result.output, result.exception)
        assert isinstance(result.exception, SystemExit)
        assert named in result.output, result.output
        assert result.stdout == "", (run_dir, result.stdout)

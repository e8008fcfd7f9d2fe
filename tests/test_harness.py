import json

import numpy as np
import pytest
import yaml

from pie import (
    ChainConfig,
    ConfigError,
    DataError,
    ExperimentConfig,
    LinearFunctional,
    ModelSpec,
    emit_report,
    load_config,
    partition,
    run_experiment,
    sample_poisson_gamma,
)
from pie import rng as pie_rng
from pie.runner import _sample_shard
from oracles import gamma_quantile


def poisson_config(**overrides):
    base = dict(
        model=ModelSpec("poisson-gamma", {"a": 1.0, "b": 1.0}),
        n=600,
        K=3,
        chain=ChainConfig(T_total=4000),
        functionals=[LinearFunctional([1.0])],
        alpha_levels=[0.1],
        grid_size=199,
        seeds=[0],
        mode="pie",
        sampler="exact",
        true_theta=3.0,
        output_dir="out",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ConfigError):
            poisson_config(n=2, K=3)
        with pytest.raises(ConfigError):
            poisson_config(functionals=[])
        with pytest.raises(ConfigError):
            poisson_config(alpha_levels=[1.2])
        with pytest.raises(ConfigError):
            poisson_config(mode="magic")
        with pytest.raises(ConfigError):
            poisson_config(seeds=[])

    def test_yaml_round_trip(self, tmp_path):
        raw = {
            "model": {"family": "poisson-gamma", "a": 2.0, "b": 0.5},
            "n": 100,
            "K": 4,
            "chain": {"T_total": 2000, "thin": 2},
            "alpha_levels": [0.05, 0.2],
            "seeds": [7],
            "mode": "pie",
            "data": {"source": "simulate", "true_theta": 1.5},
        }
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        cfg = load_config(path)
        assert cfg.model.hyperparameters == {"a": 2.0, "b": 0.5}
        assert cfg.chain.thin == 2 and cfg.chain.T_total == 2000
        assert cfg.seeds == [7] and cfg.alpha_levels == [0.05, 0.2]

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            yaml.safe_dump({"model": {"family": "poisson-gamma"}, "n": 100,
                            "data": {"true_theta": 3.0}}),
            encoding="utf-8",
        )
        cfg = load_config(path, {"n": "250", "K": "5", "chain.thin": "1",
                                 "model.a": "2.5"})
        assert cfg.n == 250 and cfg.K == 5
        assert cfg.chain.thin == 1
        assert cfg.model.hyperparameters["a"] == 2.5

    def test_normal_linear_defaults(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            yaml.safe_dump({"model": {"family": "normal-linear-nig"},
                            "n": 200, "K": 2, "data": {"p": 3}}),
            encoding="utf-8",
        )
        cfg = load_config(path)
        assert cfg.model.parameter_dim == 4
        assert len(cfg.functionals) == 4  # coordinate projections by default

    def test_custom_family_rejected_in_config(self):
        with pytest.raises(ConfigError):
            poisson_config(model=ModelSpec(
                "custom-logdensity",
                log_likelihood=lambda t, d: 0.0,
                log_prior=lambda t: 0.0,
            ))


class TestRunExperiment:
    def test_pie_report_structure(self):
        cfg = poisson_config()
        report = run_experiment(cfg)
        result = report.seed_results[0]
        tables = result.tables["f0"]
        assert set(tables) == {"shard0", "shard1", "shard2", "combined"}
        assert all(t.size == 199 for t in tables.values())
        assert len(result.intervals) == 1
        cell = result.cells[0]
        assert set(cell) == {"seed", "functional", "w2", "accuracy", "bias",
                             "variance", "quantile_gap", "rate_slope"}

    def test_full_oracle_matches_analytic_posterior(self):
        cfg = poisson_config(mode="full-oracle", n=400,
                             chain=ChainConfig(T_total=100000, thin=1))
        report = run_experiment(cfg)
        table = report.seed_results[0].tables["f0"]["combined"]
        from pie.data import simulate_univariate
        obs = simulate_univariate("poisson", 3.0, 400, seed=0)
        shape, rate = obs.responses.sum() + 1.0, 400.0 + 1.0
        mid = (table.grid >= 0.05) & (table.grid <= 0.95)
        exact = gamma_quantile(shape, rate, table.grid[mid])
        sd = np.sqrt(shape) / rate
        assert np.max(np.abs(table.values[mid] - exact)) < 0.05 * sd

    def test_single_shard_pie_equals_full_oracle(self):
        pie_cfg = poisson_config(K=1)
        oracle_cfg = poisson_config(mode="full-oracle")
        a = run_experiment(pie_cfg).seed_results[0]
        b = run_experiment(oracle_cfg).seed_results[0]
        assert np.array_equal(a.tables["f0"]["combined"].values,
                              b.tables["f0"]["combined"].values)
        assert a.intervals == b.intervals

    def test_worker_count_invariance(self):
        cfg = poisson_config(K=6, seeds=[1, 2])
        r1 = run_experiment(cfg, workers=1)
        r8 = run_experiment(cfg, workers=8)
        for s1, s8 in zip(r1.seed_results, r8.seed_results):
            assert s1.intervals == s8.intervals
            for name in s1.tables:
                for source in s1.tables[name]:
                    assert np.array_equal(s1.tables[name][source].values,
                                          s8.tables[name][source].values)
            assert s1.cells == s8.cells

    def test_shard_recompute_from_key(self):
        cfg = poisson_config(K=4, n=800)
        from pie.data import simulate_univariate
        obs = simulate_univariate("poisson", 3.0, 800, seed=0)
        plan = partition(800, 4, 0)
        shard = _sample_shard(cfg, obs, plan, 0, 2)
        direct = sample_poisson_gamma(
            obs.take(plan.shard_indices(2)).responses,
            800 / plan.shard_sizes[2],
            1.0, 1.0, cfg.chain.retained,
            seed=pie_rng.shard_seed(0, 2),
        )
        assert np.array_equal(shard.values, direct.values)

    def test_consensus_and_multidim_modes_run(self):
        for mode in ("consensus", "multidim"):
            cfg = poisson_config(mode=mode, n=300, K=2)
            report = run_experiment(cfg)
            result = report.seed_results[0]
            assert result.combined_draws is not None
            assert "combined" in result.tables["f0"]

    def test_aggregated_shard_failure_names_shards(self):
        # poisson counts with an exponential-gamma model: every shard fails the
        # family's support check, on the exact and the Metropolis path alike
        from pie.data import simulate_univariate
        bad = simulate_univariate("poisson", 0.2, 100, seed=0)  # contains zeros
        from pie import runner as runner_mod
        plan = partition(100, 2, 0)
        for sampler in ("exact", "metropolis"):
            cfg = poisson_config(
                model=ModelSpec("exponential-gamma", {"a": 1.0, "b": 1.0}),
                true_theta=2.0, n=100, K=2, sampler=sampler,
            )
            with pytest.raises(DataError, match="shard 0"):
                runner_mod._sample_all_shards(cfg, bad, plan, 0, workers=2)

    def test_metropolis_pipeline_close_to_exact(self):
        from pie import table_moments

        exact = run_experiment(poisson_config(n=400, K=2,
                                              chain=ChainConfig(T_total=40000, thin=1)))
        mcmc = run_experiment(poisson_config(
            n=400, K=2, sampler="metropolis",
            chain=ChainConfig(T_total=40000, burn_fraction=0.5, thin=1),
        ))
        te = exact.seed_results[0].tables["f0"]["combined"]
        tm = mcmc.seed_results[0].tables["f0"]["combined"]
        mid = (te.grid >= 0.05) & (te.grid <= 0.95)
        gap = np.max(np.abs(te.values[mid] - tm.values[mid]))
        sd = np.sqrt(table_moments(te)[1])
        assert gap < 0.1 * sd


class TestEmitReport:
    def test_files_and_row_counts(self, tmp_path):
        cfg = poisson_config(output_dir=str(tmp_path / "run"))
        report = run_experiment(cfg)
        paths = emit_report(report, cfg.output_dir)
        names = {p.name for p in paths}
        assert names == {"config.yaml", "metrics.json", "timings.json",
                         "quantiles.csv", "intervals.csv"}
        quantiles = (tmp_path / "run" / "seed-0" / "quantiles.csv").read_text()
        rows = quantiles.strip().splitlines()
        assert rows[0] == "functional,u,value,source"
        assert len(rows) - 1 == cfg.grid_size * (cfg.K + 1)
        intervals = (tmp_path / "run" / "seed-0" / "intervals.csv").read_text()
        assert intervals.splitlines()[0] == "functional,alpha,lower,upper"
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert len(metrics["cells"]) == 1

    def test_refuses_overwrite(self, tmp_path):
        cfg = poisson_config(output_dir=str(tmp_path / "run"))
        report = run_experiment(cfg)
        emit_report(report, cfg.output_dir)
        with pytest.raises(ConfigError, match="existing"):
            emit_report(report, cfg.output_dir)
        emit_report(report, cfg.output_dir, overwrite=True)

    def test_multidim_emits_draws(self, tmp_path):
        cfg = poisson_config(mode="multidim", n=300, K=2,
                             output_dir=str(tmp_path / "run"))
        report = run_experiment(cfg)
        paths = emit_report(report, cfg.output_dir)
        assert any(p.name == "draws.csv" for p in paths)

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from pie import (
    ChainConfig,
    ConfigError,
    DataError,
    ExperimentConfig,
    ExperimentReport,
    LinearFunctional,
    ModelSpec,
    QuantileTable,
    SeedResult,
    accuracy,
    apply_functional,
    average_quantile_tables,
    combine_multidim,
    consensus_combine,
    default_grid,
    emit_report,
    load_config,
    partition,
    pie_interval,
    quantile_gap,
    quantile_table,
    run_experiment,
    sample_bernoulli_beta,
    sample_exponential_gamma,
    sample_normal_linear_nig,
    sample_poisson_gamma,
    simulate_linear,
    w2_from_tables,
)
from pie import rng as pie_rng
from pie.cli import main
from pie.config import KEYS, SECTIONS
from pie.data import read_json
from pie.families import CONJUGATE
from pie.runner import YAML_DUMPER, _dataset, _exact_draws, _sample_shard, _versions
from oracles import SPECIAL_FLOATS as SPECIAL, gamma_quantile, reference_csv


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


# the data keys each conjugate family's simulated runs need
FAMILY_DATA = {"poisson-gamma": {"data.true_theta": 3.0},
               "exponential-gamma": {"data.true_theta": 2.0},
               "bernoulli-beta": {"data.true_theta": 0.3},
               "normal-linear-nig": {"data.p": 3}}


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

    def test_scalar_omega_is_the_diagonal_matrix(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            yaml.safe_dump({"model": {"family": "normal-linear-nig"},
                            "n": 200, "K": 2, "data": {"p": 2}}),
            encoding="utf-8",
        )
        for scalar, matrix in [("2.5", "[[2.5, 0], [0, 2.5]]"),
                               (".inf", "[[.inf, 0], [0, .inf]]")]:
            omega = load_config(path, {"model.omega": scalar}).model.hyperparameters["omega"]
            assert np.array_equal(
                omega, load_config(path, {"model.omega": matrix}).model.hyperparameters["omega"])
        assert np.array_equal(omega, np.diag([np.inf, np.inf]))

    def test_metropolis_needs_a_proper_prior(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            yaml.safe_dump({"model": {"family": "normal-linear-nig", "omega": float("inf")},
                            "n": 200, "K": 2, "data": {"p": 2}}),
            encoding="utf-8",
        )
        assert load_config(path).sampler == "exact"
        with pytest.raises(ConfigError, match="model.omega"):
            load_config(path, {"sampler": "metropolis"})
        # a Gamma shape whose log normaliser overflows
        with pytest.raises(ConfigError, match="proper prior"):
            poisson_config(model=ModelSpec("poisson-gamma", {"a": 1e307, "b": 1.0}),
                           sampler="metropolis")

    def test_custom_family_rejected_in_config(self):
        with pytest.raises(ConfigError):
            poisson_config(model=ModelSpec(
                "custom-logdensity",
                log_likelihood=lambda t, d: 0.0,
                log_prior=lambda t: 0.0,
            ))

    def test_unknown_key_names_the_closest_known_key(self):
        poisson = {"model.family": "poisson-gamma", "n": 100, "data.true_theta": 3.0}
        linear = {"model.family": "normal-linear-nig", "n": 100, "data.p": 2}
        for base, key, close in [(poisson, "model.aa", "model.a"),
                                 (poisson, "alpha_level", "alpha_levels"),
                                 (poisson, "chain.thni", "chain.thin"),
                                 # a misspelled section is named by its first key
                                 (poisson, "chian.thin", "chain.thin"),
                                 (poisson, "modle.a", "model.a"),
                                 (linear, "model.mu_sta", "model.mu_star")]:
            with pytest.raises(ConfigError, match=f"'{key}'; did you mean '{close}'"):
                load_config(None, {**base, key: "1"})
        # a key only another family reads, or that nothing reads, is refused too
        for key in ("model.omega", "data.p", "workers"):
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                load_config(None, {**poisson, key: "3"})

    def test_run_size_budget(self):
        # (K + 1) * retained * dim draws plus functionals * (K + 2) * grid_size
        # table values, at most 10^8; only loaded, as running them would
        # allocate gigabytes
        poisson = {"model.family": "poisson-gamma", "n": 2000, "K": 20,
                   "data.true_theta": 3.0}
        for big in ({"chain.T_total": "1.0e+8", "chain.thin": 1}, {"grid_size": 50_000_000}):
            with pytest.raises(ConfigError, match="one seed holds"):
                load_config(None, {**poisson, **big})
        # full-oracle mode samples one shard
        load_config(None, {**poisson, "grid_size": 10_000_000, "mode": "full-oracle"})
        short = {"chain.T_total": 4, "chain.burn_fraction": 0, "chain.thin": 1}
        # 2 * 5 draws + 3 tables of 33 333 330; then 3 * 4 * 2 draws + 2 * 4 * 12 499 997
        at_bound = [({**poisson, "K": 1, **short, "chain.T_total": 5}, 33_333_330),
                    ({"model.family": "normal-linear-nig", "data.p": 1, "n": 100, "K": 2,
                      **short}, 12_499_997)]
        for overrides, grid in at_bound:
            assert load_config(None, {**overrides, "grid_size": grid}).grid_size == grid
            with pytest.raises(ConfigError, match="one seed holds"):
                load_config(None, {**overrides, "grid_size": grid + 1})

    def test_readme_config_example(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        example = readme.split("A config file looks like:\n\n```yaml\n")[1].split("```")[0]
        path = tmp_path / "cfg.yaml"
        path.write_text(example, encoding="utf-8")
        assert load_config(path).output_dir == "results"
        raw = yaml.safe_load(example)
        named = set(raw) | {f"{section}.{key}" for section in SECTIONS
                            for key in raw.get(section, {})}
        assert set(KEYS) - {"functionals"} <= named


# YAML-shaped values: null, bools, huge ints, nan and infinities, strings, text
# that is not YAML, and lists and maps of these; each string value is parsed
# as YAML, as a --set value is
NOT_YAML = ["[1", "{a", "!!python/name:os.system", "a: b: c", "'x", "@x", "*x", "&a [*a]",
            "!!binary x", "1.0e+400", "-.inf", ".nan", "0x10", "~", "yes", "- [1"]
YAML_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 60), st.integers(), st.floats(0, 1),
              st.floats(), st.text(max_size=4), st.sampled_from(NOT_YAML)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3),
                                                                inner, max_size=3),
    max_leaves=6)
# values a key can take, so that some drawn configs load
VALID_VALUES = st.one_of(
    st.integers(1, 50), st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True),
    st.sampled_from(["pie", "consensus", "multidim", "full-oracle", "exact", "metropolis",
                     "simulate", "auto", 0.05, 0.25, [0.1, 0.5], 3.0, [[1.0, 0.0], [0.0, 2.0]]]))
VALUES = {
    "functionals": YAML_VALUES | st.lists(
        st.fixed_dictionaries({"a": YAML_VALUES}, optional={"b": YAML_VALUES}), max_size=3),
    # data.p stays small, so an accepted config allocates little
    "data.p": st.one_of(st.integers(-1, 5), st.sampled_from([None, "x", "[1", 2.5, True, [2]])),
}
KNOWN_KEYS = sorted({*KEYS, "model.family", "model.a", "model.b", "model.mu_star",
                     "model.omega", "data.p"})
LEAF = st.text(max_size=6).filter(lambda text: "." not in text)
UNKNOWN_KEYS = st.one_of(
    LEAF.filter(lambda key: key not in SECTIONS),
    st.builds("{}.{}".format, st.sampled_from(SECTIONS), LEAF),
).filter(lambda key: key not in KNOWN_KEYS)


class TestConfigFuzz:
    @settings(max_examples=200, deadline=None)
    @given(family=st.sampled_from(sorted(CONJUGATE)),
           keys=st.lists(st.sampled_from(KNOWN_KEYS), max_size=4, unique=True),
           unknown=st.just({}) | st.dictionaries(UNKNOWN_KEYS, YAML_VALUES, min_size=1,
                                                 max_size=1),
           data=st.data())
    def test_load_config_returns_a_config_or_refuses(self, family, keys, unknown, data):
        # a loadable config with up to four keys set to any value, and maybe a
        # key nothing reads
        overrides = {"model.family": family, "n": 200}
        if CONJUGATE[family].regression:
            overrides["data.p"] = 2
        for key in keys:
            overrides[key] = data.draw(VALUES.get(key, VALID_VALUES | YAML_VALUES), label=key)
        try:
            cfg = load_config(None, {**overrides, **unknown})
        except ConfigError:
            return
        assert isinstance(cfg, ExperimentConfig)
        assert not unknown
        assert yaml.safe_load(yaml.safe_dump(cfg.echo())) == cfg.echo()


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
                             "variance", "quantile_gap"}

    def test_timings_cover_every_phase(self, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("y\n" + "".join(f"{i % 5}\n" for i in range(600)), encoding="utf-8")
        for source in ({"true_theta": 3.0}, {"data_source": "csv", "data_path": str(data)}):
            timings = run_experiment(poisson_config(seeds=[0, 1], **source)).timings
            assert set(timings) == {"data", "partition", "sample", "combine", "metrics"}
            assert all(np.isfinite(t) and t >= 0.0 for t in timings.values())

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

    @pytest.mark.parametrize("family", FAMILY_DATA)
    def test_shard_recompute_from_key(self, family):
        # a shard's draws and the oracle's are the public wrapper's, bit for bit
        cfg = load_config(None, {"model.family": family, "n": 800, "K": 4,
                                 "chain.T_total": 4000, **FAMILY_DATA[family]})
        h, T = cfg.model.hyperparameters, cfg.chain.retained

        def public(data, temper, seed):
            if family == "normal-linear-nig":
                return sample_normal_linear_nig(data.responses, data.design, temper,
                                                h["mu_star"], h["omega"], h["a"], h["b"],
                                                T, seed)
            wrapper = {"poisson-gamma": sample_poisson_gamma,
                       "exponential-gamma": sample_exponential_gamma,
                       "bernoulli-beta": sample_bernoulli_beta}[family]
            return wrapper(data.responses, temper, h["a"], h["b"], T, seed)

        obs = _dataset(cfg, 0)
        plan = partition(800, 4, 0)
        shard = _sample_shard(cfg, obs, plan, 0, 2)
        direct = public(obs.take(plan.shard_indices(2)), 800 / plan.shard_sizes[2],
                        pie_rng.shard_seed(0, 2))
        assert np.array_equal(shard.values, direct.values)
        oracle = _exact_draws(cfg, obs, 1.0, T, pie_rng.oracle_seed(0))
        assert np.array_equal(oracle.values, public(obs, 1.0, pie_rng.oracle_seed(0)).values)

    def test_a_pie_seed_opens_three_streams_and_one_per_shard(self, monkeypatch):
        # the simulated data, the partition and the oracle, and each shard's
        # sampler: scoring draws nothing, however many functionals are scored
        opened = []
        stream = pie_rng.stream
        monkeypatch.setattr(pie_rng, "stream", lambda *key: opened.append(key) or stream(*key))
        for F in (1, 3):
            opened.clear()
            run_experiment(poisson_config(K=4, functionals=[
                LinearFunctional([float(c)], b=c) for c in range(1, F + 1)]))
            assert len(opened) == 3 + 4, F

    def test_consensus_and_multidim_modes_run(self):
        for mode in ("consensus", "multidim"):
            cfg = poisson_config(mode=mode, n=300, K=2)
            report = run_experiment(cfg)
            result = report.seed_results[0]
            assert result.combined_draws is not None
            assert "combined" in result.tables["f0"]

    @pytest.mark.parametrize("mode", ["pie", "consensus", "multidim"])
    def test_one_seed_rebuilt_by_the_public_calls(self, mode):
        # a seed's tables, intervals and oracle-scored cells rebuilt from its
        # shard draws, one functional and one alpha at a time, keep every bit;
        # the functionals are not coordinates and the alphas are off the grid
        seed, alphas = 5, [0.0123, 0.1, 0.333]
        cfg = load_config(None, {
            "model.family": "normal-linear-nig", "data.p": 3, "n": 900, "K": 3,
            "seeds": [seed], "grid_size": 99, "alpha_levels": alphas, "mode": mode,
            "functionals": [{"a": [0.3, -1.7, 2.2, 0.01], "b": 0.37},
                            {"a": [-0.05, 0.0, 1.1, -2.5], "b": -4.25}]})
        result = run_experiment(cfg).seed_results[0]

        h, grid = cfg.model.hyperparameters, default_grid(99)
        obs, plan = simulate_linear(900, 3, seed), partition(900, 3, seed)

        def draws(data, temper, stream_seed):
            return sample_normal_linear_nig(data.responses, data.design, temper,
                                            h["mu_star"], h["omega"], h["a"], h["b"],
                                            cfg.chain.retained, stream_seed)

        shards = [draws(obs.take(plan.shard_indices(j)), 900 / plan.shard_sizes[j],
                        pie_rng.shard_seed(seed, j)) for j in range(3)]
        oracle = draws(obs, 1.0, pie_rng.oracle_seed(seed))
        combined = None
        if mode == "consensus":
            combined = consensus_combine(shards)
        elif mode == "multidim":
            combined = combine_multidim(shards, grid, seed=seed)

        def bits(values) -> list:
            return [float(v).hex() for v in np.ravel(values)]

        if combined is not None:
            assert bits(result.combined_draws) == bits(combined.values)

        intervals, cells = [], []
        for i, functional in enumerate(cfg.functionals):
            shard_xi = [apply_functional(functional, dm) for dm in shards]
            tables = {f"shard{j}": quantile_table(xi, grid) for j, xi in enumerate(shard_xi)}
            if combined is None:
                tables["combined"] = average_quantile_tables(list(tables.values()))
                interval_xi = shard_xi
            else:
                interval_xi = [apply_functional(functional, combined)]
                tables["combined"] = quantile_table(interval_xi[0], grid)
            got = result.tables[f"f{i}"]
            assert list(got) == list(tables)
            assert all(bits(got[s].values) == bits(tables[s].values) for s in tables)
            for alpha in alphas:
                est = pie_interval(interval_xi, alpha)
                intervals.append([f"f{i}", alpha, *bits([est.lower, est.upper])])
            oracle_table = quantile_table(apply_functional(functional, oracle), grid)
            cells.append(bits([w2_from_tables(tables["combined"], oracle_table),
                               accuracy(tables["combined"].values, oracle_table.values),
                               quantile_gap(tables["combined"], oracle_table, 0.05, 0.95)]))
        assert [[e["functional"], e["alpha"], *bits([e["lower"], e["upper"]])]
                for e in result.intervals] == intervals
        assert [bits([c["w2"], c["accuracy"], c["quantile_gap"]])
                for c in result.cells] == cells

    def test_aggregated_shard_failure_names_shards(self):
        # poisson counts with an exponential-gamma model: every shard fails the
        # family's support check, on the exact and the Metropolis path alike
        from pie.data import simulate_univariate
        bad = simulate_univariate("poisson", 0.2, 100, seed=0)  # contains zeros
        from pie import runner as runner_mod
        plan = partition(100, 3, 0)
        for sampler in ("exact", "metropolis"):
            cfg = poisson_config(
                model=ModelSpec("exponential-gamma", {"a": 1.0, "b": 1.0}),
                true_theta=2.0, n=100, K=3, sampler=sampler,
            )
            # every shard fails; they are listed in shard order
            with pytest.raises(DataError, match="shard 0: .*; shard 1: .*; shard 2: "):
                runner_mod._sample_all_shards(cfg, bad, plan, 0)

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

    def test_normal_linear_runs(self, tmp_path):
        # the paper's headline model: simulated data through the exact sampler
        # (pie and multidim modes) and Metropolis, and a CSV written by
        # `pie simulate` through consensus mode
        data = tmp_path / "linear.csv"
        result = CliRunner().invoke(main, ["simulate", "--family", "linear", "--n", "600",
                                           "--p", "3", "--out", str(data)])
        assert result.exit_code == 0, result.output
        base = {"model.family": "normal-linear-nig", "data.p": 3, "n": 600, "K": 3,
                "seeds": [0], "grid_size": 99, "alpha_levels": [0.1, 0.5]}
        runs = {
            "exact-pie": {"mode": "pie"},
            "exact-multidim": {"mode": "multidim"},
            "metropolis": {"mode": "pie", "sampler": "metropolis", "chain.T_total": 2000},
            "csv-consensus": {"mode": "consensus", "data.source": "csv",
                              "data.path": str(data)},
        }
        for name, overrides in runs.items():
            cfg = load_config(None, {**base, **overrides,
                                     "output_dir": str(tmp_path / name)})
            report = run_experiment(cfg)
            paths = emit_report(report, cfg.output_dir)
            assert all(path.is_file() for path in paths), name
            cells = read_json(tmp_path / name / "metrics.json")["cells"]
            assert [cell["functional"] for cell in cells] == ["f0", "f1", "f2", "f3"]
            # a CSV carries no true coefficients, so it has no bias
            assert all((cell["bias"] is None) == (name == "csv-consensus")
                       for cell in cells), name
            intervals = report.seed_results[0].intervals
            assert len(intervals) == 8
            assert all(e["lower"] <= e["upper"] for e in intervals), name


def test_perfbench_tracer_finds_every_name_it_patches(monkeypatch):
    # perfbench/tracing.py wraps functions by name on pie.runner, so a name the
    # runner stops binding breaks only a traced benchmark run
    import pie

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    tracing = importlib.import_module("tracing")
    originals = {name: pie.runner.__dict__.get(name) for name in tracing.RUNNER_NAMES}
    assert all(callable(fn) for fn in originals.values()), originals
    tracer = tracing.Tracer(pie)
    tracer.install()
    try:
        assert all(getattr(pie.runner, name) is not fn for name, fn in originals.items())
    finally:
        tracer.uninstall()
    assert all(getattr(pie.runner, name) is fn for name, fn in originals.items())


def reference_seed_files(result) -> dict:
    """Each CSV of one seed's report as ``reference_csv`` writes it."""
    files = {
        "quantiles.csv": reference_csv(
            ["functional", "u", "value", "source"],
            [(name, u, v, source) for name, per_source in result.tables.items()
             for source, table in per_source.items()
             for u, v in zip(table.grid, table.values)]),
        "intervals.csv": reference_csv(
            ["functional", "alpha", "lower", "upper"],
            [[e["functional"], e["alpha"], e["lower"], e["upper"]]
             for e in result.intervals]),
    }
    if result.combined_draws is not None:
        files["draws.csv"] = reference_csv(
            [f"theta{i}" for i in range(1, result.combined_draws.shape[1] + 1)],
            result.combined_draws)
    return files


class TestEmitReport:
    def test_exact_csv_text(self, tmp_path):
        # three grids, the first one again last: cached grid text must follow
        grids = [np.linspace(0.05, 0.95, 9),
                 [5e-324, 2.2250738585072014e-308, 1.5e-7, 0.1, 1 / 3, 0.5, 0.7,
                  0.9, 0.9999999999999999],
                 np.linspace(0.01, 0.99, 9)]
        tables = {
            f"f{i}": {"shard0": QuantileTable(grid, SPECIAL),
                      "combined": QuantileTable(grid, np.array(SPECIAL) * 3.0)}
            for i, grid in enumerate(grids + grids[:1])
        }
        intervals = [{"functional": "f0", "alpha": alpha, "lower": lower, "upper": upper}
                     for alpha, lower, upper in [(0.1, -0.0, 5e-324), (1 / 3, 1e16, 1e22),
                                                 (2.2250738585072014e-308, -1.5e-7, 0.1)]]
        result = SeedResult(seed=3, tables=tables, intervals=intervals,
                            combined_draws=np.array(SPECIAL).reshape(3, 3), cells=[])
        report = ExperimentReport(config={}, versions={}, seed_results=[result],
                                  timings={})
        emit_report(report, tmp_path / "run")
        for name, text in reference_seed_files(result).items():
            assert (tmp_path / "run" / "seed-3" / name).read_text(encoding="utf-8") == text

    def test_exact_csv_text_of_runs(self, tmp_path):
        # no alpha levels: intervals.csv is its header alone
        for mode in ("pie", "multidim"):
            cfg = poisson_config(mode=mode, n=300, K=2, alpha_levels=[], seeds=[2, 5],
                                 output_dir=str(tmp_path / mode))
            report = run_experiment(cfg)
            emit_report(report, cfg.output_dir)
            for result in report.seed_results:
                files = reference_seed_files(result)
                assert files["intervals.csv"] == "functional,alpha,lower,upper\n"
                assert len(files) == (3 if mode == "multidim" else 2)
                for name, text in files.items():
                    path = tmp_path / mode / f"seed-{result.seed}" / name
                    # as lines: a failed compare of long strings takes minutes
                    assert (path.read_text(encoding="utf-8").splitlines(keepends=True)
                            == text.splitlines(keepends=True))

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

    def test_config_echo_dumpers_agree(self, tmp_path):
        # the echo of every report_digest configuration, and strings YAML quotes
        spec = importlib.util.spec_from_file_location(
            "report_digest", Path(__file__).parent.parent / "tools" / "report_digest.py")
        digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digest)
        configs = [w.config for w in digest.WORKLOADS.values()]
        configs += digest.EXTRA_CONFIGS.values()
        strings = ["/data/" + "deep directory/" * 30 + "obs.csv", "x" * 400, "with space",
                   " leading", "trailing ", "ünïcödé ø", "日本語のパス", "yes", "No", "on",
                   "~", "null", "#x", "a #b", "it's", '"quoted"', "line\nbreak", "tab\tcell"]
        if yaml.__with_libyaml__:
            assert YAML_DUMPER is yaml.CSafeDumper
        path = tmp_path / "cfg.yaml"
        for config in configs:
            for text in strings:
                path.write_text(yaml.safe_dump(
                    dict(config, output_dir=text, data=dict(config["data"], path=text))),
                    encoding="utf-8")
                echo = {"config": load_config(path).echo(), "versions": _versions()}
                dumped = yaml.dump(echo, Dumper=YAML_DUMPER, sort_keys=True)
                assert dumped == yaml.safe_dump(echo, sort_keys=True)
                assert yaml.safe_load(dumped) == echo

    def test_refuses_overwrite(self, tmp_path):
        cfg = poisson_config(output_dir=str(tmp_path / "run"))
        report = run_experiment(cfg)
        emit_report(report, cfg.output_dir)
        with pytest.raises(ConfigError, match="existing"):
            emit_report(report, cfg.output_dir)
        emit_report(report, cfg.output_dir, overwrite=True)

    def test_failed_write_leaves_no_partial_report(self, tmp_path):
        cfg = poisson_config(output_dir=str(tmp_path / "run"))
        report = run_experiment(cfg)
        out = tmp_path / "run"
        out.mkdir()
        (out / "seed-0").write_text("not a directory", encoding="utf-8")
        with pytest.raises(DataError, match="failed writing report"):
            emit_report(report, cfg.output_dir)
        assert sorted(p.name for p in out.iterdir()) == ["seed-0"]
        assert (out / "seed-0").read_text(encoding="utf-8") == "not a directory"

    def test_returned_paths_in_report_order(self, tmp_path):
        cfg = poisson_config(mode="multidim", n=300, K=2, seeds=[4, 1],
                             output_dir=str(tmp_path / "run"))
        paths = emit_report(run_experiment(cfg), cfg.output_dir)
        expected = ["config.yaml", "metrics.json", "timings.json"]
        for seed in (4, 1):
            expected += [f"seed-{seed}/{name}"
                         for name in ("quantiles.csv", "intervals.csv", "draws.csv")]
        assert [p.relative_to(tmp_path / "run").as_posix() for p in paths] == expected

    def test_quantile_sources_in_shard_order(self, tmp_path):
        cfg = poisson_config(n=1200, K=12, grid_size=9, output_dir=str(tmp_path / "run"))
        emit_report(run_experiment(cfg), cfg.output_dir)
        rows = (tmp_path / "run" / "seed-0" / "quantiles.csv").read_text().splitlines()
        sources = list(dict.fromkeys(row.rsplit(",", 1)[1] for row in rows[1:]))
        assert sources == [f"shard{j}" for j in range(12)] + ["combined"]

    def test_multidim_emits_draws(self, tmp_path):
        cfg = poisson_config(mode="multidim", n=300, K=2,
                             output_dir=str(tmp_path / "run"))
        report = run_experiment(cfg)
        paths = emit_report(report, cfg.output_dir)
        assert any(p.name == "draws.csv" for p in paths)

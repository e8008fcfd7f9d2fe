import numpy as np
import pytest

from pie import (
    ConfigError,
    DataError,
    ObservationSet,
    QuantileTable,
    default_grid,
    load_csv,
    quantile_table,
    read_draws,
    read_quantile_table,
    simulate_linear,
    simulate_univariate,
    write_draws,
    write_observations,
    write_quantile_table,
)
from pie import rng
from oracles import SPECIAL_FLOATS as SPECIAL, reference_csv

# every reader of a two-column numeric file, with a header it accepts
READERS = [(load_csv, "y,x1"), (read_draws, "theta1,theta2"),
           (read_quantile_table, "u,value")]


class TestSimulateLinear:
    def test_sparse_alternating_coefficients(self):
        obs = simulate_linear(200, 10, seed=0)
        beta = np.asarray(obs.meta["beta0"])
        assert np.count_nonzero(beta) == 1 and beta[0] == 1.0
        beta25 = np.asarray(simulate_linear(50, 25, seed=0).meta["beta0"])
        assert beta25[:3].tolist() == [1.0, -1.0, 1.0]
        assert np.all(beta25[3:] == 0.0)

    def test_signed_design(self):
        obs = simulate_linear(500, 4, seed=1)
        assert set(np.unique(obs.design)) == {-1.0, 1.0}

    def test_unit_noise_variance(self):
        obs = simulate_linear(100000, 10, seed=2)
        beta = np.asarray(obs.meta["beta0"])
        resid = obs.responses - obs.design @ beta
        assert abs(np.var(resid) - 1.0) < 0.05

    def test_responses_are_signal_plus_noise_bit_for_bit(self):
        # the signal is summed elementwise, not by BLAS; it must still equal
        # the matrix product exactly, so reports keep their bytes
        for n, p in ((1, 1), (1000, 10), (20001, 21)):
            obs = simulate_linear(n, p, seed=3)
            g = rng.stream(rng.SIMULATE, 3)
            g.integers(0, 2, size=(n, p))
            expected = obs.design @ np.asarray(obs.meta["beta0"]) + g.standard_normal(n)
            assert obs.responses.tobytes() == expected.tobytes()

    def test_deterministic(self):
        a = simulate_linear(50, 3, seed=4)
        b = simulate_linear(50, 3, seed=4)
        assert np.array_equal(a.responses, b.responses)
        assert np.array_equal(a.design, b.design)


class TestSimulateUnivariate:
    def test_poisson_mean(self):
        obs = simulate_univariate("poisson", 3.0, 10000, seed=0)
        assert abs(obs.responses.mean() - 3.0) < 3 * np.sqrt(3.0 / 10000)

    def test_degenerate_bernoulli(self):
        obs = simulate_univariate("bernoulli", 0.0, 100, seed=1)
        assert np.all(obs.responses == 0.0)

    def test_exponential_rate(self):
        obs = simulate_univariate("exponential", 2.0, 40000, seed=2)
        se = 0.5 / np.sqrt(40000)
        assert abs(obs.responses.mean() - 0.5) < 3 * se

    def test_unsupported_family(self):
        with pytest.raises(ConfigError):
            simulate_univariate("cauchy", 0.0, 10, seed=0)


class TestLoadCsv:
    def test_response_only(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y\n1\n2\n3\n", encoding="utf-8")
        obs = load_csv(path)
        assert obs.n == 3 and obs.p == 0
        assert obs.responses.tolist() == [1.0, 2.0, 3.0]

    def test_with_design(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,x1,x2\n1,-1,1\n0.5,1,-1\n", encoding="utf-8")
        obs = load_csv(path)
        assert obs.n == 2 and obs.p == 2
        assert obs.design[1].tolist() == [1.0, -1.0]

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        for reader, header in READERS:
            path.write_text(f"{header}\n0.5,abc\n", encoding="utf-8")
            with pytest.raises(DataError, match="line 2: non-numeric value 'abc'"):
                reader(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        for reader, header in READERS:
            path.write_text(f"{header}\n0.25,2\n0.75\n", encoding="utf-8")
            with pytest.raises(DataError, match="line 3: expected 2 fields, got 1"):
                reader(path)

    def test_missing_y(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("z\n1\n", encoding="utf-8")
        with pytest.raises(DataError, match="'y'"):
            load_csv(path)

    def test_non_finite(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y\nnan\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_csv(path)
        for reader, header in READERS:
            for cell in ("nan", "inf", "-inf"):
                path.write_text(f"{header}\n0.25,1\n0.5,{cell}\n", encoding="utf-8")
                with pytest.raises(DataError, match="line 3: non-finite value"):
                    reader(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "nope.csv")

    def test_round_trip(self, tmp_path):
        obs = simulate_linear(20, 3, seed=5)
        path = tmp_path / "round.csv"
        write_observations(obs, path)
        back = load_csv(path)
        assert np.array_equal(back.responses, obs.responses)
        assert np.array_equal(back.design, obs.design)


class TestTableAndDrawFiles:
    def test_quantile_table_round_trip(self, tmp_path):
        table = quantile_table(np.random.default_rng(0).standard_normal(100),
                               default_grid(99))
        path = tmp_path / "table.csv"
        write_quantile_table(table, path)
        back = read_quantile_table(path)
        assert np.array_equal(back.grid, table.grid)
        assert np.array_equal(back.values, table.values)

    def test_draws_round_trip(self, tmp_path):
        values = np.random.default_rng(1).standard_normal((17, 3))
        path = tmp_path / "draws.csv"
        write_draws(values, path)
        assert np.array_equal(read_draws(path), values)

    def test_bad_table_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n0.5,0\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_quantile_table(path)


class TestExactText:
    """Written bytes equal ``csv.writer`` output with ``repr(float(v))`` cells."""

    def test_observations(self, tmp_path):
        path = tmp_path / "obs.csv"
        write_observations(ObservationSet(SPECIAL), path)
        assert path.read_text(encoding="utf-8") == reference_csv(
            ["y"], [[v] for v in SPECIAL])
        design = np.array([SPECIAL[::-1], SPECIAL[3:] + SPECIAL[:3]]).T
        write_observations(ObservationSet(SPECIAL, design), path)
        assert path.read_text(encoding="utf-8") == reference_csv(
            ["y", "x1", "x2"], zip(SPECIAL, *design.T))

    def test_quantile_table(self, tmp_path):
        grid = [5e-324, 2.2250738585072014e-308, 1.5e-7, 0.1, 1 / 3, 0.5, 0.7,
                0.9, 0.9999999999999999]
        table = QuantileTable(grid, SPECIAL)
        path = tmp_path / "table.csv"
        write_quantile_table(table, path)
        assert path.read_text(encoding="utf-8") == reference_csv(
            ["u", "value"], zip(grid, SPECIAL))

    def test_draws(self, tmp_path):
        values = np.array(SPECIAL).reshape(3, 3)
        path = tmp_path / "draws.csv"
        write_draws(values, path)
        assert path.read_text(encoding="utf-8") == reference_csv(
            ["theta1", "theta2", "theta3"], values)
        write_draws(np.array(SPECIAL), path)
        assert path.read_text(encoding="utf-8") == reference_csv(
            [f"theta{i}" for i in range(1, 10)], [SPECIAL])

    def test_many_blocks(self, tmp_path):
        obs = simulate_linear(10_000, 2, seed=6)
        path = tmp_path / "obs.csv"
        write_observations(obs, path)
        # compared as lines: a failed compare of 10^4-line strings takes minutes
        expected = reference_csv(["y", "x1", "x2"], zip(obs.responses, *obs.design.T))
        assert (path.read_text(encoding="utf-8").splitlines(keepends=True)
                == expected.splitlines(keepends=True))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from pie.data import _parse_body, _read_table, format_numbers
from oracles import SPECIAL_FLOATS as SPECIAL, reference_csv, reference_read_table

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

    def test_sizes(self):
        for n, p in ((0, 3), (5, 0)):
            with pytest.raises(ConfigError, match="n and p must be >= 1"):
                simulate_linear(n, p, seed=0)


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

    def test_poisson_rate_limit_is_numpys(self, monkeypatch):
        from pie.families import PoissonGamma, _GammaRate

        limit = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10
        assert simulate_univariate("poisson", limit, 3, seed=0).n == 3
        above = float(np.nextafter(limit, np.inf))
        with pytest.raises(ConfigError, match="too large for numpy"):
            simulate_univariate("poisson", above, 3, seed=0)
        # numpy refuses the same rate, and a refusal the family check misses is
        # still relayed as a config error
        monkeypatch.setattr(PoissonGamma, "check_theta0", _GammaRate.check_theta0)
        with pytest.raises(ConfigError, match="cannot simulate poisson data"):
            simulate_univariate("poisson", above, 3, seed=0)


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

    def test_duplicate_column(self, tmp_path):
        path = tmp_path / "dup.csv"
        for header, name in (("y,y", "y"), ("y,x1,y", "y"), ("y,x1,x1", "x1")):
            row = ",".join(["1"] * header.count(","))
            path.write_text(f"{header}\n0.5,{row}\n", encoding="utf-8")
            with pytest.raises(DataError, match=f"column '{name}' appears twice") as exc:
                load_csv(path)
            assert str(path) in str(exc.value) and exc.value.exit_code == 3

    def test_round_trip(self, tmp_path):
        obs = simulate_linear(20, 3, seed=5)
        path = tmp_path / "round.csv"
        write_observations(obs, path)
        back = load_csv(path)
        assert np.array_equal(back.responses, obs.responses)
        assert np.array_equal(back.design, obs.design)


# cells the one-pass parse refuses: the row loop reads some (quotes, underscores,
# Unicode digits) and rejects the rest with the line's number
REFUSED_CELLS = ["", " ", '"1"', '"1,2"', '"', "1_0", "1_5", "nan", "inf", "-inf", "1e999",
                 "-1e999", "Infinity", "abc", "\x0c", "\u0661\u0662", "0x10", "#1", "1 2"]
# and cells both paths read, to the same float
EDGE_CELLS = REFUSED_CELLS + [" 1.5 ", "\u20032", "1e5 ", "+1", ".5", "1.", "\t-0.0"]
LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r", "\x0c", "\x85", "\u2028"]
finite_text = st.floats(allow_nan=False, allow_infinity=False).map(repr)
cell_text = st.one_of(finite_text, finite_text, finite_text, st.sampled_from(SPECIAL).map(repr),
                      st.sampled_from(EDGE_CELLS))


@st.composite
def csv_texts(draw, header: list):
    """A CSV text under ``header``: mostly full rows of finite floats, mixed
    with edge cells, ragged and blank rows and every line end splitlines knows."""
    full = st.lists(cell_text, min_size=len(header), max_size=len(header))
    rows = draw(st.lists(st.one_of(full, full, full, st.lists(cell_text, max_size=3)),
                         max_size=6))
    lines = [",".join(header), *map(",".join, rows)]
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text[:-len(ends[-1])]


def read_outcome(reader, path, *args):
    """What a reader makes of a file: its header, labels and value bits, or
    its error's type and message."""
    try:
        _, header, labels, values = reader(path, *args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc).__name__, str(exc)
    return header, labels, values.shape, values.view(np.uint64).tolist()


class TestReaderMatchesRowLoop:
    """``_read_table`` returns what the ``csv.reader`` row loop returns, bit
    for bit, and raises the same message for every file it rejects."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("reader") / "table.csv"

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(),
           header=st.lists(st.sampled_from(["y", "x1", "u", "value", " y ", '"y"', ""]),
                           min_size=1, max_size=3),
           text_columns=st.integers(0, 1), expect=st.booleans())
    def test_random_files(self, path, data, header, text_columns, expect):
        text_columns = min(text_columns, len(header) - 1)
        path.write_bytes(data.draw(csv_texts(header)).encode("utf-8"))
        args = (header if expect else None, text_columns)
        assert (read_outcome(_read_table, path, *args)
                == read_outcome(reference_read_table, path, *args))

    @pytest.mark.parametrize("text", [
        "y\n\n", "y,x1\n", "y\n", "y", "", "\n", "\n\n", "y\n1\n\n", "y\n\n1\n",
        "y\n1\n \n", "y\n1\n2\n\n\n", 'y\n"1"\n', "y\n1_5\n", "y,x1\r\n1,2\r\n",
        "y,x1\r1,2\r3,4", "y\n1\x0c2\n", "y\n\x0c\n", "y,x1\n1,2\n3\n", "y,x1\n1,\n",
        "y\nnan\n", "y\n1e999\n", "y\n\u0661\n", 'y,x1\n"1\n2",3\n', "\ufeffy\n1\n",
    ])
    def test_edge_files(self, path, text):
        path.write_bytes(text.encode("utf-8"))
        for args in [(None, 0), (None, 1), (["y"], 0), (["y", "x1"], 0), (["y", "x1"], 1)]:
            assert (read_outcome(_read_table, path, *args)
                    == read_outcome(reference_read_table, path, *args)), args

    def test_one_pass_takes_well_formed_files(self, tmp_path):
        path = tmp_path / "obs.csv"
        write_observations(simulate_linear(50, 3, seed=2), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert _parse_body(lines[1:], 4).shape == (50, 4)
        for cell in REFUSED_CELLS:
            assert _parse_body(["1", cell], 1) is None, cell

    def test_round_trip_of_random_bit_patterns(self, tmp_path):
        bits = np.random.default_rng(8).integers(0, 2 ** 64, size=12_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)][:10_000].reshape(2_000, 5)
        path = tmp_path / "obs.csv"
        write_observations(ObservationSet(values[:, 0], values[:, 1:]), path)
        back = load_csv(path)
        assert np.array_equal(back.responses.view(np.uint64), values[:, 0].view(np.uint64))
        assert np.array_equal(back.design.view(np.uint64), values[:, 1:].view(np.uint64))


def reference_format_numbers(column) -> list:
    """The formatter as one ``repr`` per Python float."""
    return list(map(repr, np.asarray(column, dtype=float).tolist()))


def nextafters(x: float) -> list:
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


class TestFormatNumbers:
    """``format_numbers`` writes ``repr`` of every float, including the values
    ``repr`` writes in exponent form and the non-finite ones."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(allow_subnormal=True), max_size=50))
    def test_random_floats(self, values):
        assert format_numbers(np.array(values)) == reference_format_numbers(values)

    def test_edges(self):
        big = np.finfo(float).max
        values = [0.0, 5e-324, big, 2.0 ** 49 + 0.125, *nextafters(1e-4), *nextafters(1e16),
                  np.nan, np.inf]
        values = np.array(values + [-v for v in values])
        assert format_numbers(values) == reference_format_numbers(values)

    def test_random_bit_patterns_and_ties(self):
        g = np.random.default_rng(4)
        bits = g.integers(0, 2 ** 64, size=20_000, dtype=np.uint64)
        # integers, and values in [5e14, 1e16) where shortest digits can tie
        values = np.concatenate([bits.view(np.float64), g.integers(-10 ** 6, 10 ** 6, 5_000),
                                 g.uniform(5e14, 1e16, 5_000), g.uniform(-1e-3, 1e-3, 5_000)])
        assert format_numbers(values) == reference_format_numbers(values)

    def test_empty_strided_and_read_only_columns(self):
        assert format_numbers(np.array([])) == []
        design = np.random.default_rng(5).standard_normal((40, 3)) * 1e-3
        for column in (*design.T, design[::3, 1], design.ravel()[::-2]):
            assert not column.flags.c_contiguous
            assert format_numbers(column) == reference_format_numbers(column)
        design.flags.writeable = False
        assert format_numbers(design[:, 0]) == reference_format_numbers(design[:, 0])
        assert format_numbers(design.ravel()) == reference_format_numbers(design.ravel())


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

"""Panel store: loading, validation, descriptive stats."""
import tracemalloc

import numpy as np
import pytest

from rkpf.errors import (
    DuplicateRow,
    MissingColumn,
    MissingData,
    NonConsecutiveYears,
    NonNumericCell,
    UnknownVariable,
)
from rkpf.panel import (
    PanelDataset,
    descriptive_stats,
    load_panel_csv,
    validate_balanced,
    write_panel_csv,
)


def make_panel(regions, years, **variables):
    n, t = len(regions), len(years)
    return PanelDataset(
        tuple(regions),
        tuple(years),
        {k: np.asarray(v, dtype=float).reshape(n, t) for k, v in variables.items()},
    )


@pytest.fixture
def toy():
    return make_panel(
        ["A", "B", "C"],
        [2009, 2010],
        x=[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
    )


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadPanelCsv:
    def test_round_trip(self, tmp_path, toy):
        path = tmp_path / "panel.csv"
        write_panel_csv(toy, path)
        loaded = load_panel_csv(path)
        assert loaded.region_ids == toy.region_ids
        assert loaded.years == toy.years
        np.testing.assert_array_equal(loaded.var("x"), toy.var("x"))

    def test_full_scale_panel_has_936_observations(self, tmp_path):
        # 78 regions x 12 years, the headline panel size
        lines = ["region,year,v"]
        for i in range(78):
            for year in range(2009, 2021):
                lines.append(f"R{i:02d},{year},{i + year}")
        path = write_csv(tmp_path / "big.csv", "\n".join(lines) + "\n")
        d = load_panel_csv(path)
        assert d.n_obs == 936
        assert d.n_regions == 78 and d.n_years == 12
        assert validate_balanced(d).passed

    def test_header_only_is_missing_data(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", "region,year,v\n")
        with pytest.raises(MissingData):
            load_panel_csv(path)

    def test_missing_required_column(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "region,v\nA,1\n")
        with pytest.raises(MissingColumn):
            load_panel_csv(path)

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = write_csv(tmp_path / "nn.csv", "region,year,v\nA,2009,oops\n")
        with pytest.raises(NonNumericCell, match="v"):
            load_panel_csv(path)

    def test_duplicate_row(self, tmp_path):
        path = write_csv(
            tmp_path / "dup.csv", "region,year,v\nA,2009,1\nA,2009,2\n"
        )
        with pytest.raises(DuplicateRow):
            load_panel_csv(path)

    def test_gap_loads_but_fails_validation(self, tmp_path):
        path = write_csv(
            tmp_path / "gap.csv",
            "region,year,v\nA,2009,1\nA,2010,2\nB,2009,3\n",
        )
        d = load_panel_csv(path)
        report = validate_balanced(d)
        assert not report.passed
        assert ("B", 2010, "v") in report.gaps

    def test_rows_sorted_by_region_year(self, tmp_path):
        path = write_csv(
            tmp_path / "shuffled.csv",
            "region,year,v\nB,2010,4\nA,2010,2\nB,2009,3\nA,2009,1\n",
        )
        d = load_panel_csv(path)
        assert d.region_ids == ("A", "B")
        np.testing.assert_array_equal(d.var("v"), [[1, 2], [3, 4]])


    def test_the_text_is_parsed_holding_its_values_about_twice(self, tmp_path):
        """load_panel_csv parses the text by blocks of rows and keeps, of each row, its
        codes and line beside the block's numbers; the table is then filled block by
        block. tracemalloc's peak stays under 2.5 times the values, the bound the panel
        sidecar's writer is held to, where one parse of the whole text, with a label
        tuple and a (region, year) key per row, reached 7."""
        rng = np.random.default_rng(1)
        n, t = 1000, 20
        values = rng.standard_normal((10, n, t))
        regions = tuple(f"R{i:04d}" for i in rng.permutation(n))
        write_panel_csv(PanelDataset(regions, tuple(range(2000, 2000 + t)),
                                     {f"v{j}": v for j, v in enumerate(values)}),
                        tmp_path / "panel.csv")
        load_panel_csv(tmp_path / "panel.csv")  # first-call caches out of the measurement
        tracemalloc.start()
        try:
            d = load_panel_csv(tmp_path / "panel.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * values.nbytes
        order = np.argsort(regions)
        assert all(np.array_equal(d.var(f"v{j}"), v[order]) for j, v in enumerate(values))


class TestPanelInvariants:
    def test_year_gaps_rejected(self):
        with pytest.raises(NonConsecutiveYears):
            make_panel(["A"], [2009, 2011], x=[[1.0, 2.0]])

    def test_duplicate_regions_rejected(self):
        with pytest.raises(DuplicateRow):
            make_panel(["A", "A"], [2009], x=[[1.0], [2.0]])

    def test_immutability(self, toy):
        with pytest.raises(ValueError):
            toy.var("x")[0, 0] = 99.0

    def test_with_variable_returns_new_dataset(self, toy):
        out = toy.with_variable("y", 2 * toy.var("x"))
        assert "y" not in toy.variables
        np.testing.assert_array_equal(out.var("y"), [[2.0, 4.0], [6.0, 8.0], [10.0, 12.0]])


class TestValidateBalanced:
    def test_complete_toy_passes(self, toy):
        assert validate_balanced(toy).passed

    def test_gap_listed(self):
        values = np.array([[1.0, 2.0], [3.0, np.nan]])
        d = make_panel(["A", "B"], [2009, 2010], x=values)
        report = validate_balanced(d)
        assert not report.passed
        assert report.gaps == (("B", 2010, "x"),)


# ---------------------------------------------------------------------------
# descriptive stats
# ---------------------------------------------------------------------------


class TestDescriptiveStats:
    def test_simple_series(self):
        d = make_panel(["A"], range(2009, 2014), x=[[1.0, 2.0, 3.0, 4.0, 5.0]])
        stats = descriptive_stats(d, ["x"])["x"]
        assert stats == {
            "min": 1.0,
            "q1": 2.0,
            "median": 3.0,
            "mean": 3.0,
            "q3": 4.0,
            "max": 5.0,
        }

    def test_constant_series(self):
        d = make_panel(["A", "B"], [2009, 2010], x=[[7.0, 7.0], [7.0, 7.0]])
        stats = descriptive_stats(d, ["x"])["x"]
        assert set(stats.values()) == {7.0}

    def test_mean_matches_naive_summation_oracle(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(-5, 5, size=(6, 7))
        d = make_panel([f"R{i}" for i in range(6)], range(2009, 2016), x=values)
        stats = descriptive_stats(d, ["x"])["x"]
        total = 0.0
        count = 0
        for row in values:
            for v in row:
                total += v
                count += 1
        assert abs(stats["mean"] - total / count) < 1e-10

    def test_quartiles_linear_interpolation(self):
        d = make_panel(["A"], [2009, 2010, 2011, 2012], x=[[1.0, 2.0, 3.0, 10.0]])
        stats = descriptive_stats(d, ["x"])["x"]
        # positions 0.75 and 2.25 under linear interpolation
        assert stats["q1"] == pytest.approx(1.75)
        assert stats["q3"] == pytest.approx(4.75)

    def test_unknown_variable(self, toy):
        with pytest.raises(UnknownVariable):
            descriptive_stats(toy, ["nope"])


def _percentile_samples():
    rng = np.random.default_rng(25)
    yield "n1", np.array([3.5])
    yield "n2", np.array([2.0, -1.0])
    yield "n3", np.array([0.1, 0.7, 0.2])
    yield "ties", np.array([1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 9.0])
    yield "all-equal", np.full(11, 0.3)
    yield "infinite", np.array([1.0, 2.0, np.inf])
    for i in range(100):
        n = int(rng.integers(1, 40 if i % 2 else 5000))
        values = rng.standard_cauchy(n) if i % 3 else rng.integers(-3, 4, n).astype(float)
        yield f"random-{i}-{n}", values * 10.0 ** int(rng.integers(-8, 9))


@pytest.mark.parametrize(
    "values", [v for _, v in _percentile_samples()], ids=[i for i, _ in _percentile_samples()]
)
def test_quartiles_are_the_bits_of_np_percentile(values):
    d = make_panel(["A"], range(len(values)), x=values[np.newaxis, :])
    stats = descriptive_stats(d, ["x"])["x"]
    got = np.array([stats["q1"], stats["median"], stats["q3"]])
    with np.errstate(invalid="ignore"):  # inf - inf, in numpy's interpolation as in ours
        want = np.array([np.percentile(values, q) for q in (25, 50, 75)])
    assert got.tobytes() == want.tobytes()
    assert (stats["min"], stats["max"]) == (values.min(), values.max())

"""Panel store: loading, validation, transforms, descriptive stats."""
import math

import numpy as np
import pytest

from rkpf.errors import (
    DuplicateRow,
    InsufficientHistory,
    InsufficientLead,
    MissingColumn,
    MissingData,
    NonConsecutiveYears,
    NonNumericCell,
    NonPositiveIndex,
    NonPositiveValue,
    UnknownVariable,
)
from rkpf.panel import (
    PanelDataset,
    apply_log,
    deflate,
    descriptive_stats,
    lead_shift,
    load_panel_csv,
    validate_balanced,
    weighted_trailing_average,
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

    def test_schema_mismatch(self, tmp_path):
        path = write_csv(tmp_path / "s.csv", "region,year,v\nA,2009,1\n")
        with pytest.raises(MissingColumn):
            load_panel_csv(path, schema=["v", "w"])

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

    def test_transforms_return_new_dataset(self, toy):
        out = apply_log(toy, "x", "log(x)")
        assert "log(x)" not in toy.variables
        assert "log(x)" in out.variables


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
# deflate
# ---------------------------------------------------------------------------


class TestDeflate:
    def test_one_year_after_base(self):
        d = make_panel(["A"], [2010, 2011], nominal=[[100.0, 125.0]])
        out = deflate(d, "nominal", {2011: 1.25}, 2010, "real")
        assert out.var("real")[0, 1] == pytest.approx(100.0)

    def test_base_year_unchanged(self):
        d = make_panel(["A"], [2010, 2011], nominal=[[100.0, 125.0]])
        out = deflate(d, "nominal", {2011: 1.25}, 2010, "real")
        assert out.var("real")[0, 0] == pytest.approx(100.0)

    def test_two_years_chained(self):
        # hand-chained: deflator(2012) = 1.10 * 1.10 = 1.21
        d = make_panel(["A"], [2010, 2011, 2012], nominal=[[100.0, 110.0, 132.0]])
        out = deflate(d, "nominal", {2011: 1.10, 2012: 1.10}, 2010, "real")
        assert out.var("real")[0, 2] == pytest.approx(132.0 / 1.21)
        assert out.var("real")[0, 2] == pytest.approx(109.090909090909, rel=1e-10)

    def test_years_before_base_are_inflated(self):
        d = make_panel(["A"], [2010, 2011], nominal=[[100.0, 125.0]])
        out = deflate(d, "nominal", {2011: 1.25}, 2011, "real")
        # 2010 deflator is 1/1.25
        assert out.var("real")[0, 0] == pytest.approx(125.0)
        assert out.var("real")[0, 1] == pytest.approx(125.0)

    def test_non_positive_index(self):
        d = make_panel(["A"], [2010, 2011], nominal=[[1.0, 1.0]])
        with pytest.raises(NonPositiveIndex):
            deflate(d, "nominal", {2011: -1.0}, 2010, "real")

    def test_round_trip_recovers_nominal(self):
        rng = np.random.default_rng(3)
        years = list(range(2009, 2016))
        nominal = rng.uniform(50, 150, size=(4, len(years)))
        cpi = {y: rng.uniform(0.95, 1.2) for y in years[1:]}
        d = make_panel(["A", "B", "C", "D"], years, nominal=nominal)
        out = deflate(d, "nominal", cpi, 2012, "real")
        # chain products written out: prod of cpi over (2012, y] after the
        # base year, its reciprocal over (y, 2012] before it
        deflator = [
            math.prod(cpi[z] for z in range(2013, y + 1))
            if y >= 2012
            else 1.0 / math.prod(cpi[z] for z in range(y + 1, 2013))
            for y in years
        ]
        recovered = out.var("real") * np.asarray(deflator)[np.newaxis, :]
        assert np.max(np.abs(recovered - nominal) / np.abs(nominal)) < 1e-12


# ---------------------------------------------------------------------------
# weighted trailing average
# ---------------------------------------------------------------------------


class TestWeightedTrailingAverage:
    def test_three_year_window(self):
        d = make_panel(["A"], [2007, 2008, 2009], x=[[0.03, 0.06, 0.09]])
        out = weighted_trailing_average(d, "x", [1, 2, 3], "avg")
        assert out.years == (2009,)
        assert out.var("avg")[0, 0] == pytest.approx(0.07)

    def test_constant_series_is_identity(self):
        d = make_panel(["A"], [2007, 2008, 2009, 2010], x=[[5.0] * 4])
        out = weighted_trailing_average(d, "x", [1, 2, 3], "avg")
        np.testing.assert_allclose(out.var("avg"), 5.0)

    def test_impulse_series(self):
        # oldest year weighted 1 of 6
        d = make_panel(["A"], [2007, 2008, 2009], x=[[1.0, 0.0, 0.0]])
        out = weighted_trailing_average(d, "x", [1, 2, 3], "avg")
        assert out.var("avg")[0, 0] == pytest.approx(1.0 / 6.0)

    def test_length_one_weights_identity(self):
        d = make_panel(["A", "B"], [2009, 2010], x=[[1.0, 2.0], [3.0, 4.0]])
        out = weighted_trailing_average(d, "x", [2.5], "avg")
        np.testing.assert_allclose(out.var("avg"), d.var("x"))
        assert out.years == d.years

    def test_other_variables_sliced_to_output_span(self):
        d = make_panel(
            ["A"], [2007, 2008, 2009], x=[[1.0, 2.0, 3.0]], y=[[7.0, 8.0, 9.0]]
        )
        out = weighted_trailing_average(d, "x", [1, 1], "avg")
        assert out.years == (2008, 2009)
        np.testing.assert_array_equal(out.var("y"), [[8.0, 9.0]])

    def test_insufficient_history_names_first_year(self):
        d = make_panel(["A"], [2009, 2010], x=[[1.0, 2.0]])
        with pytest.raises(InsufficientHistory, match="2011"):
            weighted_trailing_average(d, "x", [1, 2, 3], "avg")


# ---------------------------------------------------------------------------
# lead shift
# ---------------------------------------------------------------------------


class TestLeadShift:
    def test_one_period_lead_alignment(self):
        # dependent observed 2010-2021, regressors 2009-2020: 12 aligned years
        years = list(range(2009, 2022))  # 13 raw years
        n_years = len(years)
        y = np.full((2, n_years), np.nan)
        y[:, 1:] = np.arange(1, n_years)[np.newaxis, :]  # observed 2010-2021
        x = np.ones((2, n_years))
        x[:, -1] = np.nan  # regressor observed 2009-2020
        d = make_panel(["A", "B"], years, y=y, x=x)
        out = lead_shift(d, "y", 1, "y_lead")
        assert out.years == tuple(range(2009, 2021))
        assert out.n_years == 12
        np.testing.assert_array_equal(out.var("y_lead")[0], np.arange(1, 13))
        assert not np.isnan(out.var("x")).any()

    def test_zero_periods_identity(self, toy):
        out = lead_shift(toy, "x", 0, "x_lead")
        np.testing.assert_array_equal(out.var("x_lead"), toy.var("x"))
        assert out.years == toy.years

    def test_missing_lead_year_raises(self):
        years = list(range(2009, 2021))
        y = np.ones((1, len(years)))
        y[0, -1] = np.nan  # observed 2009-2019 only
        d = make_panel(["A"], years, y=y)
        with pytest.raises(InsufficientLead):
            lead_shift(d, "y", 1, "y_lead")

    def test_shift_exceeding_span_raises(self, toy):
        with pytest.raises(InsufficientLead):
            lead_shift(toy, "x", 2, "x_lead")

    def test_composition_equals_combined_shift(self):
        rng = np.random.default_rng(8)
        years = list(range(2009, 2017))
        d = make_panel(["A", "B"], years, y=rng.normal(size=(2, len(years))))
        once = lead_shift(lead_shift(d, "y", 1, "y1"), "y1", 2, "y12")
        combined = lead_shift(d, "y", 3, "y3")
        np.testing.assert_allclose(once.var("y12"), combined.var("y3"))
        assert once.years == combined.years


# ---------------------------------------------------------------------------
# logs
# ---------------------------------------------------------------------------


class TestApplyLog:
    def test_e_maps_to_one(self):
        d = make_panel(["A"], [2009], x=[[math.e]])
        assert apply_log(d, "x", "lx").var("lx")[0, 0] == pytest.approx(1.0)

    def test_one_maps_to_zero(self):
        d = make_panel(["A"], [2009], x=[[1.0]])
        assert apply_log(d, "x", "lx").var("lx")[0, 0] == 0.0

    def test_zero_is_hard_error(self):
        d = make_panel(["A", "B"], [2009], x=[[1.0], [0.0]])
        with pytest.raises(NonPositiveValue, match="B"):
            apply_log(d, "x", "lx")

    def test_log_exp_round_trip(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(3, 4))
        d = make_panel(["A", "B", "C"], range(2009, 2013), x=np.exp(values))
        out = apply_log(d, "x", "lx")
        assert np.max(np.abs(out.var("lx") - values)) < 1e-12


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

"""Notation expansion, suite runs, table rendering, vertex arithmetic."""
import csv
import io

import numpy as np
import pytest

from rkpf.errors import DualErrorsNeedRobust, InvalidTag, NoInteriorMaximum
from rkpf.simulate import DgpConfig, generate_panel
from rkpf.suite import (
    CONTROLS,
    MAIN_TAGS,
    SuiteNotation,
    expand_notation,
    render_table,
    run_suite,
    vertex_of_quadratic,
)


@pytest.fixture(scope="module")
def small_world():
    return generate_panel(DgpConfig(n_regions=15, n_years=6, seed=123))


class TestNotationValidation:
    @pytest.mark.parametrize(
        "tag",
        [
            "",
            "q",  # no ols/fe
            "ols.fe.q",  # both
            "fe.q",  # fe without ow/tw
            "fe.ow.tw",  # both ow and tw
            "ols.tw",  # tw without fe
            "fe.tw.q.non.noq",  # non and noq together
            "fe.tw.sl",  # sl without q
            "fe.tw.non",  # non without q
            "fe.tw.q.q",  # repeated token
            "fe.tw.quality",  # unknown token
            "fe..tw",  # empty token
        ],
    )
    def test_invalid_tags(self, tag):
        with pytest.raises(InvalidTag):
            SuiteNotation.parse(tag)

    @pytest.mark.parametrize("tag", list(MAIN_TAGS) + ["fe.tw.q.sl.a", "ols.q.a", "fe.ow.q.a"])
    def test_valid_tags(self, tag):
        assert SuiteNotation.parse(tag).tag == tag

    def test_token_order_free(self):
        a = expand_notation("fe.tw.q.sl.non")
        b = expand_notation("non.sl.q.tw.fe")
        assert a == b


class TestExpandNotation:
    def labels(self, tag):
        return [t.label for t in expand_notation(tag).regressors]

    def test_full_main_model(self):
        spec = expand_notation("fe.tw.q.sl")
        assert self.labels("fe.tw.q.sl") == [
            "log(EXPEMP10)",
            "log(GRPCAP10)",
            "log(PAPEMP)",
            "FWCI",
            "FWCI^2",
            "Q1SH",
            "NQSH",
            "slFWCI",
            "slQ1SH",
            "slNQSH",
        ]
        assert spec.region_effects and spec.time_dummies and not spec.intercept
        assert spec.dependent == "log(PUB21EMP)"

    def test_controls_only(self):
        spec = expand_notation("fe.tw")
        assert self.labels("fe.tw") == list(CONTROLS)
        assert spec.time_dummies

    def test_one_way(self):
        spec = expand_notation("fe.ow.q")
        assert spec.region_effects and not spec.time_dummies and not spec.intercept

    def test_pooled(self):
        spec = expand_notation("ols.q")
        assert spec.intercept and not spec.region_effects and not spec.time_dummies

    def test_non_drops_nqsh_and_its_lag(self):
        labels = self.labels("fe.tw.q.sl.non")
        assert "Q1SH" in labels and "slQ1SH" in labels
        assert "NQSH" not in labels and "slNQSH" not in labels

    def test_noq_drops_q1sh_and_its_lag(self):
        labels = self.labels("fe.tw.q.sl.noq")
        assert "NQSH" in labels and "slNQSH" in labels
        assert "Q1SH" not in labels and "slQ1SH" not in labels

    def test_articles_and_reviews_suffix(self):
        spec = expand_notation("fe.tw.q.sl.a")
        labels = [t.label for t in spec.regressors]
        assert spec.dependent == "log(PUB21EMPA)"
        assert "FWCIA" in labels and "slNQSHA" in labels
        # controls keep their names in the auxiliary variable set
        for control in CONTROLS:
            assert control in labels

    def test_deterministic(self):
        assert expand_notation("fe.tw.q.sl") == expand_notation("fe.tw.q.sl")


class TestRunSuite:
    def test_seven_columns(self, small_world):
        table = run_suite(small_world.dataset, small_world.weights, MAIN_TAGS)
        assert table.tags == MAIN_TAGS
        assert len(table.fits) == 7
        assert all(f.n_obs == 15 * 6 for f in table.fits)

    def test_single_tag(self, small_world):
        table = run_suite(small_world.dataset, small_world.weights, ["fe.tw"])
        assert table.tags == ("fe.tw",)

    def test_invalid_tag_rejected_before_estimation(self):
        # dataset lacks every model variable, so estimation would raise
        # UnknownVariable; the InvalidTag must win because validation
        # precedes any fit
        from rkpf.panel import PanelDataset

        empty = PanelDataset(("A", "B", "C"), (2009, 2010, 2011), {"z": np.zeros((3, 3))})
        with pytest.raises(InvalidTag):
            run_suite(empty, None, ["fe.tw", "bogus.tag"])

    def test_empty_tag_list(self, small_world):
        with pytest.raises(InvalidTag):
            run_suite(small_world.dataset, small_world.weights, [])

    def test_row_order(self, small_world):
        table = run_suite(small_world.dataset, small_world.weights, MAIN_TAGS)
        rows = list(table.row_labels)
        assert rows[:3] == list(CONTROLS)
        assert rows[3:7] == ["FWCI", "FWCI^2", "Q1SH", "NQSH"]
        assert rows[7:10] == ["slFWCI", "slQ1SH", "slNQSH"]
        assert rows[-1] == "const"
        year_rows = [r for r in rows if r.startswith("year_")]
        assert year_rows == sorted(year_rows)

    def test_blank_cells_match_spec_pattern(self, small_world):
        table = run_suite(small_world.dataset, small_world.weights, MAIN_TAGS)
        col = {tag: i for i, tag in enumerate(MAIN_TAGS)}
        assert table.cell("NQSH", col["fe.tw.q.sl.non"]) is None
        assert table.cell("slNQSH", col["fe.tw.q.sl.non"]) is None
        assert table.cell("Q1SH", col["fe.tw.q.sl.noq"]) is None
        assert table.cell("FWCI", col["fe.tw"]) is None
        assert table.cell("const", col["ols.q"]) is not None
        assert table.cell("const", col["fe.tw"]) is None

    def test_dual_errors(self, small_world):
        table = run_suite(
            small_world.dataset, small_world.weights, ["fe.tw.q"], dual_errors=True
        )
        entry = table.cell("FWCI", 0)
        assert "std_error_classical" in entry
        assert entry["std_error_classical"] != entry["std_error"]
        classical = run_suite(
            small_world.dataset, small_world.weights, MAIN_TAGS, "classical"
        )
        dual = run_suite(
            small_world.dataset, small_world.weights, MAIN_TAGS, dual_errors=True
        )
        for col in range(len(MAIN_TAGS)):
            for label in dual.row_labels:
                entry = dual.cell(label, col)
                if entry is not None:
                    expected = classical.cell(label, col)["std_error"]
                    assert entry["std_error_classical"] == expected  # bit for bit

    def test_dual_errors_need_robust_covariance(self, small_world):
        with pytest.raises(DualErrorsNeedRobust):
            run_suite(
                small_world.dataset,
                small_world.weights,
                ["fe.tw.q"],
                "classical",
                dual_errors=True,
            )

    def test_exactly_one_fit_per_tag(self, small_world, monkeypatch):
        import rkpf.suite as suite_module

        calls = []
        real_fit = suite_module.fit_model

        def counting_fit(d, spec, w=None):
            calls.append(spec.dependent)
            return real_fit(d, spec, w)

        monkeypatch.setattr(suite_module, "fit_model", counting_fit)
        tags = ["fe.tw", "ols.q", "fe.tw.q"]
        for dual_errors in (False, True):
            calls.clear()
            run_suite(small_world.dataset, small_world.weights, tags, dual_errors=dual_errors)
            assert len(calls) == len(tags)


class TestRenderTable:
    def test_text_has_parenthesized_errors(self, small_world):
        table = run_suite(small_world.dataset, small_world.weights, ["fe.tw.q"])
        text = render_table(table, "text")
        assert "(" in text and "Observations" in text and "AIC" in text
        assert "*p<0.10; **p<0.05; ***p<0.01" in text

    def test_csv_round_trip_at_printed_precision(self, small_world):
        table = run_suite(small_world.dataset, small_world.weights, MAIN_TAGS)
        rendered = render_table(table, "csv")
        reader = csv.DictReader(io.StringIO(rendered))
        checked = 0
        for row in reader:
            if row["term"] in ("Observations", "AIC"):
                continue
            col = table.tags.index(row["spec"])
            entry = table.cell(row["term"], col)
            assert float(row["estimate"]) == round(entry["estimate"], 3)
            assert float(row["std_error"]) == round(entry["std_error"], 3)
            checked += 1
        assert checked > 30

    def test_markdown_shape(self, small_world):
        table = run_suite(small_world.dataset, small_world.weights, ["fe.tw", "fe.tw.q"])
        lines = render_table(table, "md").splitlines()
        assert lines[0].startswith("| term |")
        assert all(l.startswith("|") for l in lines if l and not l.startswith("note"))

    def test_dual_error_two_lines(self, small_world):
        table = run_suite(
            small_world.dataset, small_world.weights, ["fe.tw.q"], dual_errors=True
        )
        text = render_table(table, "text")
        fwci_block = text[text.index("FWCI") :].splitlines()[:3]
        assert fwci_block[1].strip().startswith("(")
        assert fwci_block[2].strip().startswith("(")

    def test_unknown_format(self, small_world):
        table = run_suite(small_world.dataset, small_world.weights, ["fe.tw"])
        with pytest.raises(ValueError):
            render_table(table, "latex")


class TestVertex:
    def test_simple(self):
        assert vertex_of_quadratic(1.0, -1.0) == pytest.approx(0.5)

    def test_main_model_coefficients(self):
        # -0.348 / (2 * -0.049) = 3.551...
        assert vertex_of_quadratic(0.348, -0.049) == pytest.approx(3.551, abs=0.01)

    def test_two_way_coefficients(self):
        assert vertex_of_quadratic(0.346, -0.051) == pytest.approx(3.392, abs=0.01)

    def test_no_interior_maximum(self):
        with pytest.raises(NoInteriorMaximum):
            vertex_of_quadratic(1.0, 0.0)
        with pytest.raises(NoInteriorMaximum):
            vertex_of_quadratic(1.0, 0.3)

    def test_maximum_property(self):
        for b1, b2 in [(0.348, -0.049), (0.346, -0.051), (2.0, -0.5)]:
            v = vertex_of_quadratic(b1, b2)
            f = lambda x: b1 * x + b2 * x * x
            for delta in (1e-3, 0.1, 1.0):
                assert f(v) > f(v + delta)
                assert f(v) > f(v - delta)

"""Command-line surfaces: bundles, exit codes, file outputs."""
import builtins
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import rkpf
from rkpf.cli import main
from rkpf.panel import load_panel_csv, write_panel_csv
from rkpf.simulate import DEFAULT_REGRESSORS, DgpConfig, generate_panel
from rkpf.weights import ThematicProfileMatrix, load_weights_csv, write_profiles_csv


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def panel_csv(tmp_path):
    path = tmp_path / "panel.csv"
    lines = ["region,year,v,w"]
    for region in ("A", "B", "C"):
        for year in (2009, 2010):
            lines.append(f"{region},{year},{hash((region, year)) % 7 + 1},2.0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def padded_pubs(tmp_path):
    """Records whose region names carry the spaces a table cell would lose."""
    pubs = tmp_path / "padded.jsonl"
    rows = [
        {"id": "p1", "year": 2019, "regions": [" R1", "R2"], "subject_areas": ["bio", "math"],
         "citations": 3, "expected_citations": 2.0, "journal_quartile": "Q1"},
        {"id": "p2", "year": 2019, "regions": ["R3 "], "subject_areas": ["math"],
         "citations": 1, "expected_citations": 2.0, "journal_quartile": "Q2"},
        {"id": "p3", "year": 2019, "regions": ["R1", "R2 "], "subject_areas": [" bio"],
         "citations": 0, "expected_citations": 2.0, "journal_quartile": "NONE"},
    ]
    pubs.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return pubs


@pytest.fixture
def model_bundle(tmp_path):
    """Synthetic bundle with weights, ready for fit/suite."""
    g = generate_panel(DgpConfig(n_regions=12, n_years=5, seed=77))
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    write_panel_csv(g.dataset, bundle / "dataset.csv")
    from rkpf.weights import write_weights_csv

    write_weights_csv(g.weights, bundle / "weights.csv")
    return bundle


class TestIngest:
    def test_valid_panel(self, panel_csv, tmp_path):
        out = tmp_path / "bundle"
        assert run("ingest", "--panel", panel_csv, "--output-dir", out) == 0
        assert (out / "dataset.csv").exists()
        assert (out / "manifest.json").exists()
        report = json.loads((out / "validation.json").read_text())
        assert report["passed"] is True

    def test_unbalanced_exits_2_with_gaps(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(
            "region,year,v\nA,2009,1\nA,2010,2\nB,2009,3\n", encoding="utf-8"
        )
        out = tmp_path / "bundle"
        assert run("ingest", "--panel", path, "--output-dir", out) == 2
        report = json.loads((out / "validation.json").read_text())
        assert report["passed"] is False
        assert ["B", 2010, "v"] in report["gaps"]
        assert not (out / "dataset.csv").exists()

    def test_missing_file_exits_2(self, tmp_path):
        assert run("ingest", "--panel", tmp_path / "nope.csv") in (1, 2)

    def test_pubs_merge(self, tmp_path):
        panel = tmp_path / "panel.csv"
        panel.write_text(
            "region,year,v\nA,2019,1\nB,2019,2\n", encoding="utf-8"
        )
        pubs = tmp_path / "pubs.jsonl"
        rows = [
            {"id": "p1", "year": 2019, "regions": ["A"], "subject_areas": ["bio"],
             "citations": 13, "expected_citations": 10.0, "journal_quartile": "Q1"},
            {"id": "p2", "year": 2019, "regions": ["A", "B"], "subject_areas": ["math"],
             "citations": 5, "expected_citations": 10.0, "journal_quartile": "NONE"},
        ]
        pubs.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        out = tmp_path / "bundle"
        assert run("ingest", "--panel", panel, "--pubs", pubs, "--output-dir", out) == 0
        from rkpf.panel import load_panel_csv

        d = load_panel_csv(out / "dataset.csv")
        assert {"PUBS", "FWCI", "Q1SH", "NQSH"} <= set(d.variables)
        a = d.region_ids.index("A")
        assert d.var("PUBS")[a, 0] == 2.0
        assert d.var("FWCI")[a, 0] == pytest.approx((1.3 + 0.5) / 2)
        assert d.var("Q1SH")[a, 0] == pytest.approx(50.0)

    def test_vocab_validates_subject_areas(self, tmp_path):
        panel = tmp_path / "panel.csv"
        panel.write_text("region,year,v\nA,2019,1\n", encoding="utf-8")
        pubs = tmp_path / "pubs.jsonl"
        pubs.write_text(
            json.dumps(
                {"id": "p1", "year": 2019, "regions": ["A"], "subject_areas": ["alchemy"],
                 "citations": 1, "expected_citations": 1.0, "journal_quartile": "Q1"}
            )
            + "\n",
            encoding="utf-8",
        )
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("bio\nmath\n", encoding="utf-8")
        code = run(
            "ingest", "--panel", panel, "--pubs", pubs, "--vocab", vocab,
            "--output-dir", tmp_path / "bundle",
        )
        assert code == 2

    def test_pubs_not_covering_panel_fails_balance(self, tmp_path):
        panel = tmp_path / "panel.csv"
        panel.write_text(
            "region,year,v\nA,2019,1\nB,2019,2\n", encoding="utf-8"
        )
        pubs = tmp_path / "pubs.jsonl"
        pubs.write_text(
            json.dumps(
                {"id": "p1", "year": 2019, "regions": ["A"], "subject_areas": ["bio"],
                 "citations": 1, "expected_citations": 1.0, "journal_quartile": "Q1"}
            )
            + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "bundle"
        assert run("ingest", "--panel", panel, "--pubs", pubs, "--output-dir", out) == 2

    def test_pubs_names_are_stripped_as_table_cells(self, tmp_path, padded_pubs):
        """Records listing " R1" and "R3 " count for the panel's R1 and R3."""
        panel = tmp_path / "panel.csv"
        panel.write_text("region,year,v\nR1,2019,1\nR2,2019,2\nR3,2019,3\n", encoding="utf-8")
        out = tmp_path / "bundle"
        assert run("ingest", "--panel", panel, "--pubs", padded_pubs, "--output-dir", out) == 0
        d = load_panel_csv(out / "dataset.csv")
        assert d.region_ids == ("R1", "R2", "R3")
        np.testing.assert_array_equal(d.var("PUBS")[:, 0], [2.0, 2.0, 1.0])


    @pytest.mark.parametrize("field", ["regions", "subject_areas"])
    def test_pubs_name_with_a_nul_exits_2_writing_no_indicators(self, tmp_path, capsys, field):
        panel = tmp_path / "panel.csv"
        panel.write_text("region,year,v\nR1,2019,1\n", encoding="utf-8")
        record = {"id": "p1", "year": 2019, "regions": ["R1"], "subject_areas": ["bio"],
                  "citations": 1, "expected_citations": 1.0, "journal_quartile": "Q1"}
        pubs = tmp_path / "pubs.jsonl"
        bad = dict(record, id="p2", **{field: [record[field][0] + "\x00"]})
        pubs.write_text(json.dumps(record) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        out = tmp_path / "bundle"
        capsys.readouterr()
        assert run("ingest", "--panel", panel, "--pubs", pubs, "--output-dir", out) == 2
        what = {"regions": "region 'R1\\x00'", "subject_areas": "subject area 'bio\\x00'"}
        assert capsys.readouterr().err == (
            f"error: {pubs}: {what[field]} has surrounding whitespace or a NUL\n"
        )
        assert not (out / "indicators.csv").exists()


class TestWeights:
    def test_padded_pubs_names_agree_in_both_files(self, tmp_path, padded_pubs):
        out = tmp_path / "w"
        assert run("weights", "--pubs", padded_pubs, "--output-dir", out) == 0
        payload = json.loads((out / "weights.json").read_text(encoding="utf-8"))
        assert payload["regions"] == list(load_weights_csv(out / "weights.csv").regions)
        assert payload["regions"] == ["R1", "R2", "R3"]

    def test_region_named_region_exits_2_writing_no_weights(self, tmp_path, capsys):
        profiles = tmp_path / "profiles.csv"
        profiles.write_text("region,s1,s2\nregion,0.7,0.3\nB,0.2,0.8\nC,0.6,0.4\n",
                            encoding="utf-8")
        out = tmp_path / "w"
        capsys.readouterr()
        assert run("weights", "--profiles", profiles, "--output-dir", out) == 2
        assert capsys.readouterr().err == (
            f"error: {out / 'weights.csv'}: header name 'region' appears more than once\n"
        )
        assert list(out.iterdir()) == []

    def test_three_region_profiles(self, tmp_path):
        from rkpf.weights import ThematicProfileMatrix

        m = ThematicProfileMatrix(
            ("A", "B", "C"),
            ("s1", "s2", "s3"),
            np.array([[0.6, 0.3, 0.1], [0.5, 0.4, 0.1], [0.1, 0.2, 0.7]]),
        )
        profiles = tmp_path / "profiles.csv"
        write_profiles_csv(m, profiles)
        out = tmp_path / "w"
        assert run("weights", "--profiles", profiles, "--output-dir", out) == 0
        w = load_weights_csv(out / "weights.csv")
        assert w.w.shape == (3, 3)
        payload = json.loads((out / "weights.json").read_text())
        assert payload["regions"] == ["A", "B", "C"]

    def test_two_identical_regions(self, tmp_path):
        from rkpf.weights import ThematicProfileMatrix

        m = ThematicProfileMatrix(
            ("A", "B"), ("s1", "s2"), np.array([[0.7, 0.3], [0.7, 0.3]])
        )
        profiles = tmp_path / "profiles.csv"
        write_profiles_csv(m, profiles)
        out = tmp_path / "w"
        assert run("weights", "--profiles", profiles, "--output-dir", out) == 0
        w = load_weights_csv(out / "weights.csv")
        np.testing.assert_allclose(w.w, [[0.0, 1.0], [1.0, 0.0]])

    def test_full_scale_row_sums(self, tmp_path):
        g = generate_panel(DgpConfig(seed=21))
        profiles = tmp_path / "profiles.csv"
        write_profiles_csv(g.profiles, profiles)
        out = tmp_path / "w"
        assert run("weights", "--profiles", profiles, "--output-dir", out) == 0
        w = load_weights_csv(out / "weights.csv")
        assert w.w.shape == (78, 78)
        sums = w.w.sum(axis=1)
        for i, s in enumerate(sums):
            assert (i in w.isolated and s == 0) or abs(s - 1) < 1e-9

    def test_no_source_exits_2(self, tmp_path):
        assert run("weights", "--output-dir", tmp_path / "w") == 2

    def test_profiles_reordered_to_bundle(self, model_bundle, tmp_path):
        from rkpf.panel import load_panel_csv
        from rkpf.weights import ThematicProfileMatrix

        dataset = load_panel_csv(model_bundle / "dataset.csv")
        reversed_regions = tuple(reversed(dataset.region_ids))
        rng = np.random.default_rng(1)
        m = ThematicProfileMatrix(
            reversed_regions,
            ("s1", "s2", "s3", "s4"),
            rng.dirichlet(np.ones(4), size=len(reversed_regions)),
        )
        profiles = tmp_path / "profiles.csv"
        write_profiles_csv(m, profiles)
        out = tmp_path / "w"
        assert run(
            "weights", "--profiles", profiles, "--bundle", model_bundle,
            "--output-dir", out,
        ) == 0
        w = load_weights_csv(out / "weights.csv")
        assert w.regions == dataset.region_ids


class TestFit:
    def test_full_spec(self, model_bundle, tmp_path):
        out = tmp_path / "fit"
        code = run(
            "fit",
            "--bundle", model_bundle,
            "--spec", "fe.tw.q.sl",
            "--weights", model_bundle / "weights.csv",
            "--output-dir", out,
        )
        assert code == 0
        payload = json.loads((out / "fit.json").read_text())
        substantive = [
            c["term"] for c in payload["coefficients"] if not c["term"].startswith("year_")
        ]
        assert len(substantive) == 10
        assert payload["metadata"]["covariance"] == "cluster_by_region"
        assert (out / "fit.txt").exists()

    def test_pooled_has_constant(self, model_bundle, tmp_path):
        out = tmp_path / "fit"
        assert run(
            "fit", "--bundle", model_bundle, "--spec", "ols.q", "--output-dir", out
        ) == 0
        payload = json.loads((out / "fit.json").read_text())
        assert any(c["term"] == "const" for c in payload["coefficients"])

    def test_sl_without_weights_exits_2(self, model_bundle, tmp_path, capsys):
        code = run(
            "fit", "--bundle", model_bundle, "--spec", "fe.tw.q.sl",
            "--output-dir", tmp_path / "fit",
        )
        assert code == 2
        assert "weights" in capsys.readouterr().err.lower()

    def test_invalid_tag_exits_2(self, model_bundle, tmp_path):
        assert run(
            "fit", "--bundle", model_bundle, "--spec", "nope.q",
            "--output-dir", tmp_path / "fit",
        ) == 2


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["fit", "--spec", "fe.tw.q.sl"], id="fit"),
        pytest.param(
            ["suite", "--dual-errors"],
            id="suite",
            # run_suite drops the only reference to W that it was passed, which frees
            # W only where the caller holds no copy of its arguments during the call
            marks=pytest.mark.skipif(
                sys.version_info < (3, 11),
                reason="CPython before 3.11 keeps a call's arguments on the caller's stack",
            ),
        ),
    ],
)
def test_weights_are_dropped_before_every_fit(model_bundle, tmp_path, monkeypatch, argv):
    """fit and suite take the spatial lags once and release W before the first QR."""
    import weakref

    import rkpf.cli
    import rkpf.estimation

    loaded = []

    def loading(*args, **kwargs):
        w = load_weights_csv(*args, **kwargs)
        loaded.append((weakref.ref(w), weakref.ref(w.w)))
        return w

    held = []
    ols_fit = rkpf.estimation.ols_fit

    def fitting(*args, **kwargs):
        held.append([ref() is not None for ref in loaded[0]])
        return ols_fit(*args, **kwargs)

    monkeypatch.setattr(rkpf.cli, "load_weights_csv", loading)
    monkeypatch.setattr(rkpf.estimation, "ols_fit", fitting)
    weights = model_bundle / "weights.csv"
    assert run(*argv, "--bundle", model_bundle, "--weights", weights,
               "--output-dir", tmp_path / "out") == 0
    assert len(loaded) == 1
    assert held == [[False, False]] * (1 if argv[0] == "fit" else 7)


class TestSuite:
    def test_default_seven(self, model_bundle, tmp_path):
        out = tmp_path / "suite"
        code = run(
            "suite",
            "--bundle", model_bundle,
            "--weights", model_bundle / "weights.csv",
            "--output-dir", out,
        )
        assert code == 0
        payload = json.loads((out / "suite.json").read_text())
        assert len(payload["columns"]) == 7
        assert (out / "suite.txt").exists()

    def test_formats(self, model_bundle, tmp_path):
        for fmt, name in (("csv", "suite.csv"), ("md", "suite.md")):
            out = tmp_path / f"suite_{fmt}"
            assert run(
                "suite", "--bundle", model_bundle, "--specs", "fe.tw,ols.q",
                "--format", fmt, "--output-dir", out,
            ) == 0
            assert (out / name).exists()

    def test_dual_errors_flag(self, model_bundle, tmp_path):
        out = tmp_path / "suite"
        assert run(
            "suite", "--bundle", model_bundle, "--specs", "fe.tw.q",
            "--dual-errors", "--output-dir", out,
        ) == 0
        payload = json.loads((out / "suite.json").read_text())
        assert payload["dual_errors"] is True
        cell = payload["rows"][3]["cells"][0]
        assert "std_error_classical" in cell

    def test_classical_dual_errors_exits_2(self, model_bundle, tmp_path):
        # dual errors print classical beside robust se; with classical
        # covariance both lines would be classical
        out = tmp_path / "suite"
        assert run(
            "suite", "--bundle", model_bundle,
            "--weights", model_bundle / "weights.csv",
            "--covariance", "classical", "--dual-errors", "--output-dir", out,
        ) == 2
        assert not (out / "suite.json").exists()

    def test_empty_specs_exits_2(self, model_bundle, tmp_path):
        assert run(
            "suite", "--bundle", model_bundle, "--specs", ",",
            "--output-dir", tmp_path / "s",
        ) == 2

    def test_json_format_writes_sidecar_only(self, model_bundle, tmp_path):
        out = tmp_path / "suite"
        assert run(
            "suite", "--bundle", model_bundle, "--specs", "fe.tw",
            "--format", "json", "--output-dir", out,
        ) == 0
        assert (out / "suite.json").exists()
        assert not (out / "suite.txt").exists()


class TestSimulateAndMc:
    def test_simulate_writes_bundle(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--seed", 7, "--output-dir", out) == 0
        for name in ("dataset.csv", "profiles.csv", "weights.csv", "weights.json",
                     "dgp.yaml", "manifest.json"):
            assert (out / name).exists()

    def test_simulate_same_seed_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        config = tmp_path / "small.yaml"
        config.write_text(
            "panel: {n_regions: 10, n_years: 4, seed: 7}\n", encoding="utf-8"
        )
        assert run("simulate", "--config", config, "--output-dir", a) == 0
        assert run("simulate", "--config", config, "--output-dir", b) == 0
        for name in ("dataset.csv", "profiles.csv", "weights.csv", "weights.json", "dgp.yaml"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_regressor_named_year_exits_2_writing_no_dataset(self, tmp_path, capsys):
        config = tmp_path / "c.yaml"
        config.write_text(
            "{regressors: {year: {log_mean: 0, region_sd: 0.1, year_sd: 0.1, min: 0.5,"
            " max: 2}}, model: {coefficients: {year: 0.3}}}\n",
            encoding="utf-8",
        )
        out = tmp_path / "sim"
        capsys.readouterr()
        assert run("simulate", "--config", config, "--output-dir", out) == 2
        assert capsys.readouterr().err == (
            f"error: {config}: regressors.year: name 'year' is a column the generator writes\n"
        )
        assert not (out / "dataset.csv").exists()

    def test_mc_small_run(self, tmp_path):
        out = tmp_path / "mc"
        config = tmp_path / "small.yaml"
        config.write_text(
            "panel: {n_regions: 10, n_years: 4, seed: 3}\n", encoding="utf-8"
        )
        assert run(
            "mc", "--config", config, "--spec", "fe.tw.q", "--reps", 3,
            "--output-dir", out,
        ) == 0
        payload = json.loads((out / "mc.json").read_text())
        assert payload["replications"] == 3
        assert "log(EXPEMP10)" in payload["terms"]

    def test_mc_reps_below_two_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("mc", "--reps", 1, "--output-dir", tmp_path / "mc")
        assert exc.value.code == 2

    def test_mc_spec_reading_a_variable_the_dgp_lacks_names_no_replication(
        self, tmp_path, capsys
    ):
        """The generator writes no 'a' variables, and a config may leave out the quality
        regressors: the error names the spec and the variable, not replication 0."""
        capsys.readouterr()
        assert run("mc", "--spec", "fe.tw.q.sl.a", "--reps", 5,
                   "--output-dir", tmp_path / "a") == 2
        assert capsys.readouterr().err == (
            "error: spec 'fe.tw.q.sl.a' reads variable 'log(PUB21EMPA)', which the DGP "
            "does not generate\n"
        )
        config = tmp_path / "c.yaml"
        dists = {name: DEFAULT_REGRESSORS[name] for name in ("EXPEMP10", "GRPCAP10", "PAPEMP")}
        DgpConfig(
            regressor_distributions=dists,
            true_coefficients={f"log({name})": 0.3 for name in dists},
        ).to_yaml(config)
        assert run("mc", "--config", config, "--spec", "fe.tw.q", "--reps", 5,
                   "--output-dir", tmp_path / "q") == 2
        assert capsys.readouterr().err == (
            f"error: {config}: spec 'fe.tw.q' reads variable 'FWCI', which the DGP does "
            "not generate\n"
        )
        assert not (tmp_path / "a" / "mc.json").exists()
        assert not (tmp_path / "q" / "mc.json").exists()


class TestStats:
    def test_stats_outputs(self, model_bundle, tmp_path):
        out = tmp_path / "stats"
        assert run(
            "stats", "--bundle", model_bundle, "--vars", "FWCI,Q1SH",
            "--output-dir", out,
        ) == 0
        payload = json.loads((out / "stats.json").read_text())
        assert set(payload) == {"FWCI", "Q1SH"}
        assert set(payload["FWCI"]) == {"min", "q1", "median", "mean", "q3", "max"}

    def test_unknown_variable_exits_2(self, model_bundle, tmp_path):
        assert run(
            "stats", "--bundle", model_bundle, "--vars", "nope",
            "--output-dir", tmp_path / "stats",
        ) == 2


def _copy_editing_line_3(edit):
    """A case set-up that copies the source file with its third line's cells edited."""

    def prepare(source, bad):
        lines = source.read_text(encoding="utf-8").splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")

    return prepare


def _repeat_line_3(source, bad):
    """A case set-up that copies the source file with its third line written twice."""
    lines = source.read_text(encoding="utf-8").splitlines()
    bad.write_text("\n".join([*lines, lines[2]]) + "\n", encoding="utf-8")


def _latin1_line_3(source, bad):
    """A case set-up that copies the source file with an 'é' in its third line, as Latin-1."""
    lines = source.read_text(encoding="utf-8").splitlines()
    lines[2] = "é" + lines[2]
    bad.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))


def _one_line(text):
    """A case set-up that writes the bad file as one line (a DGP config or a record)."""
    return lambda source, bad: bad.write_text(text + "\n", encoding="utf-8")


def _simulated_3x3(source, bad):
    """A case set-up that simulates a 3-region, 3-year bundle, weights included, as bad's
    directory: 9 observations, fewer than the columns and region effects of fe.tw.q.sl."""
    config = bad.parent / "tiny.yaml"
    config.write_text("panel: {n_regions: 3, n_years: 3}\n", encoding="utf-8")
    assert run("simulate", "--config", config, "--output-dir", bad.parent) == 0


def _same_q1_and_nq_shares(source, bad):
    """A case set-up that copies the source dataset with NQSH equal to Q1SH on every row,
    so the quality terms are collinear."""
    lines = [line.split(",") for line in source.read_text(encoding="utf-8").splitlines()]
    q1, nq = lines[0].index("Q1SH"), lines[0].index("NQSH")
    for cells in lines[1:]:
        cells[nq] = cells[q1]
    bad.write_text("\n".join(map(",".join, lines)) + "\n", encoding="utf-8")


def _weights_of_5_regions(source, bad):
    """A case set-up that copies the source dataset and writes beside it the weights.csv
    of a 5-region simulation."""
    bad.write_bytes(source.read_bytes())
    config = bad.parent / "five.yaml"
    config.write_text("panel: {n_regions: 5, n_years: 3}\n", encoding="utf-8")
    assert run("simulate", "--config", config, "--output-dir", bad.parent / "five") == 0
    (bad.parent / "weights.csv").write_bytes((bad.parent / "five" / "weights.csv").read_bytes())


# a DGP whose FWCI^2 overflows for every value its clip range allows
_SQUARE_OVERFLOWS = (
    "{regressors: {FWCI: {log_mean: 400, region_sd: 0.1, year_sd: 0.1, min: 1.0e+170,"
    " max: 1.0e+200}}, model: {coefficients: {FWCI^2: 0.5}}}"
)
# one valid regressor entry of a DGP config, in YAML flow style
_REGRESSOR = "{log_mean: 0, region_sd: 0.1, year_sd: 0.1, min: 0.5, max: 2}"
_RECORD = {"id": "p1", "year": 2009, "regions": ["R01"], "subject_areas": ["SA01"],
           "citations": 1, "expected_citations": 1.0, "journal_quartile": "Q1"}


class TestMalformedInputs:
    """User files that are missing or malformed exit 2 with one error line."""

    @pytest.fixture(scope="class")
    def sim(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sim")
        assert run("simulate", "--seed", 7, "--output-dir", out) == 0
        return out

    @pytest.mark.parametrize(
        "command, bad_name, prepare",
        [
            ("fit", "weights.csv", _copy_editing_line_3(lambda c: c[:2] + ["-0.5"] + c[3:])),
            ("fit", "weights.csv", _copy_editing_line_3(lambda c: c[:-1])),
            ("weights", "profiles.csv",
             _copy_editing_line_3(lambda c: c[:1] + [repr(2 * float(c[1]))] + c[2:])),
            ("ingest", "nope.csv", None),
            ("fit", "nonexistent.csv", None),
            ("fit", "weights-dir", lambda source, bad: bad.mkdir()),
            ("simulate", "c.yaml", _one_line("panel: [1, 2]")),
            ("simulate", "c.yaml", _one_line("regressors: [FWCI]")),
            ("simulate", "c.yaml", _one_line("model: {coefficients: {FWCI: abc}}")),
            ("simulate", "c.yaml", _one_line("model: {coefficients: {FWCI: null}}")),
            ("simulate", "c.yaml", _one_line("thematic: {concentration: -1}")),
            ("simulate", "c.yaml", _one_line("panel: {seed: -1}")),
            ("mc", "seed", None),
            ("simulate", "c.yaml", _one_line("panel: {n_region: 5}")),
            ("simulate", "c.yaml", _one_line("panel: {n_regions: 10.5}")),
            ("simulate", "c.yaml", _one_line("effects: {noise_sd: .nan}")),
            ("mc", "c.yaml", _one_line("model: {coefficients: {FOO: 1.0}}")),
            ("simulate", "c.yaml", _one_line("panel: {n_years: 9223372036854775808}")),
            ("simulate", "c.yaml", _one_line(
                f"{{regressors: {{1: {_REGRESSOR}, FWCI: {_REGRESSOR}}},"
                " model: {coefficients: {FWCI: 0.3}}}")),
            ("simulate", "c.yaml", _one_line(
                f"{{regressors: {{PUB21EMP: {_REGRESSOR}}},"
                " model: {coefficients: {PUB21EMP: 0.5}}}")),
            ("simulate", "c.yaml", _one_line(
                f"{{regressors: {{log(PUB21EMP): {_REGRESSOR}}},"
                " model: {coefficients: {log(PUB21EMP): 0.5}}}")),
            ("simulate", "c.yaml", _one_line(
                f"{{regressors: {{EXPEMP10: {_REGRESSOR}, log(EXPEMP10): {_REGRESSOR}}},"
                " model: {coefficients: {log(EXPEMP10): 0.5}}}")),
            *[
                (command, "pubs.jsonl", _one_line(line))
                for command in ("ingest", "weights")
                for line in ("null", "5", json.dumps({**_RECORD, "regions": ["R01", 1]}))
            ],
            ("ingest", "dataset.csv", _copy_editing_line_3(lambda c: c[:5] + ["inf"] + c[6:])),
            ("fit", "dataset.csv", _copy_editing_line_3(lambda c: c[:5] + ["1e200"] + c[6:])),
            ("ingest", "dataset.csv",
             _copy_editing_line_3(lambda c: c[:1] + ["1000000002009"] + c[2:])),
            *[
                ("ingest", "pubs.jsonl", _one_line(json.dumps({**_RECORD, **fields})))
                for fields in (
                    {"expected_citations": "nan"},
                    {"expected_citations": "inf"},
                    {"expected_citations": math.nan},
                    {"year": 2019.7},
                    {"citations": True},
                )
            ],
            ("ingest", "pubs.csv", _one_line(
                ",".join(_RECORD) + "\np1,2009,R01,SA01,1,1.0,Q1,extra")),
            ("ingest", "dataset.csv", _one_line('region,year,v\nA,2009,"' + "1" * 140_000)),
            ("ingest", "dataset.csv", _one_line("region,year,v,v\nA,2009,1,2")),
            ("ingest", "dataset.csv", _latin1_line_3),
            ("weights", "profiles.csv", _latin1_line_3),
            ("ingest", "pubs.jsonl", lambda source, bad: bad.write_bytes(
                json.dumps({**_RECORD, "id": "é"}, ensure_ascii=False).encode("latin-1"))),
            ("weights", "profiles.csv", _repeat_line_3),
            ("fit", "dataset.csv", _copy_editing_line_3(lambda c: c[:11] + ["1e200"] + c[12:])),
            ("simulate", "c.yaml",
             lambda source, bad: bad.write_bytes("panel: {seed: 1}  # café\n".encode("latin-1"))),
            ("fit", "dataset.csv", _simulated_3x3),
            ("mc", "c.yaml", _one_line("panel: {n_regions: 3, n_years: 3}")),
            ("ingest", "pubs.jsonl", _one_line(json.dumps({**_RECORD, "citations": 10**400}))),
            ("ingest", "pubs.jsonl", _one_line(
                json.dumps({**_RECORD, "citations": 10**300, "expected_citations": 1e-300}))),
            ("ingest", "pubs.jsonl", _one_line("\n".join(
                json.dumps({**_RECORD, "id": rid, "citations": 17 * 10**307})
                for rid in ("p1", "p2")))),
            ("ingest", "pubs.jsonl", _one_line('{"citations": ' + "1" * 5000 + "}")),
            ("weights", "pubs.jsonl", _one_line("[" * 100_000 + "]" * 100_000)),
            # a blank third line: the profiles lose the bundle's second region
            ("weights", "profiles.csv", _copy_editing_line_3(lambda c: [])),
            ("fit", "dataset.csv", _weights_of_5_regions),
            ("fit", "dataset.csv", _same_q1_and_nq_shares),
            ("simulate", "c.yaml", _one_line(_SQUARE_OVERFLOWS)),
            ("mc", "c.yaml", _one_line(_SQUARE_OVERFLOWS)),
            ("simulate", "c.yaml", _one_line("model: {coefficients: {FWCI: 1000.0}}")),
            ("simulate", "c.yaml", _one_line("panel: {n_regions: 29, n_years: 1093550423.0}")),
            ("simulate", "c.yaml", _one_line(
                "{panel: {n_regions: 3, n_years: 3000}, effects: {time_profile: {start: 0,"
                " stop: 1}}}")),
        ],
        ids=["negative-weight", "ragged-weights-row", "profile-sum", "missing-panel",
             "missing-weights", "weights-is-directory", "config-panel-list",
             "config-regressors-list", "config-coefficient-text", "config-coefficient-null",
             "config-negative-concentration", "config-negative-seed", "mc-negative-seed-flag",
             "config-unknown-key", "config-fractional-int", "config-nan-noise",
             "mc-config-unknown-regressor", "config-huge-n-years",
             "config-regressor-not-a-string", "config-regressor-is-outcome",
             "config-regressor-is-log-outcome", "config-regressor-is-generated-log",
             "ingest-pubs-null", "ingest-pubs-number", "ingest-pubs-int-region",
             "weights-pubs-null", "weights-pubs-number", "weights-pubs-int-region",
             "ingest-inf-cell", "fit-squared-term-overflows", "ingest-wide-year-span",
             "ingest-pubs-nan-text-expected", "ingest-pubs-inf-text-expected",
             "ingest-pubs-nan-expected", "ingest-pubs-fractional-year",
             "ingest-pubs-bool-citations",
             "ingest-pubs-csv-extra-cell", "ingest-stray-quote", "ingest-repeated-column",
             "ingest-not-utf8", "weights-profiles-not-utf8", "ingest-pubs-not-utf8",
             "weights-repeated-region", "fit-huge-outcome", "config-not-utf8",
             "fit-too-few-observations", "mc-too-few-observations",
             "ingest-pubs-citations-overflow-float", "ingest-pubs-infinite-ratio",
             "ingest-pubs-fwci-overflow", "ingest-pubs-int-of-5000-digits",
             "weights-pubs-nested-too-deep", "weights-profiles-lack-bundle-region",
             "fit-weights-of-other-regions", "fit-rank-deficient",
             "config-squared-term-overflows", "mc-config-squared-term-overflows",
             "config-outcome-overflows", "config-design-too-large",
             "config-linspace-profile-too-large"],
    )
    def test_exits_2_without_traceback(
        self, sim, tmp_path, capsys, command, bad_name, prepare
    ):
        bad = tmp_path / bad_name
        if prepare is not None:
            prepare(sim / bad_name, bad)
        pubs = bad_name.startswith("pubs.")
        # a bad dataset.csv makes its directory the bundle, with the weights.csv that the
        # case set-up wrote beside it, if any
        dataset = bad_name == "dataset.csv"
        own_weights = tmp_path / "weights.csv"
        weights = own_weights if own_weights.exists() else sim / "weights.csv"
        bundle, weights = (tmp_path, weights) if dataset else (sim, bad)
        argv = {
            "fit": ["--bundle", bundle, "--spec", "fe.tw.q.sl", "--weights", weights],
            "weights": ["--pubs", bad] if pubs else ["--profiles", bad, "--bundle", sim],
            "ingest": ["--panel", sim / "dataset.csv", "--pubs", bad] if pubs else ["--panel", bad],
            "simulate": ["--config", bad],
            # with no file to prepare, the bad input is a negative --seed
            "mc": ["--reps", 2, *(["--config", bad] if prepare else ["--seed", -1])],
        }[command]
        capsys.readouterr()
        assert run(command, *argv, "--output-dir", tmp_path / "out") == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out
        error_lines = [ln for ln in captured.err.splitlines() if ln.startswith("error:")]
        assert len(error_lines) == 1 and bad_name in error_lines[0]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["weights", "--pubs", "pubs.jsonl", "--bundle", "SIM"],
             "pubs.jsonl: region 'R05' has no publication records"),
            (["weights", "--pubs", "pubs.jsonl", "--vocab", "vocab.txt"],
             "pubs.jsonl:2: subject areas ['SA09'] not in the vocabulary"),
            (["ingest", "--panel", "SIM/dataset.csv", "--pubs", "pubs.jsonl",
              "--vocab", "vocab.txt"],
             "pubs.jsonl:2: subject areas ['SA09'] not in the vocabulary"),
        ],
        ids=["weights-bundle-region-without-records", "weights-pubs-area-not-in-vocab",
             "ingest-pubs-area-not-in-vocab"],
    )
    def test_exits_2_naming_the_input(self, sim, tmp_path, monkeypatch, capsys, argv, message):
        """Cases whose argv does not fit test_exits_2_without_traceback's templates."""
        monkeypatch.chdir(tmp_path)
        records = [{**_RECORD, "id": f"p{i}", "regions": [f"R{i:02d}"]} for i in range(1, 79)]
        records[1]["subject_areas"] = ["SA01", "SA09"]
        del records[4]  # R05
        Path("pubs.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        Path("vocab.txt").write_text("SA01\nSA02\n", encoding="utf-8")
        capsys.readouterr()
        assert run(*[a.replace("SIM", str(sim)) for a in argv], "--output-dir", "out") == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "--bundle", "SIM", "--spec", "bogus"], "'bogus': unknown tokens ['bogus']"),
            (["fit", "--bundle", "SIM", "--spec", "fe.tw.q.sl"],
             "spec contains spatial-lag terms but no weights given"),
            (["suite", "--bundle", "SIM", "--specs", "fe.tw,bogus"],
             "'bogus': unknown tokens ['bogus']"),
            (["suite", "--bundle", "SIM", "--covariance", "classical", "--dual-errors"],
             "dual errors report classical beside robust standard errors; "
             "they need cluster_by_region covariance"),
            (["mc", "--reps", "2", "--seed", "-1"], "seed must be nonnegative, got -1"),
            (["mc", "--reps", "2", "--seed", "-1", "--config", "SIM/dgp.yaml"],
             "seed must be nonnegative, got -1"),
            (["mc", "--reps", "2", "--spec", "bogus", "--config", "SIM/dgp.yaml"],
             "'bogus': unknown tokens ['bogus']"),
            (["suite", "--bundle", "SIM", "--specs", ","], "empty tag list"),
            (["stats", "--bundle", "SIM", "--vars", ","], "empty variable list"),
        ],
        ids=["fit-bad-tag", "fit-sl-without-weights", "suite-bad-tag",
             "suite-classical-dual-errors", "mc-negative-seed", "mc-negative-seed-with-config",
             "mc-bad-tag-with-config", "suite-empty-specs", "stats-empty-vars"],
    )
    def test_flag_fault_names_no_file(self, sim, tmp_path, capsys, argv, message):
        """Every file is valid, so the error line is the flag's alone."""
        capsys.readouterr()
        argv = [a.replace("SIM", str(sim)) for a in argv]
        assert run(*argv, "--output-dir", tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mc_fits_the_log_of_an_outcome_that_overflows(self, tmp_path):
        """simulate refuses to write PUB21EMP = inf; mc fits only log(PUB21EMP), silently."""
        config = tmp_path / "c.yaml"
        config.write_text("model: {coefficients: {FWCI: 1000.0}}\n", encoding="utf-8")
        assert run("simulate", "--config", config, "--output-dir", tmp_path / "sim") == 2
        assert run(
            "mc", "--config", config, "--spec", "fe.tw", "--reps", 2,
            "--output-dir", tmp_path / "mc",
        ) == 0

    @pytest.mark.parametrize(
        "argv, path, reason",
        [
            (["simulate", "--output-dir", "F"], "F", "File exists"),
            (["simulate", "--output-dir", "F/sub"], "F/sub", "Not a directory"),
            (["ingest", "--panel", "F/x.csv", "--output-dir", "out"], "F/x.csv",
             "Not a directory"),
            (["stats", "--bundle", "F", "--output-dir", "out"], "F/dataset.csv",
             "Not a directory"),
        ],
        ids=["output-dir-is-file", "output-dir-under-file", "panel-under-file",
             "bundle-is-file"],
    )
    def test_path_under_a_regular_file_exits_2(
        self, tmp_path, monkeypatch, capsys, argv, path, reason
    ):
        monkeypatch.chdir(tmp_path)
        Path("F").write_text("a regular file\n", encoding="utf-8")
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out
        assert captured.err == f"error: {path}: {reason}\n"


class TestRemovedFlags:
    """--seed and --format are accepted only where a subcommand reads them."""

    REQUIRED = {
        "ingest": ["--panel", "panel.csv"],
        "weights": [],
        "fit": ["--bundle", "b", "--spec", "fe.tw"],
        "suite": ["--bundle", "b"],
        "simulate": [],
        "mc": ["--reps", "2"],
        "stats": ["--bundle", "b"],
    }

    @pytest.mark.parametrize(
        "command, flag, value",
        [(c, "--seed", "5") for c in ("ingest", "weights", "fit", "suite", "stats")]
        + [(c, "--format", "md") for c in ("ingest", "weights", "simulate", "mc", "stats")],
    )
    def test_flag_rejected(self, command, flag, value, tmp_path, capsys):
        argv = [command, *self.REQUIRED[command], flag, value, "--output-dir", tmp_path]
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not tmp_path.joinpath("manifest.json").exists()


class TestUnreadFlags:
    """A flag that its subcommand would not read in this combination is a usage error."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ingest", "--panel", "panel", "--vocab", "vocab"], "--vocab: needs --pubs"),
            (["weights", "--profiles", "profiles", "--pubs", "pubs"], "not allowed with"),
            (["weights", "--profiles", "profiles", "--vocab", "vocab"], "--vocab: needs --pubs"),
        ],
        ids=["ingest-vocab-without-pubs", "weights-profiles-and-pubs",
             "weights-profiles-and-vocab"],
    )
    def test_usage_error(self, argv, message, panel_csv, tmp_path, capsys):
        # every file is valid, so only the flag combination is at fault
        m = ThematicProfileMatrix(("A", "B", "C"), ("bio", "math"), np.full((3, 2), 0.5))
        write_profiles_csv(m, tmp_path / "profiles")
        record = {**_RECORD, "regions": ["A"], "subject_areas": ["bio"]}
        (tmp_path / "pubs").write_text(json.dumps(record) + "\n", encoding="utf-8")
        (tmp_path / "vocab").write_text("bio\nmath\n", encoding="utf-8")
        files = {"panel": panel_csv, "profiles": tmp_path / "profiles",
                 "pubs": tmp_path / "pubs", "vocab": tmp_path / "vocab"}
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(*[files.get(a, a) for a in argv], "--output-dir", out)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestManifest:
    def test_digests_stable_for_identical_inputs(self, panel_csv, tmp_path):
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        run("ingest", "--panel", panel_csv, "--output-dir", out1)
        run("ingest", "--panel", panel_csv, "--output-dir", out2)
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["inputs"] == m2["inputs"]
        assert m1["config_digest"] == m2["config_digest"]
        assert m1["engine_version"] == m2["engine_version"]


def _run_recording_reads(argv):
    """(exit code, every path one main() call opens for reading). A read in binary
    mode counts too, such as file_digest hashing a CSV or np.load opening its sidecar."""
    real_open = builtins.open
    read = set()

    def recording_open(file, mode="r", *args, **kwargs):
        if not set(mode) & set("wax+"):
            read.add(str(file))
        return real_open(file, mode, *args, **kwargs)

    with mock.patch("builtins.open", recording_open):
        code = main([str(a) for a in argv])
    return code, read


class TestManifestInputs:
    """Each manifest lists exactly the files its run read, binary sidecars included,
    and none of the files its run wrote."""

    STEPS = {
        "simulate": ["simulate", "--seed", 7],
        "simulate-config": ["simulate", "--config", "small.yaml"],
        "ingest": ["ingest", "--panel", "sim/dataset.csv"],
        "ingest-pubs-vocab": ["ingest", "--panel", "sim/dataset.csv", "--pubs", "pubs.jsonl",
                              "--vocab", "vocab.txt"],
        "weights": ["weights", "--profiles", "sim/profiles.csv"],
        "weights-profiles-bundle": ["weights", "--profiles", "sim/profiles.csv",
                                    "--bundle", "bundle"],
        # on the bundle of ingest --pubs, which holds the publications sidecar
        "weights-pubs-vocab-bundle": ["weights", "--pubs", "pubs.jsonl", "--vocab",
                                      "vocab.txt", "--bundle", "ingest-pubs-vocab"],
        "suite": ["suite", "--bundle", "bundle", "--weights", "weights/weights.csv"],
        "fit": ["fit", "--bundle", "bundle", "--spec", "fe.tw.q.sl",
                "--weights", "weights/weights.csv"],
        "stats": ["stats", "--bundle", "bundle"],
        "mc": ["mc", "--reps", 2, "--spec", "fe.tw.q", "--seed", 11],
        "mc-config": ["mc", "--reps", 2, "--spec", "fe.tw.q", "--config", "small.yaml"],
    }
    # the step whose output directory a later step reads, if not the step's own name
    OUTPUT = {"simulate": "sim", "ingest": "bundle", "weights": "weights"}

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """Per step: (files it read, its manifest's inputs), run in order in one directory."""
        work = tmp_path_factory.mktemp("pipeline")
        old = os.getcwd()
        os.chdir(work)
        try:
            Path("small.yaml").write_text("panel: {n_regions: 6, n_years: 4}\n", encoding="utf-8")
            Path("vocab.txt").write_text("SA01\nSA02\nSA03\n", encoding="utf-8")
            records = [
                {**_RECORD, "id": f"p{r}-{y}", "year": y, "regions": [f"R{r:02d}"],
                 "subject_areas": ["SA01", f"SA0{2 + r % 2}"]}
                for r in range(1, 79) for y in range(2009, 2021)
            ]
            Path("pubs.jsonl").write_text(
                "".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8"
            )
            found = {}
            for name, argv in self.STEPS.items():
                out = self.OUTPUT.get(name, name)
                code, read = _run_recording_reads([*argv, "--output-dir", out])
                assert code == 0, name
                inputs = json.loads(Path(out, "manifest.json").read_text())["inputs"]
                found[name] = (read, inputs, {str(p) for p in Path(out).iterdir()})
            return found
        finally:
            os.chdir(old)

    # the sidecars a step opens: those of the bundle and weights the engine wrote
    SIDECARS = {
        "ingest": {"sim/dataset.npz"},
        "ingest-pubs-vocab": {"sim/dataset.npz"},
        "weights-profiles-bundle": {"bundle/dataset.npz"},
        "weights-pubs-vocab-bundle": {"ingest-pubs-vocab/dataset.npz",
                                      "ingest-pubs-vocab/publications.npz"},
        "suite": {"bundle/dataset.npz", "weights/weights.npz"},
        "fit": {"bundle/dataset.npz", "weights/weights.npz"},
        "stats": {"bundle/dataset.npz"},
    }

    @pytest.mark.parametrize("step", list(STEPS))
    def test_manifest_lists_every_file_read(self, runs, step):
        read, inputs, _ = runs[step]
        assert set(inputs) == read
        assert {p for p in read if p.endswith(".npz")} == self.SIDECARS.get(step, set())

    @pytest.mark.parametrize("step", list(STEPS))
    def test_manifest_lists_no_file_written(self, runs, step):
        _, inputs, written = runs[step]
        assert "manifest.json" in {Path(p).name for p in written}
        assert not set(inputs) & written


@pytest.mark.parametrize("module", ["rkpf", "rkpf.suite"])
def test_every_export_resolves(module):
    """A name left in __all__ after its definition is gone breaks `import *`."""
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _probe(code: str, **env) -> list:
    """Run `code` in a fresh interpreter that imports rkpf from this checkout, with no
    BLAS thread variable but those in `env`; return the JSON list it prints."""
    base = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    base["PYTHONPATH"] = str(Path(rkpf.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import json, os, sys\n" + code],
        env={**base, **env}, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_import_rkpf_leaves_numpy_to_the_cli():
    """`import rkpf` loads no numpy, so the CLI can set BLAS threads before numpy loads."""
    code = (
        "import rkpf\n"
        "numpy = 'numpy' in sys.modules\n"
        "import rkpf.cli\n"
        "print(json.dumps([numpy, 'numpy' in sys.modules]))"
    )
    assert _probe(code) == [False, True]


# Installed first on sys.meta_path, this finder refuses every top-level package but the
# standard library, numpy, PyYAML and rkpf, as if nothing else were installed.
_ONLY_DEPENDENCIES = """
import importlib.abc
allowed = set(sys.stdlib_module_names) | {"numpy", "yaml", "rkpf"}
class OnlyDependencies(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in allowed:
            raise ModuleNotFoundError(f"refused: {name}", name=name)
        return None
sys.meta_path.insert(0, OnlyDependencies())
"""


def test_every_subcommand_runs_on_the_declared_dependencies(tmp_path):
    """stats, ingest --pubs, fit, suite --dual-errors and mc run with only the standard
    library, numpy and PyYAML importable."""
    sim = tmp_path / "sim"
    assert run("simulate", "--seed", 7, "--output-dir", sim) == 0
    dataset = load_panel_csv(sim / "dataset.csv")
    pubs = tmp_path / "pubs.jsonl"
    pubs.write_text("".join(
        json.dumps({**_RECORD, "id": f"{region}-{year}", "regions": [region], "year": year}) + "\n"
        for region in dataset.region_ids for year in dataset.years
    ), encoding="utf-8")
    steps = [
        ["stats", "--bundle", sim, "--output-dir", tmp_path / "stats"],
        ["ingest", "--panel", sim / "dataset.csv", "--pubs", pubs,
         "--output-dir", tmp_path / "bundle"],
        ["fit", "--bundle", sim, "--spec", "fe.tw", "--output-dir", tmp_path / "fit"],
        ["suite", "--bundle", sim, "--weights", sim / "weights.csv", "--dual-errors",
         "--output-dir", tmp_path / "suite"],
        ["mc", "--reps", 20, "--seed", 3, "--output-dir", tmp_path / "mc"],
    ]
    code = _ONLY_DEPENDENCIES + (
        "from rkpf.cli import main\n"
        "codes = [main(argv) for argv in %r]\n"
        "print(json.dumps(codes))"
    ) % [[str(a) for a in argv] for argv in steps]
    assert _probe(code) == [0] * len(steps)


@pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")], ids=["unset", "explicit"])
def test_cli_sets_one_blas_thread_unless_given(given, expected):
    env = {} if given is None else {name: given for name in _BLAS_THREADS}
    code = "import rkpf.cli\nprint(json.dumps([os.environ[name] for name in %r]))" % (
        _BLAS_THREADS,
    )
    assert _probe(code, **env) == [expected] * 3

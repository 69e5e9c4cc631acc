"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. Tolerances are pinned here and nowhere else.
"""
import functools
import json
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np

from rkpf.cli import main as cli_main
from rkpf.estimation import (
    FitResult,
    ModelSpec,
    Term,
    build_design,
    cluster_robust_cov,
    fit_model,
    ols_fit,
)
from rkpf.indicators import (
    PublicationRecord,
    attribute_full_counting,
    compute_fwci,
    compute_quartile_shares,
    compute_thematic_profile,
)
from rkpf.panel import PanelDataset
from rkpf.simulate import DgpConfig, monte_carlo
from rkpf.suite import (
    MAIN_TAGS,
    ComparisonTable,
    expand_notation,
    render_table,
    vertex_of_quadratic,
)
from rkpf.weights import build_weights


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {name}")
                raise
            print(f"[PASS] {name}")

        return wrapper

    return decorate


@criterion("weights construction: invariants on 1000 random symmetric matrices, < 5 s")
def test_criterion_01_weights_construction():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(2, 21))
        c = rng.uniform(-1, 1, size=(n, n))
        c = (c + c.T) / 2
        np.fill_diagonal(c, 1.0)
        w = build_weights(c)
        assert np.all(w.w >= 0)
        assert np.all(np.diag(w.w) == 0)
        sums = w.w.sum(axis=1)
        for i, s in enumerate(sums):
            if i in w.isolated:
                assert s == 0.0
            else:
                assert abs(s - 1.0) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


@criterion("within estimator equals LSDV on 100 random panels, 1e-8")
def test_criterion_02_within_equals_lsdv():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(3, 11))
        t = int(rng.integers(3, 7))
        regions = tuple(f"R{i}" for i in range(n))
        years = tuple(range(2009, 2009 + t))
        x1 = rng.normal(size=(n, t))
        x2 = rng.normal(size=(n, t))
        mu = rng.normal(size=(n, 1))
        y = 1.2 * x1 - 0.4 * x2 + mu + rng.normal(size=(n, t))
        d = PanelDataset(regions, years, {"y": y, "x1": x1, "x2": x2})

        spec = ModelSpec(
            "y", (Term("x1"), Term("x2")), region_effects=True, covariance="classical"
        )
        fe = fit_model(d, spec)

        design = build_design(d, ModelSpec("y", (Term("x1"), Term("x2"))))
        dummies = np.zeros((n * t, n))
        dummies[np.arange(n * t), np.repeat(np.arange(n), t)] = 1.0
        lsdv = ols_fit(np.hstack([design.X, dummies]), design.y)

        assert abs(fe.coefficients["x1"] - lsdv.coefficients[0]) <= 1e-8
        assert abs(fe.coefficients["x2"] - lsdv.coefficients[1]) <= 1e-8


@criterion("least-squares matches normal equations on 100 systems, 1e-8 relative")
def test_criterion_03_least_squares_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        rows = int(rng.integers(12, 51))
        cols = int(rng.integers(1, 9))
        X = rng.normal(size=(rows, cols))
        y = rng.normal(size=rows)
        fit = ols_fit(X, y)
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        assert np.max(np.abs(fit.coefficients - oracle)) / scale <= 1e-8


@criterion("cluster-robust covariance matches hand-assembled sandwich, 1e-10")
def test_criterion_04_cluster_robust_oracle():
    # fixed 3-region, 4-year toy: intercept + one regressor
    x = np.array([0.5, 1.0, 1.5, 2.0, 0.2, 0.4, 0.6, 0.8, 2.0, 1.0, 3.0, 4.0])
    y = np.array([1.1, 2.3, 2.9, 4.2, 0.4, 1.1, 1.2, 1.8, 4.5, 2.2, 6.1, 7.9])
    clusters = np.repeat([0, 1, 2], 4)
    X = np.column_stack([x, np.ones(12)])

    fit = ols_fit(X, y)
    engine = cluster_robust_cov(fit, X, 3, 12 - 2)

    # oracle: explicit per-cluster outer products and the stated factor
    xtx_inv = np.linalg.inv(X.T @ X)
    meat = np.zeros((2, 2))
    for g in (0, 1, 2):
        score = np.zeros(2)
        for i in np.nonzero(clusters == g)[0]:
            score = score + X[i] * fit.residuals[i]
        meat = meat + np.outer(score, score)
    n_obs, k = X.shape
    g_count = 3
    factor = (g_count / (g_count - 1)) * ((n_obs - 1) / (n_obs - k))
    oracle = factor * xtx_inv @ meat @ xtx_inv

    assert np.max(np.abs(engine - oracle)) <= 1e-10


MC_BIAS_LIMITS = {"log(EXPEMP10)": 0.05, "Q1SH": 0.02, "NQSH": 0.02}


@criterion(
    "Monte Carlo recovery: published-coefficient DGP, 78x12, 200 reps, "
    "bias and 0.90-0.98 coverage, < 2 min"
)
def test_criterion_05_monte_carlo_recovery():
    cfg = DgpConfig(seed=11)
    truths = cfg.true_coefficients
    assert truths["log(EXPEMP10)"] == 0.460
    assert truths["FWCI"] == 0.348
    assert truths["FWCI^2"] == -0.049
    assert truths["Q1SH"] == -0.009
    assert truths["NQSH"] == 0.003

    start = time.perf_counter()
    report = monte_carlo(cfg, "fe.tw.q.sl", 200)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f} s"

    for label, limit in MC_BIAS_LIMITS.items():
        assert abs(report.terms[label].bias) < limit, (
            f"{label} bias {report.terms[label].bias:+.4f} exceeds {limit}"
        )
    for label, summary in report.terms.items():
        assert 0.90 <= summary.coverage_95 <= 0.98, (
            f"{label} coverage {summary.coverage_95:.3f} outside [0.90, 0.98]"
        )


@criterion("elasticity 0.5 recovered: 95% CI covers truth in >= 90% of 200 reps")
def test_criterion_06_elasticity_check():
    base = DgpConfig(seed=11)
    coefficients = dict(base.true_coefficients)
    coefficients["log(EXPEMP10)"] = 0.5
    cfg = replace(base, true_coefficients=coefficients)
    report = monte_carlo(cfg, "fe.tw.q.sl", 200)
    assert report.terms["log(EXPEMP10)"].coverage_95 >= 0.90


@criterion("vertex arithmetic: 3.551 and 3.392 within 0.01")
def test_criterion_07_vertex_arithmetic():
    assert abs(vertex_of_quadratic(0.348, -0.049) - 3.551) <= 0.01
    assert abs(vertex_of_quadratic(0.346, -0.051) - 3.392) <= 0.01


def _synthetic_fit(p_values: dict[str, float]) -> FitResult:
    labels = tuple(p_values)
    return FitResult(
        spec=ModelSpec(
            "y", tuple(Term(l) for l in labels), intercept=True, covariance="classical"
        ),
        coefficients={l: 1.0 for l in labels},
        std_errors={l: 0.5 for l in labels},
        t_stats={l: 2.0 for l in labels},
        p_values=dict(p_values),
        residuals=np.zeros(4),
        n_obs=4,
        n_params=len(labels),
        n_absorbed=0,
        dof=3,
        ssr=1.0,
        r_squared_within=0.5,
        r_squared_overall=0.5,
        aic=0.0,
        column_labels=labels,
    )


@criterion("table fidelity: star thresholds on a p-value grid straddling 0.10/0.05/0.01")
def test_criterion_08_table_fidelity():
    grid = {
        "p0009": (0.009, "***"),
        "p00099": (0.0099, "***"),
        "p001": (0.01, "**"),  # strict inequality at the boundary
        "p0011": (0.011, "**"),
        "p0049": (0.049, "**"),
        "p005": (0.05, "*"),
        "p0051": (0.051, "*"),
        "p0099": (0.099, "*"),
        "p010": (0.10, ""),
        "p0101": (0.101, ""),
        "p05": (0.5, ""),
    }
    fit = _synthetic_fit({label: p for label, (p, _) in grid.items()})
    table = ComparisonTable(("model",), (fit,))
    rendered = render_table(table, "text")
    for line in rendered.splitlines():
        parts = line.split()
        if parts and parts[0] in grid:
            _, expected = grid[parts[0]]
            assert parts[1] == f"1.000{expected}", (
                f"{parts[0]}: rendered {parts[1]!r}, expected stars {expected!r}"
            )
    # and the JSON side reports the same stars
    for row in fit.to_dict()["coefficients"]:
        assert row["stars"] == grid[row["term"]][1]


# expected populated/blank pattern of the seven-column ladder, row by row
EXPECTED_PATTERN = {
    # term: (ols.q, fe.tw, fe.ow.q, fe.tw.q, fe.tw.q.sl.non, fe.tw.q.sl.noq, fe.tw.q.sl)
    "log(EXPEMP10)": (1, 1, 1, 1, 1, 1, 1),
    "log(GRPCAP10)": (1, 1, 1, 1, 1, 1, 1),
    "log(PAPEMP)": (1, 1, 1, 1, 1, 1, 1),
    "FWCI": (1, 0, 1, 1, 1, 1, 1),
    "FWCI^2": (1, 0, 1, 1, 1, 1, 1),
    "Q1SH": (1, 0, 1, 1, 1, 0, 1),
    "NQSH": (1, 0, 1, 1, 0, 1, 1),
    "slFWCI": (0, 0, 0, 0, 1, 1, 1),
    "slQ1SH": (0, 0, 0, 0, 1, 0, 1),
    "slNQSH": (0, 0, 0, 0, 0, 1, 1),
    "time_dummies": (0, 1, 0, 1, 1, 1, 1),
    "const": (1, 0, 0, 0, 0, 0, 0),
}


@criterion("notation expansion: seven tags match the populated/blank pattern row-by-row")
def test_criterion_09_notation_expansion():
    specs = {tag: expand_notation(tag) for tag in MAIN_TAGS}
    for term, pattern in EXPECTED_PATTERN.items():
        for tag, expected in zip(MAIN_TAGS, pattern):
            spec = specs[tag]
            if term == "time_dummies":
                present = spec.time_dummies
            elif term == "const":
                present = spec.intercept
            else:
                present = term in {t.label for t in spec.regressors}
            assert present == bool(expected), (
                f"{term} in {tag}: present={present}, expected={bool(expected)}"
            )


@criterion("indicators match brute-force enumeration (exact shares, 1e-12 FWCI)")
def test_criterion_10_indicator_correctness():
    rng = np.random.default_rng(404)
    vocabulary = [f"area{i}" for i in range(6)]
    regions_pool = ["A", "B", "C", "D", "E"]
    for _ in range(20):
        n_records = int(rng.integers(1, 51))
        records = []
        for i in range(n_records):
            regions = rng.choice(
                regions_pool, size=int(rng.integers(1, 4)), replace=False
            )
            areas = rng.choice(vocabulary, size=int(rng.integers(1, 4)), replace=False)
            records.append(
                PublicationRecord(
                    id=f"p{i}",
                    year=int(rng.integers(2015, 2020)),
                    regions=frozenset(regions),
                    subject_areas=frozenset(areas),
                    citations=int(rng.integers(0, 80)),
                    expected_citations=float(rng.uniform(0.5, 30.0)),
                    journal_quartile=str(
                        rng.choice(["Q1", "Q2", "Q3", "Q4", "NONE"])
                    ),
                )
            )

        # full counting: every record once per region it lists
        cells = attribute_full_counting(records)
        oracle_cells = {}
        for record in records:
            for region in record.regions:
                oracle_cells.setdefault((region, record.year), []).append(record)
        assert {k: len(v) for k, v in cells.items()} == {
            k: len(v) for k, v in oracle_cells.items()
        }

        for key, members in oracle_cells.items():
            fwci = compute_fwci(cells[key])
            oracle_fwci = sum(
                m.citations / m.expected_citations for m in members
            ) / len(members)
            assert abs(fwci - oracle_fwci) <= 1e-12

            q1, nq = compute_quartile_shares(cells[key])
            exact_q1 = Fraction(
                100 * sum(1 for m in members if m.journal_quartile == "Q1"),
                len(members),
            )
            exact_nq = Fraction(
                100 * sum(1 for m in members if m.journal_quartile == "NONE"),
                len(members),
            )
            assert q1 == float(exact_q1) and nq == float(exact_nq)

        profile = compute_thematic_profile(records, vocabulary)
        counts = {code: 0 for code in vocabulary}
        for record in records:
            for code in record.subject_areas:
                counts[code] += 1
        total = sum(counts.values())
        for j, code in enumerate(vocabulary):
            assert profile[j] == float(Fraction(counts[code], total))


@criterion("pipeline determinism: simulate|ingest|weights|suite twice, byte-identical JSON")
def test_criterion_11_pipeline_determinism(tmp_path):
    import contextlib
    import io

    def pipeline(root):
        sim = root / "sim"
        bundle = root / "bundle"
        wdir = root / "weights"
        sdir = root / "suite"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["simulate", "--seed", "7", "--output-dir", str(sim)]) == 0
            assert cli_main(
                ["ingest", "--panel", str(sim / "dataset.csv"), "--output-dir", str(bundle)]
            ) == 0
            assert cli_main(
                ["weights", "--profiles", str(sim / "profiles.csv"), "--output-dir", str(wdir)]
            ) == 0
            assert cli_main(
                [
                    "suite",
                    "--bundle", str(bundle),
                    "--weights", str(wdir / "weights.csv"),
                    "--output-dir", str(sdir),
                ]
            ) == 0
        return {
            "suite.json": (sdir / "suite.json").read_bytes(),
            "weights.json": (wdir / "weights.json").read_bytes(),
            "validation.json": (bundle / "validation.json").read_bytes(),
            "suite.txt": (sdir / "suite.txt").read_bytes(),
        }

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    sidecar = json.loads(first["suite.json"])
    assert len(sidecar["columns"]) == 7
    assert sidecar["footer"]["n_obs"] == [936] * 7

"""Cross-checks against statsmodels as an independent estimation oracle.

statsmodels is test-only; these checks skip cleanly when it is absent.
The within estimator with cluster-robust errors must agree with an explicit
least-squares-dummy-variables fit: identical slopes, and identical standard
errors because the dummy-model scores equal the demeaned scores and the
rank counted by the small-sample factor matches fitted columns plus
absorbed effects.
"""
import numpy as np
import pytest

sm = pytest.importorskip("statsmodels.api")

from rkpf.estimation import ModelSpec, Term, build_design, fit_model
from rkpf.panel import PanelDataset


def make_panel(rng, n, t):
    regions = tuple(f"R{i}" for i in range(n))
    years = tuple(range(2009, 2009 + t))
    x1 = rng.normal(size=(n, t))
    x2 = rng.normal(size=(n, t))
    mu = rng.normal(size=(n, 1))
    tau = np.linspace(0, 0.8, t)[np.newaxis, :]
    y = 1.2 * x1 - 0.4 * x2 + mu + tau + rng.normal(size=(n, t))
    return PanelDataset(regions, years, {"y": y, "x1": x1, "x2": x2})


def lsdv_matrix(d, spec_terms, time_dummies=False):
    spec = ModelSpec("y", spec_terms, time_dummies=time_dummies)
    design = build_design(d, spec)
    clusters = np.repeat(np.arange(d.n_regions), d.n_years)
    dummies = np.zeros((len(design.y), d.n_regions))
    dummies[np.arange(len(design.y)), clusters] = 1.0
    return np.hstack([design.X, dummies]), design.y, clusters, design.column_labels


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fe_cluster_robust_matches_statsmodels_lsdv(seed):
    rng = np.random.default_rng(seed)
    d = make_panel(rng, n=int(rng.integers(6, 12)), t=int(rng.integers(4, 8)))
    fit = fit_model(d, ModelSpec("y", (Term("x1"), Term("x2")), region_effects=True))

    X, y, clusters, labels = lsdv_matrix(d, (Term("x1"), Term("x2")))
    oracle = sm.OLS(y, X).fit(cov_type="cluster", cov_kwds={"groups": clusters})

    for j, label in enumerate(labels):
        assert fit.coefficients[label] == pytest.approx(oracle.params[j], rel=1e-10)
        assert fit.std_errors[label] == pytest.approx(oracle.bse[j], rel=1e-10)


@pytest.mark.parametrize("seed", [4, 5])
def test_fe_classical_matches_statsmodels_lsdv(seed):
    rng = np.random.default_rng(seed)
    d = make_panel(rng, n=8, t=6)
    fit = fit_model(
        d,
        ModelSpec("y", (Term("x1"), Term("x2")), region_effects=True, covariance="classical"),
    )

    X, y, _, labels = lsdv_matrix(d, (Term("x1"), Term("x2")))
    oracle = sm.OLS(y, X).fit()

    for j, label in enumerate(labels):
        assert fit.coefficients[label] == pytest.approx(oracle.params[j], rel=1e-10)
        assert fit.std_errors[label] == pytest.approx(oracle.bse[j], rel=1e-10)
        assert fit.p_values[label] == pytest.approx(oracle.pvalues[j], rel=1e-8)


def test_two_way_fe_matches_statsmodels_lsdv():
    rng = np.random.default_rng(6)
    d = make_panel(rng, n=10, t=5)
    fit = fit_model(
        d,
        ModelSpec(
            "y",
            (Term("x1"), Term("x2")),
            region_effects=True,
            time_dummies=True,
        ),
    )

    X, y, clusters, labels = lsdv_matrix(d, (Term("x1"), Term("x2")), time_dummies=True)
    oracle = sm.OLS(y, X).fit(cov_type="cluster", cov_kwds={"groups": clusters})

    for j, label in enumerate(labels):
        assert fit.coefficients[label] == pytest.approx(oracle.params[j], rel=1e-9)
        assert fit.std_errors[label] == pytest.approx(oracle.bse[j], rel=1e-9)


def test_pooled_matches_statsmodels():
    rng = np.random.default_rng(7)
    d = make_panel(rng, n=8, t=6)
    fit = fit_model(
        d, ModelSpec("y", (Term("x1"), Term("x2")), intercept=True, covariance="classical")
    )
    design = build_design(d, ModelSpec("y", (Term("x1"), Term("x2")), intercept=True))
    oracle = sm.OLS(design.y, design.X).fit()
    for j, label in enumerate(design.column_labels):
        assert fit.coefficients[label] == pytest.approx(oracle.params[j], rel=1e-10)
        assert fit.std_errors[label] == pytest.approx(oracle.bse[j], rel=1e-10)
    assert fit.r_squared_within == pytest.approx(oracle.rsquared, rel=1e-10)

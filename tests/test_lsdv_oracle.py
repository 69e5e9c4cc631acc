"""The specification ladder's fits against an explicit dummy-variable least-squares oracle.

LSDV is least squares with explicit dummy variables. The oracle never
demeans: it regresses the outcome on the spec's terms, T-1 year dummies
(two-way specs only), a constant (pooled specs only) and one dummy per
region (fixed-effects specs only) with np.linalg.lstsq, then builds the
classical covariance and the cluster-by-region sandwich by hand, with K
counted as every column it fits (fitted plus the region effects fit_model
absorbs; none for a pooled spec). The dummy-model scores of a region's own
dummy sum its residuals, which is zero, so both covariances of the slopes
equal fit_model's. A pooled spec's r_squared_within is the centered R^2 of
the same least-squares fit. The `a` (articles-and-reviews) variant runs on
panels given FWCIA, Q1SHA, NQSHA and log(PUB21EMPA) columns of their own.
"""
import numpy as np
import pytest

from rkpf.estimation import fit_model
from rkpf.simulate import DgpConfig, generate_panel
from rkpf.suite import MAIN_TAGS, expand_notation


def lsdv(d, spec, w):
    """Slopes, cluster-robust SEs and classical SEs of the spec's fitted columns, in
    fit_model's order: terms, year dummies, constant; and the centered R^2."""
    n, t = d.n_regions, d.n_years
    columns = []
    for term in spec.regressors:
        values = d.var(term.name)
        if term.squared:
            values = values * values
        if term.lag:
            values = w.w @ values
        columns.append(values.reshape(-1))
    region = np.repeat(np.arange(n), t)  # rows are region-major, year-minor
    year = np.tile(np.arange(t), n)
    if spec.time_dummies:
        columns.extend((year == j).astype(float) for j in range(1, t))
    if spec.intercept:
        columns.append(np.ones(n * t))
    k = len(columns)
    if spec.region_effects:
        columns.extend((region == g).astype(float) for g in range(n))
    X = np.column_stack(columns)
    y = d.var(spec.dependent).reshape(-1)

    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    u = y - X @ beta
    big_n, big_k = X.shape
    bread = np.linalg.inv(X.T @ X)
    classical = (u @ u) / (big_n - big_k) * bread
    scores = np.array([X[region == g].T @ u[region == g] for g in range(n)])
    factor = n / (n - 1) * (big_n - 1) / (big_n - big_k)
    robust = factor * bread @ (scores.T @ scores) @ bread
    centered = y - y.mean()
    r_squared = 1.0 - (u @ u) / (centered @ centered)
    return beta[:k], np.sqrt(np.diag(robust)[:k]), np.sqrt(np.diag(classical)[:k]), r_squared


CONFIGS = pytest.mark.parametrize(
    "cfg",
    [
        DgpConfig(n_regions=12, n_years=5, seed=1),
        DgpConfig(n_regions=20, n_years=8, seed=2, cluster_ar1=0.5),
        DgpConfig(n_regions=30, n_years=4, seed=3, noise_sd=1.0),
    ],
    ids=["12x5", "20x8-ar1", "30x4-noisy"],
)


def assert_matches_lsdv(d, spec, w):
    """fit_model's coefficients and both SE kinds equal the oracle's at 1e-8; returns the fit."""
    fit = fit_model(d, spec, w)
    beta, robust_se, classical_se, _ = lsdv(d, spec, w)

    labels = fit.column_labels
    assert len(labels) == len(beta)
    got = {
        "coefficients": [fit.coefficients[label] for label in labels],
        "robust": [fit.std_errors[label] for label in labels],
        "classical": [fit.classical_std_errors[label] for label in labels],
    }
    want = {"coefficients": beta, "robust": robust_se, "classical": classical_se}
    for kind in want:
        np.testing.assert_allclose(got[kind], want[kind], rtol=1e-8, err_msg=kind)
    return fit


@CONFIGS
@pytest.mark.parametrize("tag", MAIN_TAGS)
def test_ladder_matches_lsdv(tag, cfg):
    g = generate_panel(cfg)
    assert_matches_lsdv(g.dataset, expand_notation(tag), g.weights)


@CONFIGS
@pytest.mark.parametrize("tag", [t for t in MAIN_TAGS if not expand_notation(t).region_effects])
def test_pooled_r_squared_matches_lsdv(tag, cfg):
    """A pooled spec's r_squared_within is the centered R^2 of its least-squares fit."""
    g = generate_panel(cfg)
    fit = fit_model(g.dataset, expand_notation(tag), g.weights)
    r_squared = lsdv(g.dataset, expand_notation(tag), g.weights)[3]
    assert fit.r_squared_within == pytest.approx(r_squared, rel=1e-10)


def _with_article_columns(g, seed):
    """The generated dataset plus FWCIA, Q1SHA, NQSHA and log(PUB21EMPA): the
    articles-and-reviews counterparts, drawn to differ from the un-suffixed columns."""
    rng = np.random.default_rng(seed)
    d = g.dataset
    shape = (d.n_regions, d.n_years)
    columns = {
        "FWCIA": d.var("FWCI") * np.exp(0.3 * rng.standard_normal(shape)),
        "Q1SHA": d.var("Q1SH") * rng.uniform(0.5, 1.5, shape),
        "NQSHA": d.var("NQSH") * rng.uniform(0.5, 1.5, shape),
    }
    columns["log(PUB21EMPA)"] = (
        d.var("log(PUB21EMP)") + 0.2 * columns["FWCIA"] + 0.1 * rng.standard_normal(shape)
    )
    for name, values in columns.items():
        d = d.with_variable(name, values)
    return d


@CONFIGS
@pytest.mark.parametrize("tag", ["ols.q.a", "fe.tw.q.sl.a"])
def test_article_variant_matches_lsdv(tag, cfg):
    g = generate_panel(cfg)
    d = _with_article_columns(g, cfg.seed)
    spec = expand_notation(tag)
    assert spec.dependent == "log(PUB21EMPA)"
    assert {"FWCIA", "Q1SHA", "NQSHA"} <= {term.name for term in spec.regressors}
    fit = assert_matches_lsdv(d, spec, g.weights)
    # the un-suffixed tag fits other columns, so its estimates differ
    plain = fit_model(d, expand_notation(tag[: -len(".a")]), g.weights)
    assert plain.coefficients["FWCI"] != fit.coefficients["FWCIA"]

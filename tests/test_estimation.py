"""Design construction, within/LSDV estimation, and covariance oracles."""
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

import rkpf
from rkpf.cli import BLAS_THREAD_VARIABLES
from rkpf.errors import (
    MissingWeights,
    RankDeficient,
    SingleCluster,
    UnknownVariable,
    ZeroDof,
)
from rkpf.choices import COVARIANCE_KINDS, MAIN_TAGS
from rkpf.estimation import (
    QR_BLOCK_ROWS,
    ModelSpec,
    OlsFit,
    Term,
    _columns,
    _squared_correlation,
    _std_errors,
    build_design,
    classical_cov,
    cluster_robust_cov,
    design_dof,
    fit_block,
    fit_model,
    ols_fit,
    parse_term_label,
    significance_stars,
    take_lags,
    term_values,
    within_transform,
)
from rkpf.panel import PanelDataset
from rkpf.simulate import DgpConfig, generate_block, generate_panel
from rkpf.suite import expand_notation


def joined(X, y):
    """The [X y] buffer of X (..., N, k) and y (..., N), as build_design lays it out."""
    return np.concatenate([X, np.asarray(y, dtype=float)[..., np.newaxis]], axis=-1)


def demeaned(X, y, n_regions):
    """X and y demeaned by within_transform, as views of a fresh [X y] buffer."""
    xy = joined(X, y)
    within_transform(xy, n_regions)
    return xy[..., :-1], xy[..., -1]
from rkpf.weights import SpatialWeights, build_weights, weight_block_rows


def panel(regions, years, **variables):
    n, t = len(regions), len(years)
    return PanelDataset(
        tuple(regions),
        tuple(years),
        {k: np.asarray(v, dtype=float).reshape(n, t) for k, v in variables.items()},
    )


def random_panel(rng, n, t, var_names, first_year=2009):
    regions = tuple(f"R{i:02d}" for i in range(n))
    years = tuple(range(first_year, first_year + t))
    variables = {name: rng.normal(size=(n, t)) for name in var_names}
    return PanelDataset(regions, years, variables)


def random_weights(rng, regions):
    n = len(regions)
    c = rng.uniform(-1, 1, size=(n, n))
    c = (c + c.T) / 2
    np.fill_diagonal(c, 1.0)
    return build_weights(c, regions)


class TestTerm:
    def test_labels(self):
        assert Term("FWCI").label == "FWCI"
        assert Term("FWCI", squared=True).label == "FWCI^2"
        assert Term("FWCI", lag=True).label == "slFWCI"
        assert Term("FWCI", squared=True, lag=True).label == "slFWCI^2"

    def test_parse_round_trip(self):
        for term in (
            Term("Q1SH"),
            Term("FWCI", squared=True),
            Term("NQSH", lag=True),
            Term("FWCI", squared=True, lag=True),
        ):
            assert parse_term_label(term.label) == term


class TestModelSpec:
    def test_intercept_and_fe_exclusive(self):
        with pytest.raises(ValueError):
            ModelSpec("y", (Term("x"),), intercept=True, region_effects=True)

    def test_duplicate_terms_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec("y", (Term("x"), Term("x")))


class TestBuildDesign:
    def test_main_spec_column_count(self):
        # full two-way SLX spec on a T=12 panel: 10 substantive columns plus
        # 11 time dummies, no intercept
        rng = np.random.default_rng(0)
        d = random_panel(
            rng,
            6,
            12,
            [
                "log(EXPEMP10)",
                "log(GRPCAP10)",
                "log(PAPEMP)",
                "FWCI",
                "Q1SH",
                "NQSH",
                "log(PUB21EMP)",
            ],
        )
        w = random_weights(rng, d.region_ids)
        spec = expand_notation("fe.tw.q.sl")
        design = build_design(d, spec, w)
        assert design.X.shape == (72, 21)
        substantive = [l for l in design.column_labels if not l.startswith("year_")]
        assert len(substantive) == 10
        assert sum(1 for l in design.column_labels if l.startswith("year_")) == 11
        assert "const" not in design.column_labels
        assert design.column_labels[:10] == (
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
        )

    def test_intercept_only(self):
        d = panel(["A", "B"], [2009, 2010], y=[[1.0, 2.0], [3.0, 4.0]])
        spec = ModelSpec("y", (), intercept=True)
        design = build_design(d, spec)
        np.testing.assert_array_equal(design.X, np.ones((4, 1)))
        assert design.column_labels == ("const",)

    def test_squared_column(self):
        d = panel(["A"], [2009, 2010], y=[[1.0, 1.0]], x=[[2.0, 2.0]])
        spec = ModelSpec("y", (Term("x", squared=True),), intercept=True)
        design = build_design(d, spec)
        np.testing.assert_array_equal(design.X[:, 0], [4.0, 4.0])

    def test_first_year_is_dummy_baseline(self):
        d = panel(["A"], range(2009, 2012), y=[[1.0, 2.0, 3.0]])
        spec = ModelSpec("y", (), intercept=True, time_dummies=True)
        design = build_design(d, spec)
        assert design.column_labels == ("year_2010", "year_2011", "const")
        np.testing.assert_array_equal(design.X[:, 0], [0.0, 1.0, 0.0])

    def test_dummy_block_repeats_per_region(self):
        x = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        d = panel(["A", "B"], [2009, 2010, 2011], y=x, x=x)
        design = build_design(d, ModelSpec("y", (Term("x"),), intercept=True, time_dummies=True))
        year_rows = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        expected = np.column_stack([np.arange(1.0, 7.0), year_rows * 2, np.ones(6)])
        np.testing.assert_array_equal(design.X, expected)

    def test_single_year_dummies_alone_are_empty(self):
        d = panel(["A", "B"], [2009], y=[[1.0], [2.0]])
        with pytest.raises(ValueError, match="empty design"):
            build_design(d, ModelSpec("y", (), time_dummies=True))

    def test_row_order_region_major(self):
        d = panel(["A", "B"], [2009, 2010], y=[[1.0, 2.0], [3.0, 4.0]], x=[[5.0, 6.0], [7.0, 8.0]])
        design = build_design(d, ModelSpec("y", (Term("x"),), intercept=True))
        np.testing.assert_array_equal(design.y, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(design.X[:, 0], [5.0, 6.0, 7.0, 8.0])

    def test_missing_weights(self):
        d = panel(["A", "B"], [2009], y=[[1.0], [2.0]], x=[[3.0], [4.0]])
        spec = ModelSpec("y", (Term("x", lag=True),), intercept=True)
        with pytest.raises(MissingWeights):
            build_design(d, spec)

    def test_a_lag_term_that_skips_take_lags_raises(self):
        """Only take_lags meets W: a lag term that reaches a term or a design without
        it raises, named by its label (build_design takes it: test_missing_weights)."""
        d = panel(["A", "B"], [2009], y=[[1.0], [2.0]], x=[[3.0], [4.0]])
        spec = ModelSpec("y", (Term("x", squared=True, lag=True),), intercept=True)
        with pytest.raises(ValueError, match=r"^spatial lag term 'slx\^2' has no weights"):
            term_values(d, spec.regressors[0])
        with pytest.raises(ValueError, match=r"^spatial lag term 'slx\^2'"):
            _columns(d, spec)

    def test_unknown_variable(self):
        d = panel(["A", "B"], [2009], y=[[1.0], [2.0]])
        with pytest.raises(UnknownVariable):
            build_design(d, ModelSpec("y", (Term("zzz"),), intercept=True))


class TestWithinTransform:
    def test_region_constant_becomes_zero(self):
        X = np.array([[1.0], [1.0], [5.0], [5.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        Xd, _ = demeaned(X, y, 2)
        np.testing.assert_array_equal(Xd, 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        X1, y1 = demeaned(X, y, 3)
        X2, y2 = demeaned(X1, y1, 3)
        np.testing.assert_allclose(X1, X2, atol=1e-14)
        np.testing.assert_allclose(y1, y2, atol=1e-14)

    def test_two_region_toy(self):
        # (1,3 | 10,14) with region means 2 and 12 -> (-1,1 | -2,2)
        X = np.array([[1.0], [3.0], [10.0], [14.0]])
        y = np.zeros(4)
        Xd, _ = demeaned(X, y, 2)
        np.testing.assert_array_equal(Xd[:, 0], [-1.0, 1.0, -2.0, 2.0])

    def test_per_region_means_vanish(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        clusters = np.repeat(np.arange(5), 6)
        Xd, yd = demeaned(X, y, 5)
        for g in range(5):
            mask = clusters == g
            assert np.max(np.abs(Xd[mask].mean(axis=0))) < 1e-10
            assert abs(yd[mask].mean()) < 1e-10


class TestOlsFit:
    def test_exact_line(self):
        x = np.arange(1.0, 6.0)
        fit = ols_fit(joined(x[:, np.newaxis], 2.0 * x))
        assert fit.coefficients[0] == pytest.approx(2.0)
        assert fit.ssr == pytest.approx(0.0, abs=1e-24)

    def test_duplicated_column_rank_deficient(self):
        x = np.arange(1.0, 6.0)
        X = np.column_stack([x, x])
        with pytest.raises(RankDeficient, match="b"):
            ols_fit(joined(X, 2.0 * x), labels=("a", "b"))

    def test_simple_regression_closed_form(self):
        # oracle: slope = cov(x,y)/var(x), intercept = ybar - slope*xbar
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([1.0, 3.0, 4.0])
        X = np.column_stack([x, np.ones(3)])
        fit = ols_fit(joined(X, y))
        xbar, ybar = x.mean(), y.mean()
        slope = ((x - xbar) @ (y - ybar)) / ((x - xbar) @ (x - xbar))
        assert fit.coefficients[0] == pytest.approx(slope)
        assert fit.coefficients[0] == pytest.approx(1.5)
        assert fit.coefficients[1] == pytest.approx(ybar - slope * xbar)
        assert fit.coefficients[1] == pytest.approx(7.0 / 6.0)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            X = rng.normal(size=(40, 5))
            y = rng.normal(size=40)
            fit = ols_fit(joined(X, y))
            assert np.max(np.abs(X.T @ fit.residuals)) < 1e-8

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            rows = int(rng.integers(10, 51))
            cols = int(rng.integers(1, 9))
            X = rng.normal(size=(rows, cols))
            y = rng.normal(size=rows)
            fit = ols_fit(joined(X, y))
            oracle = np.linalg.solve(X.T @ X, X.T @ y)
            rel = np.max(np.abs(fit.coefficients - oracle)) / max(
                1.0, np.max(np.abs(oracle))
            )
            assert rel < 1e-8


class TestClassicalCov:
    def test_zero_residuals_zero_matrix(self):
        x = np.arange(1.0, 8.0)
        fit = ols_fit(joined(x[:, np.newaxis], 3.0 * x))
        cov = classical_cov(fit, 7 - 1)
        assert np.max(np.abs(cov)) < 1e-20

    def test_single_regressor_scalar_formula(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=25)
        y = 1.5 * x + rng.normal(size=25)
        X = x[:, np.newaxis]
        fit = ols_fit(joined(X, y))
        cov = classical_cov(fit, 25 - 1)
        s2 = fit.ssr / (25 - 1)
        assert cov[0, 0] == pytest.approx(s2 / (x @ x), rel=1e-10)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        X = np.column_stack([rng.normal(size=30), np.ones(30)])
        y = rng.normal(size=30)
        fit1 = ols_fit(joined(X, y))
        fit2 = ols_fit(joined(X, 2.0 * y))
        cov1 = classical_cov(fit1, 30 - 2)
        cov2 = classical_cov(fit2, 30 - 2)
        np.testing.assert_allclose(fit2.coefficients, 2.0 * fit1.coefficients)
        np.testing.assert_allclose(np.sqrt(np.diag(cov2)), 2.0 * np.sqrt(np.diag(cov1)))

    def test_symmetric_psd(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(20, 3))
        fit = ols_fit(joined(X, rng.normal(size=20)))
        cov = classical_cov(fit, 20 - 3)
        np.testing.assert_allclose(cov, cov.T, atol=1e-14)
        assert np.min(np.linalg.eigvalsh(cov)) > -1e-12


def brute_force_cluster_cov(X, residuals, clusters, n_absorbed=0):
    """Independent sandwich: explicit per-cluster outer products."""
    n, k = X.shape
    xtx_inv = np.linalg.inv(X.T @ X)
    meat = np.zeros((k, k))
    for g in np.unique(clusters):
        rows = np.nonzero(clusters == g)[0]
        score = np.zeros(k)
        for i in rows:
            score += X[i] * residuals[i]
        meat += np.outer(score, score)
    g_count = len(np.unique(clusters))
    big_k = k + n_absorbed
    factor = (g_count / (g_count - 1)) * ((n - 1) / (n - big_k))
    return factor * xtx_inv @ meat @ xtx_inv


class TestClusterRobustCov:
    def test_zero_residuals_zero_matrix(self):
        x = np.arange(1.0, 9.0)
        fit = ols_fit(joined(x[:, np.newaxis], 3.0 * x))
        cov = cluster_robust_cov(fit, x[:, np.newaxis], 2, 8 - 1)
        assert np.max(np.abs(cov)) < 1e-20

    def test_three_region_toy_matches_brute_force(self):
        rng = np.random.default_rng(8)
        X = np.column_stack([rng.normal(size=12), np.ones(12)])
        y = rng.normal(size=12)
        clusters = np.repeat([0, 1, 2], 4)
        fit = ols_fit(joined(X, y))
        cov = cluster_robust_cov(fit, X, 3, 12 - 2)
        oracle = brute_force_cluster_cov(X, fit.residuals, clusters)
        assert np.max(np.abs(cov - oracle)) < 1e-10

    def test_singleton_clusters_match_scaled_hc0(self):
        rng = np.random.default_rng(9)
        X = np.column_stack([rng.normal(size=20), np.ones(20)])
        y = rng.normal(size=20)
        fit = ols_fit(joined(X, y))
        cov = cluster_robust_cov(fit, X, 20, 20 - 2)
        xtx_inv = np.linalg.inv(X.T @ X)
        hc0 = xtx_inv @ (X.T @ np.diag(fit.residuals**2) @ X) @ xtx_inv
        n, k = X.shape
        scale = (n / (n - 1)) * ((n - 1) / (n - k))
        np.testing.assert_allclose(cov, scale * hc0, rtol=1e-10)

    def test_single_cluster_rejected(self):
        X = np.ones((5, 1))
        fit = ols_fit(joined(X, np.arange(5.0)))
        with pytest.raises(SingleCluster):
            cluster_robust_cov(fit, X, 1, 5 - 1)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(24, 3))
        fit = ols_fit(joined(X, rng.normal(size=24)))
        cov = cluster_robust_cov(fit, X, 6, 24 - 3)
        np.testing.assert_allclose(cov, cov.T, atol=1e-14)
        assert np.min(np.linalg.eigvalsh(cov)) > -1e-12


def masked_within_transform(X, y, clusters):
    """Reference demeaning: one boolean mask per cluster."""
    Xd = X.astype(float).copy()
    yd = y.astype(float).copy()
    for g in np.unique(clusters):
        mask = clusters == g
        Xd[mask] -= Xd[mask].mean(axis=0)
        yd[mask] -= yd[mask].mean()
    return Xd, yd


def masked_cluster_cov(fit, X, clusters, n_absorbed=0):
    """Reference sandwich: per-cluster masked scores, outer products summed in label order."""
    n, k = X.shape
    groups = np.unique(clusters)
    meat = np.zeros((k, k))
    for group in groups:
        mask = clusters == group
        score = X[mask].T @ fit.residuals[mask]
        meat += np.outer(score, score)
    g = groups.size
    factor = (g / (g - 1)) * ((n - 1) / (n - k - n_absorbed))
    return factor * fit.xtx_inverse @ meat @ fit.xtx_inverse


class TestRegionBlockKernels:
    """The (G, T, k) kernels equal the masked loops bit for bit."""

    def assert_kernels_match_loops(self, X, y, g, n_absorbed=0):
        clusters = np.repeat(np.arange(g), len(y) // g)
        Xd, yd = demeaned(X, y, g)
        Xm, ym = masked_within_transform(X, y, clusters)
        assert np.array_equal(Xd, Xm)
        assert np.array_equal(yd, ym)
        # singleton clusters demean to zero, so the sandwich gets the raw design
        # unless region effects are absorbed
        Xf, yf = (Xd, yd) if n_absorbed else (X, y)
        fit = ols_fit(joined(Xf, yf))
        dof = X.shape[0] - X.shape[1] - n_absorbed
        cov = cluster_robust_cov(fit, Xf, g, dof)
        assert np.array_equal(cov, masked_cluster_cov(fit, Xf, clusters, n_absorbed))

    @pytest.mark.parametrize(
        "g, t, k", [(2, 6, 3), (20, 1, 2), (7, 3, 1), (13, 9, 6), (78, 12, 5)]
    )
    def test_random_blocks(self, g, t, k):
        rng = np.random.default_rng(g * 100 + t * 10 + k)
        X = rng.normal(size=(g * t, k))
        y = rng.normal(size=g * t)
        self.assert_kernels_match_loops(X, y, g)

    def test_two_way_sl_design(self):
        generated = generate_panel(DgpConfig(n_regions=30, n_years=8, seed=5))
        spec = expand_notation("fe.tw.q.sl", "cluster_by_region")
        design = build_design(generated.dataset, spec, generated.weights)
        self.assert_kernels_match_loops(design.X, design.y, 30, 30)

    @pytest.mark.parametrize("n, g", [(4, 3), (3, 2), (6, 4), (7, 2)])
    def test_count_not_dividing_rows_rejected(self, n, g):
        rng = np.random.default_rng(n * 10 + g)
        X = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        with pytest.raises(ValueError, match="cannot reshape"):
            demeaned(X, y, g)
        fit = ols_fit(joined(X, y))
        with pytest.raises(ValueError, match="cannot reshape"):
            cluster_robust_cov(fit, X, g, n - 2)


class TestStackedKernels:
    """A stack of problems along a leading axis gets each problem's bits alone."""

    @pytest.mark.parametrize("g, t, k", [(6, 5, 3), (78, 12, 21)])
    def test_stack_equals_each_problem_alone(self, g, t, k):
        rng = np.random.default_rng(g + t + k)
        X = rng.normal(size=(3, g * t, k))
        y = rng.normal(size=(3, g * t))
        Xd, yd = demeaned(X, y, g)
        fit = ols_fit(joined(Xd, yd))
        dof = g * t - k - g
        classical = classical_cov(fit, dof)
        robust = cluster_robust_cov(fit, Xd, g, dof)
        for b in range(3):
            xb, yb = demeaned(X[b], y[b], g)
            alone = ols_fit(joined(xb, yb))
            assert xb.tobytes() == Xd[b].tobytes() and yb.tobytes() == yd[b].tobytes()
            for field in ("coefficients", "residuals", "xtx_inverse"):
                assert getattr(alone, field).tobytes() == getattr(fit, field)[b].tobytes()
            assert alone.ssr == fit.ssr[b]
            assert classical_cov(alone, dof).tobytes() == classical[b].tobytes()
            assert cluster_robust_cov(alone, xb, g, dof).tobytes() == robust[b].tobytes()

    def test_collapsed_column_of_a_later_problem_is_named(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(3, 40, 4))
        X[1, :, 2] = X[1, :, 0] - X[1, :, 1]
        with pytest.raises(RankDeficient, match="x2 is collinear"):
            ols_fit(joined(X, rng.normal(size=(3, 40))), ["x0", "x1", "x2", "x3"])


class TestFitModel:
    def make_fe_data(self, rng, n=8, t=6, noise=0.0):
        regions = tuple(f"R{i}" for i in range(n))
        years = tuple(range(2009, 2009 + t))
        x1 = rng.normal(size=(n, t))
        x2 = rng.normal(size=(n, t))
        mu = rng.normal(size=(n, 1))
        tau = np.linspace(0, 1, t)[np.newaxis, :]
        y = 1.5 * x1 - 0.7 * x2 + mu + tau + noise * rng.normal(size=(n, t))
        return PanelDataset(regions, years, {"y": y, "x1": x1, "x2": x2})

    def test_noiseless_two_way_recovery(self):
        d = self.make_fe_data(np.random.default_rng(11))
        spec = ModelSpec(
            "y",
            (Term("x1"), Term("x2")),
            region_effects=True,
            time_dummies=True,
            covariance="classical",
        )
        fit = fit_model(d, spec)
        assert fit.coefficients["x1"] == pytest.approx(1.5, abs=1e-10)
        assert fit.coefficients["x2"] == pytest.approx(-0.7, abs=1e-10)
        assert fit.r_squared_within == pytest.approx(1.0, abs=1e-12)

    def test_pooled_includes_constant(self):
        d = self.make_fe_data(np.random.default_rng(12), noise=0.5)
        spec = ModelSpec("y", (Term("x1"), Term("x2")), intercept=True)
        fit = fit_model(d, spec)
        assert "const" in fit.coefficients
        assert fit.n_absorbed == 0
        assert fit.dof == fit.n_obs - 3

    def test_within_equals_lsdv(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(3, 11))
            t = int(rng.integers(3, 7))
            d = self.make_fe_data(rng, n=n, t=t, noise=1.0)
            spec = ModelSpec(
                "y", (Term("x1"), Term("x2")), region_effects=True, covariance="classical"
            )
            fit = fit_model(d, spec)

            # LSDV oracle: explicit region dummies, no intercept
            design = build_design(d, ModelSpec("y", (Term("x1"), Term("x2"))))
            dummies = np.zeros((n * t, n))
            dummies[np.arange(n * t), np.repeat(np.arange(n), t)] = 1.0
            lsdv = ols_fit(np.column_stack([design.X, dummies, design.y]))
            assert abs(fit.coefficients["x1"] - lsdv.coefficients[0]) < 1e-8
            assert abs(fit.coefficients["x2"] - lsdv.coefficients[1]) < 1e-8

    def test_dof_accounts_for_absorbed_effects(self):
        d = self.make_fe_data(np.random.default_rng(14), n=8, t=6, noise=1.0)
        spec = ModelSpec("y", (Term("x1"),), region_effects=True, covariance="classical")
        fit = fit_model(d, spec)
        assert fit.dof == 48 - 1 - 8
        assert fit.n_absorbed == 8

    def test_regressor_scaling_leaves_t_unchanged(self):
        rng = np.random.default_rng(15)
        d = self.make_fe_data(rng, noise=0.8)
        scaled = d.with_variable("x1s", 10.0 * d.var("x1"))
        spec = lambda name: ModelSpec(
            "y", (Term(name), Term("x2")), region_effects=True, time_dummies=True
        )
        fit = fit_model(d, spec("x1"))
        fit_scaled = fit_model(scaled, spec("x1s"))
        assert fit_scaled.coefficients["x1s"] == pytest.approx(
            fit.coefficients["x1"] / 10.0, rel=1e-8
        )
        assert fit_scaled.std_errors["x1s"] == pytest.approx(
            fit.std_errors["x1"] / 10.0, rel=1e-8
        )
        assert fit_scaled.t_stats["x1s"] == pytest.approx(
            fit.t_stats["x1"], rel=1e-8
        )

    def test_spatially_constant_column_with_dummies_flagged(self):
        rng = np.random.default_rng(16)
        d = self.make_fe_data(rng, noise=0.5)
        constant = np.tile(rng.normal(size=(1, d.n_years)), (d.n_regions, 1))
        d2 = d.with_variable("zconst", constant)
        spec = ModelSpec(
            "y",
            (Term("x1"), Term("zconst")),
            region_effects=True,
            time_dummies=True,
        )
        with pytest.raises(RankDeficient):
            fit_model(d2, spec)

    def test_residual_orthogonality_after_fit(self):
        rng = np.random.default_rng(17)
        d = self.make_fe_data(rng, noise=1.2)
        spec = ModelSpec(
            "y", (Term("x1"), Term("x2")), region_effects=True, time_dummies=True
        )
        fit = fit_model(d, spec)
        design = build_design(d, spec)
        Xd, _ = demeaned(design.X, design.y, d.n_regions)
        assert np.max(np.abs(Xd.T @ fit.residuals)) < 1e-8

    def test_aic_formula(self):
        rng = np.random.default_rng(18)
        d = self.make_fe_data(rng, noise=1.0)
        spec = ModelSpec("y", (Term("x1"),), region_effects=True, covariance="classical")
        fit = fit_model(d, spec)
        k = fit.n_params + fit.n_absorbed
        assert fit.aic == pytest.approx(
            fit.n_obs * math.log(fit.ssr / fit.n_obs) + 2 * k
        )

    def test_p_values_use_t_distribution(self):
        rng = np.random.default_rng(19)
        d = self.make_fe_data(rng, noise=1.0)
        spec = ModelSpec("y", (Term("x1"),), region_effects=True, covariance="classical")
        fit = fit_model(d, spec)
        t_val = fit.t_stats["x1"]
        with mpmath.workdps(50):  # P(|T| > t) = I_x(dof/2, 1/2), x = dof / (dof + t^2)
            x = mpmath.mpf(fit.dof) / (fit.dof + mpmath.mpf(t_val) ** 2)
            want = mpmath.betainc(mpmath.mpf(fit.dof) / 2, 0.5, 0, x, regularized=True)
        assert fit.p_values["x1"] == pytest.approx(float(want), rel=1e-12)

    def test_cluster_covariance_default(self):
        rng = np.random.default_rng(20)
        d = self.make_fe_data(rng, noise=1.0)
        spec = ModelSpec("y", (Term("x1"),), region_effects=True)
        fit = fit_model(d, spec)
        assert fit.spec.covariance == "cluster_by_region"
        assert fit.to_dict()["metadata"]["covariance"] == "cluster_by_region"

    def test_zero_dof(self):
        # 9 observations: fewer than the 12 columns and 3 region effects of fe.tw.q.sl
        generated = generate_panel(DgpConfig(n_regions=3, n_years=3, seed=1))
        spec = expand_notation("fe.tw.q.sl", "cluster_by_region")
        with pytest.raises(ZeroDof, match="no residual degrees of freedom"):
            fit_model(generated.dataset, spec, generated.weights)

    def test_one_xtx_inverse_serves_both_error_kinds(self, monkeypatch):
        calls = []
        real_inverse = np.linalg.inv

        def counting_inverse(r):
            calls.append(r.shape)
            return real_inverse(r)

        monkeypatch.setattr(np.linalg, "inv", counting_inverse)
        d = self.make_fe_data(np.random.default_rng(21), noise=1.0)
        spec = ModelSpec("y", (Term("x1"), Term("x2")), region_effects=True)
        fit = fit_model(d, spec)
        assert len(calls) == 1
        classical = fit_model(d, replace(spec, covariance="classical"))
        assert fit.classical_std_errors == classical.std_errors
        assert fit.classical_p_values == classical.p_values
        assert fit.classical_std_errors != fit.std_errors
        assert classical.classical_std_errors == classical.std_errors


def copied_fit(X, y, n_regions: int, region_effects: bool):
    """The least-squares fit by the route that copies the design: demeaned copies of
    X (..., N, k) and y (..., N), np.concatenate of [X y] and its R as ols_fit takes
    it: np.linalg.qr of up to 1000 rows, else R <- R of [R; next 1000 rows].
    Returns the fit and the X and y it was fitted on."""
    X, y = np.array(X), np.array(y)
    if region_effects:
        X4 = X.reshape(*X.shape[:-2], n_regions, -1, X.shape[-1])
        y3 = y.reshape(*y.shape[:-1], n_regions, -1)
        X = (X4 - X4.mean(axis=-2, keepdims=True)).reshape(X.shape)
        y = (y3 - y3.mean(axis=-1, keepdims=True)).reshape(y.shape)
    k = X.shape[-1]
    xy = np.concatenate([X, y[..., np.newaxis]], axis=-1)
    r_xy = np.linalg.qr(xy[..., :1000, :], mode="r")
    for start in range(1000, xy.shape[-2], 1000):
        r_xy = np.linalg.qr(np.concatenate([r_xy, xy[..., start:start + 1000, :]], axis=-2),
                            mode="r")
    r_inv = np.linalg.inv(r_xy[..., :k, :k])
    coef = (r_inv @ r_xy[..., :k, k, np.newaxis])[..., 0]
    residuals = y - (X @ coef[..., np.newaxis])[..., 0]
    ssr = (residuals[..., np.newaxis, :] @ residuals[..., np.newaxis])[..., 0, 0]
    return OlsFit(coef, residuals, ssr, r_inv @ np.swapaxes(r_inv, -1, -2)), X, y


def copied_errors(fit, X, spec, n_regions: int, dof: int):
    """(spec's standard errors, classical ones) of a copied_fit on X."""
    classical = _std_errors(classical_cov(fit, dof))
    if spec.covariance == "classical":
        return classical, classical
    return _std_errors(cluster_robust_cov(fit, X, n_regions, dof)), classical


# the spatial-lag specs of the paper's ladder, pooled and two-way
LAG_TAGS = ("ols.q.sl", "fe.tw.q.sl")


class TestOneBuffer:
    """The fit from its design, built by blocks of regions (fit_model) or as one [X y]
    buffer demeaned in place (fit_block), and factorised by chunks, gives the bits of
    the route that copies the whole design four times."""

    @pytest.mark.parametrize("covariance", COVARIANCE_KINDS)
    @pytest.mark.parametrize(
        "n, t, tags",
        # 700 x 12 puts N past numpy's 8192-element reduction buffer. From 1200 x 3 on,
        # fit_model builds its design by blocks of regions, and the 1000-row chunks of
        # every product over the rows cut regions (except at T = 20).
        [(40, 9, MAIN_TAGS), (700, 12, ("ols.q", "fe.tw.q.sl")),
         pytest.param(1200, 3, LAG_TAGS, id="1200x3"),
         pytest.param(1500, 12, LAG_TAGS, id="1500x12"),
         pytest.param(250, 20, LAG_TAGS, id="250x20"),
         # At T = 3 the regions that fit 1000 rows make a block of 333 regions, 999
         # rows. With OpenBLAS, X b over 999-row blocks differs in the last bits from
         # the whole product in some rows (18 of 9000 of a 9000 x 30 product), where
         # over 1000-row chunks it does not: residuals taken by region blocks broke
         # these bits. So X b and the residuals go by the chunks of the QR.
         pytest.param(1500, 3, LAG_TAGS, id="999-row-region-blocks")],
    )
    def test_fit_model_has_the_bits_of_the_copying_route(self, n, t, tags, covariance):
        g = generate_panel(DgpConfig(n_regions=n, n_years=t, seed=n + t))
        specs = [expand_notation(tag, covariance) for tag in tags]
        # with neither a constant nor region effects, R^2 within reads y uncentered
        specs.append(replace(specs[0], intercept=False))
        for spec in specs:
            got = fit_model(g.dataset, spec, g.weights)
            design = build_design(g.dataset, spec, g.weights)
            X, y = design.X.copy(), design.y.copy()
            fit, Xf, yf = copied_fit(X, y, n, spec.region_effects)
            se, classical = copied_errors(fit, Xf, spec, n, got.dof)
            centered = yf - yf.mean() if (spec.intercept or spec.region_effects) else yf
            want = {
                "coefficients": fit.coefficients.tobytes(),
                "std_errors": se.tobytes(),
                "classical_std_errors": classical.tobytes(),
                "residuals": fit.residuals.tobytes(),
                "ssr": float(fit.ssr),
                "r_squared_within": 1.0 - float(fit.ssr) / float(centered @ centered),
                "r_squared_overall": _squared_correlation(X @ fit.coefficients, y),
            }
            labels = got.column_labels
            assert {
                "coefficients": np.array([got.coefficients[a] for a in labels]).tobytes(),
                "std_errors": np.array([got.std_errors[a] for a in labels]).tobytes(),
                "classical_std_errors": np.array(
                    [got.classical_std_errors[a] for a in labels]).tobytes(),
                "residuals": got.residuals.tobytes(),
                "ssr": got.ssr,
                "r_squared_within": got.r_squared_within,
                "r_squared_overall": got.r_squared_overall,
            } == want, spec

    @pytest.mark.parametrize("covariance", COVARIANCE_KINDS)
    @pytest.mark.parametrize("tag", ["ols.q", "fe.tw.q.sl"])
    def test_fit_block_has_the_bits_of_the_copying_route(self, tag, covariance):
        cfg = DgpConfig(n_regions=30, n_years=8, seed=9)
        streams = np.random.SeedSequence(cfg.seed).spawn(3)
        block = generate_block(cfg, [np.random.default_rng(s) for s in streams])
        spec = expand_notation(tag, covariance)
        lagged, [plain] = take_lags(block, [spec], block)
        xy = build_design(lagged, plain).xy
        _, dof = design_dof(spec, 30, 8)
        fit, Xf, _ = copied_fit(xy[..., :-1], xy[..., -1], 30, spec.region_effects)
        se, _ = copied_errors(fit, Xf, spec, 30, dof)
        coefficients, errors = fit_block(block, spec)
        assert coefficients.tobytes() == fit.coefficients.tobytes()
        assert errors.tobytes() == se.tobytes()
        # a buffer that Monte Carlo reuses across blocks, larger and not blank
        reused = fit_block(block, spec, np.full(xy.size + 7, np.nan))
        assert [a.tobytes() for a in reused] == [coefficients.tobytes(), errors.tobytes()]

    def test_fit_block_has_the_bits_of_fit_model_past_one_w_block(self):
        """At 1500 regions W is five blocks of rows: the lags of a stack of panels, as
        fit_block takes them, and each panel's lags, as fit_model takes them, have the
        same bits, and so do the fits."""
        cfg = DgpConfig(n_regions=1500, n_years=3, seed=4)
        assert weight_block_rows(1500) < 1500
        streams = np.random.SeedSequence(cfg.seed).spawn(2)
        block = generate_block(cfg, [np.random.default_rng(s) for s in streams])
        for tag in ("ols.q.sl", "fe.tw.q.sl"):
            spec = expand_notation(tag, "cluster_by_region")
            coefficients, errors = fit_block(block, spec)
            for b in range(2):
                alone = PanelDataset(
                    block.region_ids, block.years, {k: v[b] for k, v in block.variables.items()}
                )
                got = fit_model(alone, spec, SpatialWeights(block.region_ids, block.w[b]))
                labels = got.column_labels
                assert coefficients[b].tobytes() == np.array(
                    [got.coefficients[a] for a in labels]).tobytes(), (tag, b)
                assert errors[b].tobytes() == np.array(
                    [got.std_errors[a] for a in labels]).tobytes(), (tag, b)

    def test_design_is_views_of_one_buffer(self):
        g = generate_panel(DgpConfig(n_regions=12, n_years=5, seed=2))
        design = build_design(g.dataset, expand_notation("fe.tw.q.sl", "classical"), g.weights)
        assert design.xy.flags.c_contiguous
        assert np.shares_memory(design.X, design.xy) and np.shares_memory(design.y, design.xy)
        assert not (design.X.flags.owndata or design.y.flags.owndata)
        assert design.xy.shape == (60, len(design.column_labels) + 1)

    def test_within_transform_refuses_a_buffer_it_cannot_demean_in_place(self):
        xy = np.ones((8, 3))
        with pytest.raises(ValueError, match="C-contiguous"):
            within_transform(xy[:, :2], 2)

    def test_one_fit_holds_no_whole_design(self):
        """One fe.tw.q.sl fit builds its design by blocks of regions and never holds
        it whole (2.1 MB here): tracemalloc's peak is about half of one design. It
        holds the three lags, columns of the dataset (0.16 of a design); the residuals,
        the raw fitted values and the demeaned response, whole for the bits of the
        SSR and both R^2, and the cluster scores (together 0.22); and one block of rows,
        whose chunk the QR copies twice. The design held whole made the peak 1.3
        designs, and the QR's two whole copies of it 2.9."""
        g = generate_panel(DgpConfig(n_regions=1000, n_years=12, seed=3))
        spec = expand_notation("fe.tw.q.sl", "cluster_by_region")
        k, _ = design_dof(spec, 1000, 12)
        buffer = 1000 * 12 * (k + 1) * 8
        fit_model(g.dataset, spec, g.weights)  # first-call caches out of the measurement
        tracemalloc.start()
        try:
            fit_model(g.dataset, spec, g.weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * buffer


def outer_product_meat(scores):
    """The cluster meat as the sum of the G outer products, with its (..., G, k, k)
    temporary."""
    return (scores[..., :, np.newaxis] * scores[..., np.newaxis, :]).sum(axis=-3)


class TestClusterMeat:
    """cluster_robust_cov sums the G outer products with einsum, with no (..., G, k, k)
    temporary and the bits of the outer-product sum."""

    @pytest.mark.parametrize("stack", [(), (3,)])
    @pytest.mark.parametrize("g", [2, 78, 2000])
    def test_has_the_bits_of_the_outer_product_sum(self, g, stack):
        rng = np.random.default_rng(g)
        t, k = 5, 29
        X = rng.standard_normal((*stack, g * t, k))
        residuals = rng.standard_normal((*stack, g * t))
        xtx_inverse = np.broadcast_to(np.eye(k), (*stack, k, k))
        fit = OlsFit(np.zeros((*stack, k)), residuals, np.zeros(stack), xtx_inverse)
        scores = (np.swapaxes(X.reshape(*stack, g, t, k), -1, -2)
                  @ residuals.reshape(*stack, g, t, 1))[..., 0]
        dof = g * t - k
        want = ((g / (g - 1)) * ((g * t - 1) / dof)) * xtx_inverse @ outer_product_meat(
            scores) @ xtx_inverse
        assert cluster_robust_cov(fit, X, g, dof).tobytes() == want.tobytes()

    def test_holds_no_g_by_k_by_k_temporary(self):
        g, t, k = 2000, 2, 29
        rng = np.random.default_rng(1)
        X = rng.standard_normal((g * t, k))
        fit = OlsFit(np.zeros(k), rng.standard_normal(g * t), np.float64(0.0), np.eye(k))
        cluster_robust_cov(fit, X, g, g * t - k)  # first-call caches out of the measurement
        tracemalloc.start()
        try:
            cluster_robust_cov(fit, X, g, g * t - k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the outer products alone are 13.5 MB


class TestRowBlockedQr:
    """ols_fit factorises a buffer of more than QR_BLOCK_ROWS rows block by block."""

    @pytest.mark.parametrize("rows", [31, 500, 936, QR_BLOCK_ROWS])
    def test_one_block_is_one_qr(self, rows):
        xy = np.random.default_rng(rows).standard_normal((rows, 31))
        k = 30
        r_xy = np.linalg.qr(xy, mode="r")
        r_inv = np.linalg.inv(r_xy[:k, :k])
        coef = r_inv @ r_xy[:k, k]
        fit = ols_fit(xy)
        assert fit.coefficients.tobytes() == coef.tobytes()
        assert fit.xtx_inverse.tobytes() == (r_inv @ r_inv.T).tobytes()

    def test_many_blocks_agree_with_lstsq(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40000, 30)) * rng.uniform(0.1, 10.0, 30)
        y = X @ rng.standard_normal(30) + rng.standard_normal(40000)
        want = np.linalg.lstsq(X, y, rcond=None)[0]
        got = ols_fit(joined(X, y)).coefficients
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12

    def test_collinearity_that_no_single_block_shows_is_named(self):
        """Columns 1 and 2 are zero in all but the last block; there column 2 is twice
        column 1, and each block alone has the other columns' full rank."""
        rng = np.random.default_rng(6)
        n = 3 * QR_BLOCK_ROWS + 7
        X = rng.standard_normal((n, 4))
        X[:, 1:3] = 0.0
        X[-50:, 1] = rng.standard_normal(50)
        X[-50:, 2] = 2.0 * X[-50:, 1]
        labels = ("a", "b", "c", "d")
        with pytest.raises(RankDeficient, match="c is collinear"):
            ols_fit(joined(X, rng.standard_normal(n)), labels)
        X[-50:, 2] = rng.standard_normal(50)  # a column nonzero in one block only
        assert np.all(np.isfinite(ols_fit(joined(X, rng.standard_normal(n)), labels).coefficients))

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        """ols_fit of a 40000 x 31 [X y] buffer, the fe.tw.q.sl shape at 2000 x 20, in
        processes with 1 and 2 BLAS threads: one QR of it differs between them. Its
        coefficients, (X'X)^-1, residuals and cluster covariance over 2000 regions have
        the same bits, and so has the cluster covariance of a stack of two 78 x 12
        fits, Monte Carlo's block. (Its SSR does not: it differs by 1 ulp.)"""
        script = (
            "import sys, numpy as np\n"
            "from rkpf.estimation import cluster_robust_cov, ols_fit\n"
            "xy = np.random.default_rng(5).standard_normal((40000, 31))\n"
            "fit = ols_fit(xy)\n"
            "stack = np.random.default_rng(6).standard_normal((2, 936, 22))\n"
            "parts = [fit.coefficients, fit.xtx_inverse, fit.residuals,\n"
            "         cluster_robust_cov(fit, xy[:, :-1], 2000, 40000 - 30),\n"
            "         cluster_robust_cov(ols_fit(stack), stack[..., :-1], 78, 936 - 21)]\n"
            "sys.stdout.write(b''.join(p.tobytes() for p in parts).hex())\n"
        )
        src = str(Path(rkpf.__file__).resolve().parents[1])
        out = {}
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src}
            env.update({name: threads for name in BLAS_THREAD_VARIABLES})
            out[threads] = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                check=True, timeout=120,
            ).stdout
        assert out["1"] and out["1"] == out["2"]


class TestStars:
    def test_thresholds(self):
        assert significance_stars(0.004) == "***"
        assert significance_stars(0.04) == "**"
        assert significance_stars(0.07) == "*"
        assert significance_stars(0.2) == ""

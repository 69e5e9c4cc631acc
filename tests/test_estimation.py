"""Design construction, within/LSDV estimation, and covariance oracles."""
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from rkpf.errors import (
    MissingWeights,
    RankDeficient,
    SingleCluster,
    UnknownVariable,
    ZeroDof,
)
from rkpf.estimation import (
    ModelSpec,
    Term,
    build_design,
    classical_cov,
    cluster_robust_cov,
    fit_model,
    ols_fit,
    parse_term_label,
    significance_stars,
    within_transform,
)
from rkpf.panel import PanelDataset
from rkpf.simulate import DgpConfig, generate_panel
from rkpf.suite import expand_notation
from rkpf.weights import build_weights


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

    def test_unknown_variable(self):
        d = panel(["A", "B"], [2009], y=[[1.0], [2.0]])
        with pytest.raises(UnknownVariable):
            build_design(d, ModelSpec("y", (Term("zzz"),), intercept=True))


class TestWithinTransform:
    def test_region_constant_becomes_zero(self):
        X = np.array([[1.0], [1.0], [5.0], [5.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        Xd, _ = within_transform(X, y, 2)
        np.testing.assert_array_equal(Xd, 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        X1, y1 = within_transform(X, y, 3)
        X2, y2 = within_transform(X1, y1, 3)
        np.testing.assert_allclose(X1, X2, atol=1e-14)
        np.testing.assert_allclose(y1, y2, atol=1e-14)

    def test_two_region_toy(self):
        # (1,3 | 10,14) with region means 2 and 12 -> (-1,1 | -2,2)
        X = np.array([[1.0], [3.0], [10.0], [14.0]])
        y = np.zeros(4)
        Xd, _ = within_transform(X, y, 2)
        np.testing.assert_array_equal(Xd[:, 0], [-1.0, 1.0, -2.0, 2.0])

    def test_per_region_means_vanish(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        clusters = np.repeat(np.arange(5), 6)
        Xd, yd = within_transform(X, y, 5)
        for g in range(5):
            mask = clusters == g
            assert np.max(np.abs(Xd[mask].mean(axis=0))) < 1e-10
            assert abs(yd[mask].mean()) < 1e-10


class TestOlsFit:
    def test_exact_line(self):
        x = np.arange(1.0, 6.0)
        fit = ols_fit(x[:, np.newaxis], 2.0 * x)
        assert fit.coefficients[0] == pytest.approx(2.0)
        assert fit.ssr == pytest.approx(0.0, abs=1e-24)

    def test_duplicated_column_rank_deficient(self):
        x = np.arange(1.0, 6.0)
        X = np.column_stack([x, x])
        with pytest.raises(RankDeficient, match="b"):
            ols_fit(X, 2.0 * x, labels=("a", "b"))

    def test_simple_regression_closed_form(self):
        # oracle: slope = cov(x,y)/var(x), intercept = ybar - slope*xbar
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([1.0, 3.0, 4.0])
        X = np.column_stack([x, np.ones(3)])
        fit = ols_fit(X, y)
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
            fit = ols_fit(X, y)
            assert np.max(np.abs(X.T @ fit.residuals)) < 1e-8

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            rows = int(rng.integers(10, 51))
            cols = int(rng.integers(1, 9))
            X = rng.normal(size=(rows, cols))
            y = rng.normal(size=rows)
            fit = ols_fit(X, y)
            oracle = np.linalg.solve(X.T @ X, X.T @ y)
            rel = np.max(np.abs(fit.coefficients - oracle)) / max(
                1.0, np.max(np.abs(oracle))
            )
            assert rel < 1e-8


class TestClassicalCov:
    def test_zero_residuals_zero_matrix(self):
        x = np.arange(1.0, 8.0)
        fit = ols_fit(x[:, np.newaxis], 3.0 * x)
        cov = classical_cov(fit, 7 - 1)
        assert np.max(np.abs(cov)) < 1e-20

    def test_single_regressor_scalar_formula(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=25)
        y = 1.5 * x + rng.normal(size=25)
        X = x[:, np.newaxis]
        fit = ols_fit(X, y)
        cov = classical_cov(fit, 25 - 1)
        s2 = fit.ssr / (25 - 1)
        assert cov[0, 0] == pytest.approx(s2 / (x @ x), rel=1e-10)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        X = np.column_stack([rng.normal(size=30), np.ones(30)])
        y = rng.normal(size=30)
        fit1 = ols_fit(X, y)
        fit2 = ols_fit(X, 2.0 * y)
        cov1 = classical_cov(fit1, 30 - 2)
        cov2 = classical_cov(fit2, 30 - 2)
        np.testing.assert_allclose(fit2.coefficients, 2.0 * fit1.coefficients)
        np.testing.assert_allclose(np.sqrt(np.diag(cov2)), 2.0 * np.sqrt(np.diag(cov1)))

    def test_symmetric_psd(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(20, 3))
        fit = ols_fit(X, rng.normal(size=20))
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
        fit = ols_fit(x[:, np.newaxis], 3.0 * x)
        cov = cluster_robust_cov(fit, x[:, np.newaxis], 2, 8 - 1)
        assert np.max(np.abs(cov)) < 1e-20

    def test_three_region_toy_matches_brute_force(self):
        rng = np.random.default_rng(8)
        X = np.column_stack([rng.normal(size=12), np.ones(12)])
        y = rng.normal(size=12)
        clusters = np.repeat([0, 1, 2], 4)
        fit = ols_fit(X, y)
        cov = cluster_robust_cov(fit, X, 3, 12 - 2)
        oracle = brute_force_cluster_cov(X, fit.residuals, clusters)
        assert np.max(np.abs(cov - oracle)) < 1e-10

    def test_singleton_clusters_match_scaled_hc0(self):
        rng = np.random.default_rng(9)
        X = np.column_stack([rng.normal(size=20), np.ones(20)])
        y = rng.normal(size=20)
        fit = ols_fit(X, y)
        cov = cluster_robust_cov(fit, X, 20, 20 - 2)
        xtx_inv = np.linalg.inv(X.T @ X)
        hc0 = xtx_inv @ (X.T @ np.diag(fit.residuals**2) @ X) @ xtx_inv
        n, k = X.shape
        scale = (n / (n - 1)) * ((n - 1) / (n - k))
        np.testing.assert_allclose(cov, scale * hc0, rtol=1e-10)

    def test_single_cluster_rejected(self):
        X = np.ones((5, 1))
        fit = ols_fit(X, np.arange(5.0))
        with pytest.raises(SingleCluster):
            cluster_robust_cov(fit, X, 1, 5 - 1)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(24, 3))
        fit = ols_fit(X, rng.normal(size=24))
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
        Xd, yd = within_transform(X, y, g)
        Xm, ym = masked_within_transform(X, y, clusters)
        assert np.array_equal(Xd, Xm)
        assert np.array_equal(yd, ym)
        # singleton clusters demean to zero, so the sandwich gets the raw design
        # unless region effects are absorbed
        Xf, yf = (Xd, yd) if n_absorbed else (X, y)
        fit = ols_fit(Xf, yf)
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
            within_transform(X, y, g)
        fit = ols_fit(X, y)
        with pytest.raises(ValueError, match="cannot reshape"):
            cluster_robust_cov(fit, X, g, n - 2)


class TestStackedKernels:
    """A stack of problems along a leading axis gets each problem's bits alone."""

    @pytest.mark.parametrize("g, t, k", [(6, 5, 3), (78, 12, 21)])
    def test_stack_equals_each_problem_alone(self, g, t, k):
        rng = np.random.default_rng(g + t + k)
        X = rng.normal(size=(3, g * t, k))
        y = rng.normal(size=(3, g * t))
        Xd, yd = within_transform(X, y, g)
        fit = ols_fit(Xd, yd)
        dof = g * t - k - g
        classical = classical_cov(fit, dof)
        robust = cluster_robust_cov(fit, Xd, g, dof)
        for b in range(3):
            xb, yb = within_transform(X[b], y[b], g)
            alone = ols_fit(xb, yb)
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
            ols_fit(X, rng.normal(size=(3, 40)), ["x0", "x1", "x2", "x3"])


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
            lsdv = ols_fit(np.hstack([design.X, dummies]), design.y)
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
        Xd, _ = within_transform(design.X, design.y, d.n_regions)
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


class TestStars:
    def test_thresholds(self):
        assert significance_stars(0.004) == "***"
        assert significance_stars(0.04) == "**"
        assert significance_stars(0.07) == "*"
        assert significance_stars(0.2) == ""

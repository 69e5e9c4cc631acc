"""Least-squares panel estimation with fixed effects and robust covariance.

Region effects are absorbed by within-group demeaning; time effects enter as
explicit dummies with the first year as baseline. The least-squares core is
QR-based. Covariance is either classical or a cluster-by-region sandwich
with the small-sample factor G/(G-1) * (N-1)/(N-K), where K counts fitted
columns plus absorbed region effects (the same convention used for degrees
of freedom and t-distribution p-values). Rows come as G region blocks of T
years (build_design's layout), so demeaning and the sandwich take the region
count G and reshape; a count that does not divide the rows is a ValueError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import stdtr

from .errors import (
    MissingWeights,
    NonFiniteFit,
    RankDeficient,
    RegionOrderMismatch,
    SingleCluster,
    UnknownVariable,
    ZeroDof,
)
from .panel import PanelDataset
from .weights import SpatialWeights, lag_values

COVARIANCE_KINDS = ("classical", "cluster_by_region")

# Table-style significance thresholds: *** 0.01, ** 0.05, * 0.10
STAR_LEVELS = ((0.01, "***"), (0.05, "**"), (0.10, "*"))


def significance_stars(p: float) -> str:
    for level, stars in STAR_LEVELS:
        if p < level:
            return stars
    return ""


@dataclass(frozen=True)
class Term:
    """One regressor: a variable, optionally squared, optionally spatially lagged."""

    name: str
    squared: bool = False
    lag: bool = False

    @property
    def label(self) -> str:
        lbl = self.name + ("^2" if self.squared else "")
        return f"sl{lbl}" if self.lag else lbl


def parse_term_label(label: str) -> Term:
    """Inverse of Term.label ("slFWCI" -> lag of FWCI, "FWCI^2" -> square)."""
    lag = label.startswith("sl")
    if lag:
        label = label[2:]
    squared = label.endswith("^2")
    if squared:
        label = label[:-2]
    return Term(label, squared=squared, lag=lag)


@dataclass(frozen=True)
class ModelSpec:
    """Declarative regression specification."""

    dependent: str
    regressors: tuple[Term, ...]
    intercept: bool = False
    region_effects: bool = False
    time_dummies: bool = False
    covariance: str = "cluster_by_region"

    def __post_init__(self):
        if self.intercept and self.region_effects:
            raise ValueError(
                "intercept and region_effects are mutually exclusive "
                "(fixed effects absorb the constant)"
            )
        if self.covariance not in COVARIANCE_KINDS:
            raise ValueError(f"covariance must be one of {COVARIANCE_KINDS}")
        terms = tuple(self.regressors)
        if len({(t.name, t.squared, t.lag) for t in terms}) != len(terms):
            raise ValueError("duplicate regressor terms")
        object.__setattr__(self, "regressors", terms)

    def needs_weights(self) -> bool:
        return any(t.lag for t in self.regressors)


@dataclass(frozen=True)
class Design:
    """Stacked design matrix and response.

    Rows are region-major, year-minor. Columns: regressor terms in spec
    order, then T-1 time dummies (first year baseline), then the intercept.
    """

    X: np.ndarray
    y: np.ndarray
    column_labels: tuple[str, ...]


def _finite(d: PanelDataset, label: str, values: np.ndarray) -> np.ndarray:
    """values, unless a cell is missing (NaN) or overflowed when squared or lagged."""
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise UnknownVariable(
            f"{label!r} is missing or not finite at {d.region_ids[i]}, {d.years[j]}: an "
            "unbalanced panel, or a value whose square or spatial lag overflows"
        )
    return values


def term_values(d: PanelDataset, term: Term, w: SpatialWeights | None) -> np.ndarray:
    """A term's (n, T) values: its variable, squared and/or spatially lagged by w."""
    values = _finite(d, term.name, d.var(term.name))
    if term.squared:
        with np.errstate(over="ignore"):  # _finite names a term that overflows
            values = values**2
    if term.lag:
        values = lag_values(w, values)
    return _finite(d, term.label, values)


def require_weights(specs, weights_given: bool) -> None:
    """Raise MissingWeights if no weights are given and a spec has spatial-lag terms."""
    if not weights_given and any(spec.needs_weights() for spec in specs):
        raise MissingWeights("spec contains spatial-lag terms but no weights given")


def build_design(
    d: PanelDataset, spec: ModelSpec, w: SpatialWeights | None = None
) -> Design:
    """Assemble the stacked design matrix and response for a ModelSpec."""
    require_weights([spec], w is not None)
    if w is not None and w.regions != d.region_ids:
        raise RegionOrderMismatch("weights regions do not match dataset regions")

    n, t = d.n_regions, d.n_years
    y = _finite(d, spec.dependent, d.var(spec.dependent)).reshape(-1)

    labels = [term.label for term in spec.regressors]
    if spec.time_dummies:
        labels += [f"year_{year}" for year in d.years[1:]]
    if spec.intercept:
        labels.append("const")
    if not labels:
        raise ValueError("empty design: no regressors, dummies, or intercept")

    X = np.ones((n * t, len(labels)))  # the const column, if any, keeps its ones
    for j, term in enumerate(spec.regressors):
        X[:, j] = term_values(d, term, w).reshape(-1)
    if spec.time_dummies:  # every region's T rows get the year identity, first year dropped
        k = len(spec.regressors)
        X.reshape(n, t, -1)[:, :, k : k + t - 1] = np.eye(t)[:, 1:]
    return Design(X, y, tuple(labels))


def within_transform(
    X: np.ndarray, y: np.ndarray, n_regions: int
) -> tuple[np.ndarray, np.ndarray]:
    """Subtract each region's mean from its rows, the n_regions equal blocks of X and y."""
    X3 = np.asarray(X, dtype=float).reshape(n_regions, -1, np.shape(X)[1])
    y2 = np.asarray(y, dtype=float).reshape(n_regions, -1)
    Xd = X3 - X3.mean(axis=1, keepdims=True)
    return Xd.reshape(y2.size, -1), (y2 - y2.mean(axis=1, keepdims=True)).reshape(-1)


@dataclass(frozen=True)
class OlsFit:
    coefficients: np.ndarray
    residuals: np.ndarray
    ssr: float
    xtx_inverse: np.ndarray  # (X'X)^-1 from the QR's R, shared by both covariances


def _xtx_inverse(r: np.ndarray) -> np.ndarray:
    r_inv = solve_triangular(r, np.eye(r.shape[0]))
    return r_inv @ r_inv.T


def ols_fit(X: np.ndarray, y: np.ndarray, labels=None) -> OlsFit:
    """Least squares via QR; rank deficiency is a hard error.

    The first column whose R diagonal collapses is reported as linearly
    dependent on the columns before it.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] < X.shape[1]:
        raise ValueError(f"need at least as many rows as columns, got {X.shape}")
    q, r = np.linalg.qr(X)
    diag = np.abs(np.diag(r))
    tol = max(X.shape) * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
    dependent = np.nonzero(diag <= tol)[0]
    if dependent.size:
        j = int(dependent[0])
        name = labels[j] if labels is not None else f"column {j}"
        raise RankDeficient(
            f"design matrix is rank deficient: {name} is collinear with "
            "preceding columns"
        )
    coef = solve_triangular(r, q.T @ y)
    residuals = y - X @ coef
    return OlsFit(
        coefficients=coef,
        residuals=residuals,
        ssr=float(residuals @ residuals),
        xtx_inverse=_xtx_inverse(r),
    )


def classical_cov(fit: OlsFit, dof: int) -> np.ndarray:
    """s^2 (X'X)^-1 with s^2 = ssr / dof, the dof net of absorbed effects."""
    return (fit.ssr / dof) * fit.xtx_inverse


def cluster_robust_cov(fit: OlsFit, X: np.ndarray, n_regions: int, dof: int) -> np.ndarray:
    """Cluster sandwich (X'X)^-1 (sum_g X_g'u_g u_g'X_g) (X'X)^-1, one cluster per region.

    Scaled by G/(G-1) * (N-1)/(N-K); dof = N-K with K = fitted columns +
    absorbed region effects. The rows of X are n_regions equal blocks.
    """
    g = n_regions
    if g < 2:
        raise SingleCluster("cluster-robust covariance needs at least 2 clusters")
    n, k = X.shape
    X3 = np.asarray(X).reshape(g, -1, k)
    scores = (X3.transpose(0, 2, 1) @ fit.residuals.reshape(g, -1, 1))[:, :, 0]
    meat = (scores[:, :, None] * scores[:, None, :]).sum(axis=0)
    factor = (g / (g - 1)) * ((n - 1) / dof)
    return factor * fit.xtx_inverse @ meat @ fit.xtx_inverse


@dataclass(frozen=True)
class FitResult:
    """Estimated coefficients, inference, and fit statistics for one spec."""

    spec: ModelSpec
    coefficients: dict[str, float]
    std_errors: dict[str, float]
    t_stats: dict[str, float]
    p_values: dict[str, float]
    residuals: np.ndarray
    n_obs: int
    n_params: int
    n_absorbed: int
    dof: int
    ssr: float
    r_squared_within: float
    r_squared_overall: float
    aic: float
    column_labels: tuple[str, ...] = field(default=())
    # classical errors from the same fit, reported beside robust ones
    classical_std_errors: dict[str, float] = field(default_factory=dict)
    classical_p_values: dict[str, float] = field(default_factory=dict)

    def stars(self, label: str) -> str:
        return significance_stars(self.p_values[label])

    def to_dict(self) -> dict:
        return {
            "model": {
                "dependent": self.spec.dependent,
                "intercept": self.spec.intercept,
                "region_effects": self.spec.region_effects,
                "time_dummies": self.spec.time_dummies,
            },
            "coefficients": [
                {
                    "term": label,
                    "estimate": self.coefficients[label],
                    "std_error": self.std_errors[label],
                    "t": self.t_stats[label],
                    "p": self.p_values[label],
                    "stars": self.stars(label),
                }
                for label in self.column_labels
            ],
            "fit": {
                "n_obs": self.n_obs,
                "n_params": self.n_params,
                "dof": self.dof,
                "ssr": self.ssr,
                "r_squared_within": self.r_squared_within,
                "r_squared_overall": self.r_squared_overall,
                "aic": self.aic,
            },
            "metadata": {
                "covariance": self.spec.covariance,
                "absorbed_region_effects": self.n_absorbed,
                "dof_convention": "n_obs - n_params - absorbed_region_effects",
                "p_value_distribution": "t",
                "cluster_small_sample_factor": "G/(G-1) * (N-1)/(N-K), K = n_params + absorbed",
            },
        }


def _squared_correlation(a: np.ndarray, b: np.ndarray) -> float:
    a = a - a.mean()
    b = b - b.mean()
    denom = math.sqrt(float(a @ a) * float(b @ b))
    if denom == 0:
        return 0.0
    return float(a @ b) ** 2 / denom**2


def _inference(
    cov: np.ndarray, coefficients: np.ndarray, dof: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard errors, t statistics and two-sided t p-values from a covariance."""
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(se > 0, coefficients / se, np.inf * np.sign(coefficients))
    return se, t_stats, 2.0 * stdtr(dof, -np.abs(t_stats))


def _check_finite(what: str, values: np.ndarray, labels) -> None:
    """Raise NonFiniteFit naming the first term whose value is not finite."""
    if not np.isfinite(values).all():
        j = int(np.argmin(np.isfinite(values)))
        raise NonFiniteFit(f"the {what} of {labels[j]!r} is {values[j]}")


def fit_model(
    d: PanelDataset, spec: ModelSpec, w: SpatialWeights | None = None
) -> FitResult:
    """Estimate a ModelSpec: design -> (demean) -> QR least squares -> inference.

    The result carries the spec's errors and, from the same (X'X)^-1, the
    classical ones.
    """
    design = build_design(d, spec, w)
    X, y = design.X, design.y
    n_obs, k = X.shape

    if spec.region_effects:
        Xf, yf = within_transform(X, y, d.n_regions)
        n_absorbed = d.n_regions
    else:
        Xf, yf = X, y
        n_absorbed = 0

    dof = n_obs - k - n_absorbed
    if dof <= 0:
        raise ZeroDof(f"no residual degrees of freedom (n={n_obs}, k={k}+{n_absorbed})")
    labels = design.column_labels
    with np.errstate(over="ignore"):  # a sum of squares that overflows is named below
        fit = ols_fit(Xf, yf, labels)
    if not math.isfinite(fit.ssr):
        raise NonFiniteFit(f"the SSR is {fit.ssr}: the residuals are too large to square")
    _check_finite("estimate", fit.coefficients, labels)

    classical = _inference(classical_cov(fit, dof), fit.coefficients, dof)
    if spec.covariance == "classical":
        se, t_stats, p_values = classical
    else:
        cov = cluster_robust_cov(fit, Xf, d.n_regions, dof)
        se, t_stats, p_values = _inference(cov, fit.coefficients, dof)
    classical_se, _, classical_p = classical
    _check_finite("standard error", se, labels)
    _check_finite("classical standard error", classical_se, labels)

    # within R^2: on the (possibly demeaned) LS problem; centered when a
    # constant is present or implied by demeaning
    y_center = yf - yf.mean() if (spec.intercept or spec.region_effects) else yf
    tss = float(y_center @ y_center)
    r2_within = 1.0 - fit.ssr / tss if tss > 0 else 0.0
    # overall R^2: squared correlation of Xb with the raw response
    r2_overall = _squared_correlation(X @ fit.coefficients, y)

    k_aic = k + n_absorbed
    aic = (
        float("-inf")
        if fit.ssr <= 0
        else n_obs * math.log(fit.ssr / n_obs) + 2 * k_aic
    )

    return FitResult(
        spec=spec,
        coefficients=dict(zip(labels, map(float, fit.coefficients))),
        std_errors=dict(zip(labels, map(float, se))),
        t_stats=dict(zip(labels, map(float, t_stats))),
        p_values=dict(zip(labels, map(float, p_values))),
        residuals=fit.residuals,
        n_obs=n_obs,
        n_params=k,
        n_absorbed=n_absorbed,
        dof=dof,
        ssr=fit.ssr,
        r_squared_within=r2_within,
        r_squared_overall=r2_overall,
        aic=aic,
        column_labels=labels,
        classical_std_errors=dict(zip(labels, map(float, classical_se))),
        classical_p_values=dict(zip(labels, map(float, classical_p))),
    )

"""Least-squares panel estimation with fixed effects and robust covariance.

Region effects are absorbed by within-group demeaning; time effects enter as
explicit dummies with the first year as baseline. The least-squares core is
one R-only QR of [X y]. Covariance is either classical or a cluster-by-region
sandwich with the small-sample factor G/(G-1) * (N-1)/(N-K), where K counts
fitted columns plus absorbed region effects (the same convention used for
degrees of freedom and t-distribution p-values). Rows come as G region
blocks of T years (build_design's layout), so demeaning and the sandwich
take the region count G and reshape; a count that does not divide the rows
is a ValueError.

The kernels (term_values, within_transform, ols_fit, classical_cov and
cluster_robust_cov) also take arrays with leading axes: a stack of B
replications' designs, (B, N, k), is fitted as B separate problems, each
with the same numpy calls and so the same bits as when fitted alone. Monte
Carlo fits its replications in such blocks through fit_block, which runs
every check of fit_model over the whole block and computes no p-values;
fit_model calls the same kernels on 2-D arrays.

W's only use in a fit is the thematic lags W x. take_lags takes every
distinct lag of a list of specs once, as a variable of the dataset, and
rewrites the specs to read it, so that a caller can drop the dense n x n W
before the first fit (the CLI's fit and suite do).

The Student t distribution is computed here with numpy and math alone. A
two-sided p-value is twice the density's integral from |t| to infinity, by
exp-sinh quadrature on 289 fixed nodes; the 97.5% critical value that Monte
Carlo coverage uses is Newton's method on that p-value, cached per dof. Both
agree with a 50-digit reference to 1e-12 and 1e-14 relative
(tests/test_t_oracle.py).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

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


def _first_nonfinite(values) -> tuple[int, ...] | None:
    """The index of the first cell of values that is not finite, or None."""
    ok = np.isfinite(values)
    return None if ok.all() else tuple(np.argwhere(~ok)[0])


def _finite(d: PanelDataset, label: str, values: np.ndarray) -> np.ndarray:
    """values, unless a cell is missing (NaN) or overflowed when squared or lagged.

    values is (..., n, T); a bad cell is named by its region and year.
    """
    at = _first_nonfinite(values)
    if at is not None:
        i, j = at[-2:]
        raise UnknownVariable(
            f"{label!r} is missing or not finite at {d.region_ids[i]}, {d.years[j]}: an "
            "unbalanced panel, or a value whose square or spatial lag overflows"
        )
    return values


def term_values(d: PanelDataset, term: Term, w: SpatialWeights | None) -> np.ndarray:
    """A term's (n, T) values: its variable, squared and/or spatially lagged by w.

    d and w may also be a stack of panels and its weights (simulate.PanelBlock
    for both), whose variables are (..., n, T) and whose w is (..., n, n).
    """
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


def _check_weights(d: PanelDataset, specs, w: SpatialWeights | None) -> None:
    """Raise unless every spatial lag of specs has weights, in the dataset's region order."""
    require_weights(specs, w is not None)
    if w is not None and w.regions != d.region_ids:
        raise RegionOrderMismatch("weights regions do not match dataset regions")


def take_lags(
    d: PanelDataset, specs, w: SpatialWeights | None
) -> tuple[PanelDataset, list[ModelSpec]]:
    """The spatial lags of specs taken once, so that W may be dropped before any fit.

    Returns d with one variable per distinct lag term, named by its label
    (slFWCI), and the specs with each lag term replaced by the plain Term of
    that name. term_values computes each lag as build_design would, so the
    fits on the result give the same labels and the same numbers as fits on
    (d, specs, w). A plain term may not share its name with a lag's label.
    """
    specs = list(specs)
    _check_weights(d, specs, w)
    lags = list(dict.fromkeys(t for spec in specs for t in spec.regressors if t.lag))
    if not lags:
        return d, specs
    labels = {t.label for t in lags}
    clash = [t.name for spec in specs for t in spec.regressors if not t.lag and t.name in labels]
    if clash:
        raise ValueError(f"variable {clash[0]!r} has the name of a spatial lag term")
    lagged = {t.label: term_values(d, t, w) for t in lags}
    d = PanelDataset(d.region_ids, d.years, {**d.variables, **lagged})
    plain = [
        replace(spec, regressors=tuple(Term(t.label) if t.lag else t for t in spec.regressors))
        for spec in specs
    ]
    return d, plain


def build_design(
    d: PanelDataset, spec: ModelSpec, w: SpatialWeights | None = None
) -> Design:
    """Assemble the stacked design matrix and response for a ModelSpec."""
    _check_weights(d, [spec], w)
    return Design(*_design_arrays(d, spec, w))


def _design_arrays(d, spec: ModelSpec, w) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """build_design's X, y and column labels, with no weights check; for a stack of
    panels (see term_values) X is (..., n T, k) and y is (..., n T)."""
    y = _finite(d, spec.dependent, d.var(spec.dependent))
    *lead, n, t = y.shape
    y = y.reshape(*lead, -1)

    labels = [term.label for term in spec.regressors]
    if spec.time_dummies:
        labels += [f"year_{year}" for year in d.years[1:]]
    if spec.intercept:
        labels.append("const")
    if not labels:
        raise ValueError("empty design: no regressors, dummies, or intercept")

    X = np.ones((*lead, n * t, len(labels)))  # the const column, if any, keeps its ones
    for j, term in enumerate(spec.regressors):
        X[..., j] = term_values(d, term, w).reshape(*lead, -1)
    if spec.time_dummies:  # every region's T rows get the year identity, first year dropped
        k = len(spec.regressors)
        X.reshape(*lead, n, t, -1)[..., k : k + t - 1] = np.eye(t)[:, 1:]
    return X, y, tuple(labels)


def within_transform(
    X: np.ndarray, y: np.ndarray, n_regions: int
) -> tuple[np.ndarray, np.ndarray]:
    """Subtract each region's mean from its rows, the n_regions equal blocks of X and y.

    X is (..., N, k) and y (..., N); leading axes stack separate problems.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    X4 = X.reshape(*X.shape[:-2], n_regions, -1, X.shape[-1])
    y3 = y.reshape(*y.shape[:-1], n_regions, -1)
    Xd = X4 - X4.mean(axis=-2, keepdims=True)
    return Xd.reshape(X.shape), (y3 - y3.mean(axis=-1, keepdims=True)).reshape(y.shape)


@dataclass(frozen=True)
class OlsFit:
    coefficients: np.ndarray
    residuals: np.ndarray
    ssr: np.ndarray  # a float64 scalar, or one SSR per stacked problem
    xtx_inverse: np.ndarray  # (X'X)^-1 from the QR's R, shared by both covariances


def ols_fit(X: np.ndarray, y: np.ndarray, labels=None) -> OlsFit:
    """Least squares from one R-only QR of [X y]; rank deficiency is a hard error.

    R's leading k x k block is the R of X and its column k is Q'y, so Q is
    never formed. The first column whose R diagonal collapses is reported as
    linearly dependent on the columns before it. One inverse of R gives both
    the coefficients and (X'X)^-1. X (..., N, k) and y (..., N) may stack
    problems along leading axes; each gets its own rank tolerance, and the
    first problem with a collapsed column is the one reported.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim < 2 or X.shape[-2] < X.shape[-1]:
        raise ValueError(f"need at least as many rows as columns, got {X.shape}")
    k = X.shape[-1]
    r_xy = np.linalg.qr(np.concatenate([X, y[..., np.newaxis]], axis=-1), mode="r")
    r = r_xy[..., :k, :k]
    diag = np.abs(np.einsum("...ii->...i", r))
    scale = diag.max(axis=-1, initial=0.0, keepdims=True)
    tol = max(X.shape[-2:]) * np.finfo(float).eps * scale
    dependent = diag <= tol
    if dependent.any():
        j = int(np.argwhere(dependent)[0][-1])
        name = labels[j] if labels is not None else f"column {j}"
        raise RankDeficient(
            f"design matrix is rank deficient: {name} is collinear with "
            "preceding columns"
        )
    r_inv = np.linalg.inv(r)
    coef = (r_inv @ r_xy[..., :k, k, np.newaxis])[..., 0]
    residuals = y - (X @ coef[..., np.newaxis])[..., 0]
    return OlsFit(
        coefficients=coef,
        residuals=residuals,
        ssr=(residuals[..., np.newaxis, :] @ residuals[..., np.newaxis])[..., 0, 0],
        xtx_inverse=r_inv @ np.swapaxes(r_inv, -1, -2),
    )


def classical_cov(fit: OlsFit, dof: int) -> np.ndarray:
    """s^2 (X'X)^-1 with s^2 = ssr / dof, the dof net of absorbed effects."""
    return np.expand_dims(fit.ssr / dof, (-2, -1)) * fit.xtx_inverse


def cluster_robust_cov(fit: OlsFit, X: np.ndarray, n_regions: int, dof: int) -> np.ndarray:
    """Cluster sandwich (X'X)^-1 (sum_g X_g'u_g u_g'X_g) (X'X)^-1, one cluster per region.

    Scaled by G/(G-1) * (N-1)/(N-K); dof = N-K with K = fitted columns +
    absorbed region effects. The rows of X (..., N, k) are n_regions equal blocks.
    """
    g = n_regions
    if g < 2:
        raise SingleCluster("cluster-robust covariance needs at least 2 clusters")
    *lead, n, k = np.shape(X)
    X4 = np.asarray(X).reshape(*lead, g, -1, k)
    residuals = fit.residuals.reshape(*lead, g, -1, 1)
    scores = (np.swapaxes(X4, -1, -2) @ residuals)[..., 0]
    meat = (scores[..., :, np.newaxis] * scores[..., np.newaxis, :]).sum(axis=-3)
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


# Exp-sinh nodes for the tail integral of the t density from |t|: s = |t| + e^(pi/2 sinh tau),
# tau in [-4.5, 4.5] in steps of 1/32. _LOG_WEIGHTS is log(ds/dtau * step).
_TAU = np.arange(-144, 145) / 32
_OFFSETS = np.exp(np.pi / 2 * np.sinh(_TAU))
_LOG_WEIGHTS = np.pi / 2 * np.sinh(_TAU) + np.log(np.pi / 2 * np.cosh(_TAU) / 32)


def _log_t_density(s, dof: int):
    """log of the Student t density with dof degrees of freedom at s.

    Its constant needs log Gamma(a + 1/2) - log Gamma(a), a = dof / 2: the
    Stirling series of that difference at b = a + m >= 20, less the m terms
    log((a + j + 1/2) / (a + j)) of the recurrence Gamma(x + 1) = x Gamma(x).
    A difference of two lgamma values is off by ~3e-11 at a = 2e4, and at
    dof 104 it already puts t_critical 1.7e-14 off.
    """
    shift = max(0, math.ceil(20 - dof / 2))
    b = dof / 2 + shift
    z = 1.0 / (b * b)
    series = -1 / 8 + z * (1 / 192 + z * (-1 / 640 + z * (17 / 14336 - z * 31 / 18432)))
    log_ratio = 0.5 * math.log(b) + series / b
    log_ratio -= sum(math.log1p(0.5 / (dof / 2 + j)) for j in range(shift))
    log_c = log_ratio - 0.5 * math.log(math.pi * dof)
    return log_c - (dof + 1) / 2 * np.log1p(np.square(s) / dof)


def t_two_sided_p(t, dof: int) -> np.ndarray:
    """P(|T| > |t|) for Student t with dof degrees of freedom, elementwise.

    2 times the density's integral from |t| to infinity, by exp-sinh quadrature
    on fixed nodes; 0 at t = +-inf and NaN at NaN.
    """
    s = np.abs(np.asarray(t, dtype=float))[..., None] + _OFFSETS
    return 2.0 * np.exp(_log_t_density(s, dof) + _LOG_WEIGHTS).sum(axis=-1)


@functools.cache
def t_critical(dof: int) -> float:
    """The 97.5% quantile of Student t with dof degrees of freedom.

    Newton's method on t_two_sided_p(c) = 0.05 with the density as slope. The
    p-value is convex in c > 0, so from the normal quantile, which lies below
    every t quantile, the iterates rise to the root without overshooting.
    """
    c = 1.959963984540054
    for _ in range(100):
        step = (float(t_two_sided_p(c, dof)) - 0.05) / (2.0 * math.exp(_log_t_density(c, dof)))
        c += step
        if abs(step) <= 1e-15 * c:
            break
    return c


def _std_errors(cov: np.ndarray) -> np.ndarray:
    """The square roots of the diagonal of cov (..., k, k), negatives read as 0."""
    return np.sqrt(np.clip(np.einsum("...ii->...i", cov), 0.0, None))


def _inference(
    cov: np.ndarray, coefficients: np.ndarray, dof: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard errors, t statistics and two-sided t p-values from a covariance."""
    se = _std_errors(cov)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(se > 0, coefficients / se, np.inf * np.sign(coefficients))
    return se, t_stats, t_two_sided_p(t_stats, dof)


def _check_finite(what: str, values: np.ndarray, labels) -> None:
    """Raise NonFiniteFit naming the first term whose value is not finite."""
    at = _first_nonfinite(values)
    if at is not None:
        raise NonFiniteFit(f"the {what} of {labels[at[-1]]!r} is {values[at]}")


def _absorb(X: np.ndarray, y: np.ndarray, spec: ModelSpec, n_regions: int):
    """(X, y, regions absorbed): demeaned by within_transform if spec has region effects."""
    if spec.region_effects:
        return (*within_transform(X, y, n_regions), n_regions)
    return X, y, 0


def _solve(Xf: np.ndarray, yf: np.ndarray, n_absorbed: int, labels) -> tuple[int, OlsFit]:
    """The dof and the least-squares fit of the (absorbed) design Xf, yf, checked.

    Xf (..., N, k) and yf (..., N) may stack replications; each check then
    covers the whole stack.
    """
    n_obs, k = Xf.shape[-2:]
    dof = n_obs - k - n_absorbed
    if dof <= 0:
        raise ZeroDof(f"no residual degrees of freedom (n={n_obs}, k={k}+{n_absorbed})")
    with np.errstate(over="ignore"):  # a sum of squares that overflows is named below
        fit = ols_fit(Xf, yf, labels)
    at = _first_nonfinite(fit.ssr)
    if at is not None:
        raise NonFiniteFit(
            f"the SSR is {fit.ssr[at]}: the residuals are too large to square"
        )
    _check_finite("estimate", fit.coefficients, labels)
    return dof, fit


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
    labels = design.column_labels
    Xf, yf, n_absorbed = _absorb(X, y, spec, d.n_regions)
    dof, fit = _solve(Xf, yf, n_absorbed, labels)
    ssr = float(fit.ssr)

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
    r2_within = 1.0 - ssr / tss if tss > 0 else 0.0
    # overall R^2: squared correlation of Xb with the raw response
    r2_overall = _squared_correlation(X @ fit.coefficients, y)

    k_aic = k + n_absorbed
    aic = float("-inf") if ssr <= 0 else n_obs * math.log(ssr / n_obs) + 2 * k_aic

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
        ssr=ssr,
        r_squared_within=r2_within,
        r_squared_overall=r2_overall,
        aic=aic,
        column_labels=labels,
        classical_std_errors=dict(zip(labels, map(float, classical_se))),
        classical_p_values=dict(zip(labels, map(float, classical_p))),
    )


def fit_block(d, spec: ModelSpec) -> tuple[np.ndarray, np.ndarray, int]:
    """The estimates (B, k), the spec's standard errors (B, k) and the dof of a stack
    of B panels, each fitted as fit_model fits it alone, bit for bit.

    d is a simulate.PanelBlock: PanelDataset's region_ids, years and var,
    over (B, n, T) variables, and its (B, n, n) weights as d.w. Each check of
    fit_model runs once over the whole block, in fit_model's order; the first
    that fails raises fit_model's error for the first replication failing it.
    No t statistic or p-value is computed.
    """
    g = len(d.region_ids)
    X, y, labels = _design_arrays(d, spec, d)
    del d  # the design is all of the block that the fit reads
    X, y, n_absorbed = _absorb(X, y, spec, g)  # frees the raw design
    dof, fit = _solve(X, y, n_absorbed, labels)
    classical_se = _std_errors(classical_cov(fit, dof))
    if spec.covariance == "classical":
        se = classical_se
    else:
        se = _std_errors(cluster_robust_cov(fit, X, g, dof))
    _check_finite("standard error", se, labels)
    _check_finite("classical standard error", classical_se, labels)
    return fit.coefficients, se, dof

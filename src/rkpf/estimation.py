"""Least-squares panel estimation with fixed effects and robust covariance.

Region effects are absorbed by within-group demeaning; time effects enter as
explicit dummies with the first year as baseline. The least-squares core,
_least_squares, takes the design [X y] as chunks of QR_BLOCK_ROWS rows, in two
passes: an R-only QR by chunks (a flat TSQR), then the residuals y - X b and each
region's cluster score X_g'u_g. fit_model never holds its design whole: each
chunk is cut from a block of the whole regions its rows fall in, built and
demeaned alone (demeaning is region-local), and built again in the second pass,
which also takes X b of the raw rows for the overall R^2. ols_fit cuts the
same chunks from the buffer it is given, as fit_block's one stacked buffer.
Covariance is either classical or a cluster-by-region
sandwich with the small-sample factor G/(G-1) * (N-1)/(N-K), where K counts
fitted columns plus absorbed region effects (the same convention used for
degrees of freedom and t-distribution p-values). Rows come as G region
blocks of T years (build_design's layout), so demeaning and the sandwich
take the region count G and reshape; a count that does not divide the rows
is a ValueError.

The kernels (term_values, within_transform, ols_fit, classical_cov and
cluster_robust_cov) also take arrays with leading axes: a stack of B
replications' [X y] buffers, (B, N, k+1), is fitted as B separate problems, each
with the same numpy calls and so the same bits as when fitted alone.
fit_model and fit_block, which fits Monte Carlo's stack of replications,
agree because both take the dof of design_dof, run _least_squares over the
same chunks (fit_block through ols_fit, and cluster_robust_cov for the scores
that pass 2 takes in fit_model), and pass the fit through one check, _checked.

W's only use in a fit is the thematic lags W x, and take_lags is the only code
that meets W: it takes every distinct lag of a list of specs once, as a
variable of the dataset, and rewrites the specs to read it. Every design and
fit takes its lags so first, and a lag term in term_values is an error.

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

from .choices import COVARIANCE_KINDS
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
from .weights import first_cell

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
    """Stacked design matrix X and response y, as views of one [X y] buffer.

    Rows are region-major, year-minor. Columns of X: regressor terms in spec
    order, then T-1 time dummies (first year baseline), then the intercept;
    the buffer's last column is y.
    """

    xy: np.ndarray
    column_labels: tuple[str, ...]

    @property
    def X(self) -> np.ndarray:
        return self.xy[..., :-1]

    @property
    def y(self) -> np.ndarray:
        return self.xy[..., -1]


def _finite(d: PanelDataset, label: str, values: np.ndarray) -> np.ndarray:
    """values, unless a cell is missing (NaN) or overflowed when squared or lagged.

    values is (..., n, T); a bad cell is named by its region and year.
    """
    ok = np.isfinite(values)
    if not ok.all():
        i, j = first_cell(~ok)[-2:]
        raise UnknownVariable(
            f"{label!r} is missing or not finite at {d.region_ids[i]}, {d.years[j]}: an "
            "unbalanced panel, or a value whose square or spatial lag overflows"
        )
    return values


def term_values(d: PanelDataset, term: Term) -> np.ndarray:
    """A term's (n, T) values, or (..., n, T) of a stack of panels (simulate.PanelBlock):
    its variable, squared if the term asks; a lag term is a ValueError (see take_lags)."""
    if term.lag:
        raise ValueError(f"spatial lag term {term.label!r} has no weights: take_lags takes it")
    values = _finite(d, term.name, d.var(term.name))
    if not term.squared:
        return values
    with np.errstate(over="ignore"):  # _finite names a term that overflows
        return _finite(d, term.label, values**2)


def require_weights(specs, weights_given: bool) -> None:
    """Raise MissingWeights if no weights are given and a spec has spatial-lag terms."""
    if not weights_given and any(spec.needs_weights() for spec in specs):
        raise MissingWeights("spec contains spatial-lag terms but no weights given")


@functools.lru_cache(maxsize=64)  # Monte Carlo rewrites its spec once a run, not a block
def _lag_plan(specs: tuple[ModelSpec, ...]):
    """take_lags' (distinct lag terms, the Term each lags, plain specs) of specs."""
    lags = tuple(dict.fromkeys(t for spec in specs for t in spec.regressors if t.lag))
    labels = {t.label for t in lags}
    clash = [t.name for spec in specs for t in spec.regressors if not t.lag and t.name in labels]
    if clash:
        raise ValueError(f"variable {clash[0]!r} has the name of a spatial lag term")
    plain = tuple(
        replace(spec, regressors=tuple(Term(t.label) if t.lag else t for t in spec.regressors))
        for spec in specs
    )
    return lags, tuple(Term(t.name, t.squared) for t in lags), plain


def take_lags(d: PanelDataset, specs, w) -> tuple[PanelDataset, list[ModelSpec]]:
    """The spatial lags of specs taken once, as variables, so that no design needs W.

    w (None where no spec has a lag term) gives its regions, which must be d's in
    order, and the lags of a list of arrays in one pass over W's rows: SpatialWeights,
    StreamedWeights, or a simulate.PanelBlock as its own weights. Returns d extended
    (dataclasses.replace) by a checked variable per distinct lag term, named by its
    label (slFWCI), and the specs reading it; a plain term may not take that name.
    """
    specs = tuple(specs)
    require_weights(specs, w is not None)
    if w is not None and w.regions != d.region_ids:
        raise RegionOrderMismatch("weights regions do not match dataset regions")
    lags, bases, plain = _lag_plan(specs)
    if not lags:
        return d, list(specs)
    lagged = dict(zip((t.label for t in lags), w.lags([term_values(d, t) for t in bases])))
    for label, values in lagged.items():
        _finite(d, label, values)
    return replace(d, variables={**d.variables, **lagged}), list(plain)


def build_design(d: PanelDataset, spec: ModelSpec, w=None) -> Design:
    """The stacked design matrix and response of a ModelSpec, its lags taken first."""
    d, [spec] = take_lags(d, [spec], w)
    labels, y, terms = _columns(d, spec)
    return Design(_design_block(spec, y, terms), labels)


def _columns(d, spec: ModelSpec):
    """(column labels, response, terms) of the design of a spec with no lag term: the
    response's and each term's (..., n, T) values, each checked once, whole."""
    y = _finite(d, spec.dependent, d.var(spec.dependent))
    labels = [term.label for term in spec.regressors]
    if spec.time_dummies:
        labels += [f"year_{year}" for year in d.years[1:]]
    if spec.intercept:
        labels.append("const")
    if not labels:
        raise ValueError("empty design: no regressors, dummies, or intercept")
    return tuple(labels), y, [term_values(d, term) for term in spec.regressors]


def _design_block(spec: ModelSpec, y: np.ndarray, terms, out=None) -> np.ndarray:
    """The [X y] buffer (..., n T, k + 1) of spec's design on the (..., n, T) values of
    its response y and its terms (_columns), or on a block of their regions: the
    terms, the T-1 year dummies, the constant and y. `out`, a flat float64 array of
    at least the buffer's size, holds it where given."""
    *lead, n, t = y.shape
    k = len(terms)
    shape = (*lead, n * t, k + (t - 1) * spec.time_dummies + spec.intercept + 1)
    xy = np.empty(shape) if out is None else out[: math.prod(shape)].reshape(shape)
    xy[..., -1] = y.reshape(*lead, -1)
    for j, values in enumerate(terms):
        xy[..., j] = values.reshape(*lead, -1)
    if spec.time_dummies:  # every region's T rows get the year identity, first year dropped
        xy.reshape(*lead, n, t, -1)[..., k : k + t - 1] = np.eye(t)[:, 1:]
    if spec.intercept:
        xy[..., -2] = 1.0
    return xy


def design_dof(spec: ModelSpec, n_regions: int, n_years: int, where: str = "") -> tuple[int, int]:
    """The width k of spec's design on an n x T panel (its terms, T-1 year dummies, a
    constant) and its residual dof, n T - k - absorbed regions; unless that is positive,
    ZeroDof, its message led by where."""
    n_obs = n_regions * n_years
    k = len(spec.regressors) + (n_years - 1) * spec.time_dummies + spec.intercept
    n_absorbed = n_regions * spec.region_effects
    if n_obs - k - n_absorbed <= 0:
        raise ZeroDof(f"{where}no residual degrees of freedom (n={n_obs}, k={k}+{n_absorbed})")
    return k, n_obs - k - n_absorbed


def within_transform(xy: np.ndarray, n_regions: int) -> None:
    """Subtract each region's mean from its rows, the n_regions equal blocks of the
    C-contiguous float [X y] buffer xy (..., N, k+1), in place.

    Leading axes stack separate problems. Each mean has the bits of the mean of
    its column alone: a mean over a region's rows of the buffer adds them one by
    one, as over X alone, but along a contiguous y numpy sums pairwise, so y's
    means are taken along a copy of y.
    """
    if not (xy.dtype == np.float64 and xy.flags.c_contiguous and xy.flags.writeable):
        raise ValueError("within_transform demeans a writeable C-contiguous float64 buffer")
    lead = xy.shape[:-2]
    xy4 = xy.reshape(*lead, n_regions, -1, xy.shape[-1])
    means = xy4.mean(axis=-2, keepdims=True)
    y = np.ascontiguousarray(xy[..., -1]).reshape(*lead, n_regions, -1)
    means[..., 0, -1] = y.mean(axis=-1)
    xy4 -= means


@dataclass(frozen=True)
class OlsFit:
    coefficients: np.ndarray
    residuals: np.ndarray
    ssr: np.ndarray  # a float64 scalar, or one SSR per stacked problem
    xtx_inverse: np.ndarray  # (X'X)^-1 from the QR's R, shared by both covariances


# Rows of [X y] per chunk. Every product over a design's rows (the QR, X b and the
# residuals) is taken over the same chunks of QR_BLOCK_ROWS rows, counted from the
# design's first row, whether the design is one buffer (ols_fit) or is built
# by blocks of regions (_region_chunks): a product's bits depend on the rows it is
# taken over (X b over blocks of 999 rows differs from the whole product in some
# rows; over chunks of 1000 it does not), so a fit has the same bits whatever holds
# its design. The QR copies one chunk at a time, where one QR copies the whole
# buffer twice, and its R has the same bits whatever the BLAS thread count (one QR
# of 40000 rows differs between 1 and 2 threads).
QR_BLOCK_ROWS = 1000


def _region_chunks(spec: ModelSpec, y: np.ndarray, terms):
    """The chunks of spec's design on the (n, T) values of its response y and terms
    (_columns), never held whole (see _least_squares): each chunk's block is the design
    of the whole regions its rows fall in, built and, with region effects, demeaned
    alone. Given coefficients b, a chunk of a demeaned block comes with X b of its
    raw rows, taken before the block is demeaned."""
    n, t = y.shape

    def chunks(coefficients=None):
        for start in range(0, n * t, QR_BLOCK_ROWS):
            stop = min(start + QR_BLOCK_ROWS, n * t)
            first, last = start // t, -(-stop // t)
            xy = _design_block(spec, y[first:last], [v[first:last] for v in terms])
            rows = slice(start - first * t, stop - first * t)
            raw = None
            if spec.region_effects:
                if coefficients is not None:
                    raw = xy[rows, :-1] @ coefficients
                within_transform(xy, last - first)
            yield xy, first * t, rows, raw
            del xy, raw  # before the next block is built

    return chunks


def _r_factor(chunks) -> np.ndarray:
    """The R of an R-only QR of the rows of a design's [X y] chunks (..., r, k+1), as
    chunks() gives them (see _least_squares), as a flat TSQR (Demmel et al. 2012): R
    of the first chunk, then for each later one R <- R of [R; chunk]. Leading axes
    stack problems, each split the same way, so that a problem's R has the same bits
    stacked or alone."""
    r = None
    for block, _, rows, _ in chunks:
        chunk = block[..., rows, :]
        r = np.linalg.qr(chunk if r is None else np.concatenate([r, chunk], axis=-2), mode="r")
        del block, chunk  # before the next block is built
    return r


def _least_squares(chunks, n_rows: int, labels=None, n_regions: int = 0, overall=False):
    """(OlsFit, cluster scores, fitted, response) of least squares of y on X over the
    n_rows rows of an [X y] design, in two passes over its chunks of QR_BLOCK_ROWS
    rows.

    chunks(b) gives, for each chunk in order, (block, offset, rows, raw): the chunk
    is block[..., rows, :], block (..., r, k+1) holds whole regions of the design
    from its row `offset` on, and raw is X b of the chunk's raw rows where its block
    was demeaned (given b), else None. Pass 1 factorises the chunks (_r_factor);
    rank deficiency is a hard error. Pass 2 takes the residuals y - X b by chunks
    and, given n_regions (clusters of equal row counts), each cluster's score X_g'u_g
    from its block once its residuals are known: (..., n_regions, k), else None.
    With `overall`, it also keeps X b of the raw rows (fitted) and y of the fitted
    rows (response), (n_rows,) each; else both are None.

    R's leading k x k block is the R of X and its column k is Q'y, so Q is
    never formed. The first column whose R diagonal collapses is reported as
    linearly dependent on the columns before it. One inverse of R gives both
    the coefficients and (X'X)^-1. Leading axes stack problems; each gets its own
    rank tolerance, and the first problem with a collapsed column is the one
    reported.
    """
    r_xy = _r_factor(chunks())
    k = r_xy.shape[-1] - 1
    r = r_xy[..., :k, :k]
    diag = np.abs(np.einsum("...ii->...i", r))
    scale = diag.max(axis=-1, initial=0.0, keepdims=True)
    tol = max(n_rows, k) * np.finfo(float).eps * scale
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
    lead = coef.shape[:-1]
    residuals = np.empty((*lead, n_rows))
    scores = np.empty((*lead, n_regions, k)) if n_regions else None
    fitted, response = (np.empty(n_rows), np.empty(n_rows)) if overall else (None, None)
    t, scored = n_rows // max(n_regions, 1), 0
    for block, offset, rows, raw in chunks(coef):
        at = slice(offset + rows.start, offset + rows.stop)
        chunk = block[..., rows, :]
        product = (chunk[..., :-1] @ coef[..., np.newaxis])[..., 0]
        np.subtract(chunk[..., -1], product, out=residuals[..., at])
        if overall:
            fitted[at] = product if raw is None else raw
            response[at] = chunk[..., -1]
        done = at.stop // t if n_regions else 0
        if done > scored:  # the clusters whose last row this chunk holds
            X = block[..., scored * t - offset : done * t - offset, :-1]
            u = residuals[..., scored * t : done * t]
            with np.errstate(invalid="ignore"):  # a non-finite SSR is named first
                scores[..., scored:done, :] = (
                    np.swapaxes(X.reshape(*lead, done - scored, t, k), -1, -2)
                    @ u.reshape(*lead, done - scored, t, 1)
                )[..., 0]
            scored = done
            del X
        del block, chunk  # before the next block is built
    fit = OlsFit(
        coefficients=coef,
        residuals=residuals,
        ssr=(residuals[..., np.newaxis, :] @ residuals[..., np.newaxis])[..., 0, 0],
        xtx_inverse=r_inv @ np.swapaxes(r_inv, -1, -2),
    )
    return fit, scores, fitted, response


def ols_fit(xy: np.ndarray, labels=None) -> OlsFit:
    """Least squares of y on X from an R-only QR of the [X y] buffer xy (..., N, k+1),
    whose last column is y: _least_squares over the buffer's chunks."""
    xy = np.asarray(xy, dtype=float)
    if xy.ndim < 2 or xy.shape[-2] < xy.shape[-1] - 1:
        raise ValueError(f"need at least as many rows as columns of X, got [X y] {xy.shape}")
    n = xy.shape[-2]
    chunks = [(xy, 0, slice(start, min(start + QR_BLOCK_ROWS, n)), None)
              for start in range(0, n, QR_BLOCK_ROWS)]
    return _least_squares(lambda coefficients=None: chunks, n, labels)[0]


def classical_cov(fit: OlsFit, dof: int) -> np.ndarray:
    """s^2 (X'X)^-1 with s^2 = ssr / dof, the dof net of absorbed effects."""
    return np.expand_dims(fit.ssr / dof, (-2, -1)) * fit.xtx_inverse


def cluster_robust_cov(fit: OlsFit, X: np.ndarray, n_regions: int, dof: int) -> np.ndarray:
    """Cluster sandwich (X'X)^-1 (sum_g X_g'u_g u_g'X_g) (X'X)^-1, one cluster per region:
    _sandwich of the scores X_g'u_g of the rows of X (..., N, k), n_regions equal blocks."""
    *lead, n, k = np.shape(X)
    X4 = np.asarray(X).reshape(*lead, max(n_regions, 1), -1, k)
    residuals = fit.residuals.reshape(*X4.shape[:-1], 1)
    return _sandwich(fit, (np.swapaxes(X4, -1, -2) @ residuals)[..., 0], dof)


def _sandwich(fit: OlsFit, scores: np.ndarray, dof: int) -> np.ndarray:
    """The cluster sandwich of fit from its G clusters' scores X_g'u_g (..., G, k).

    Scaled by G/(G-1) * (N-1)/(N-K); dof = N-K with K = fitted columns +
    absorbed region effects.
    """
    g, n = scores.shape[-2], fit.residuals.shape[-1]
    if g < 2:
        raise SingleCluster("cluster-robust covariance needs at least 2 clusters")
    # the sum of the G outer products, with no (..., G, k, k) temporary
    meat = np.einsum("...gi,...gj->...ij", scores, scores, optimize=False)
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


def _t_test(se: np.ndarray, coefficients: np.ndarray, dof: int) -> tuple[np.ndarray, np.ndarray]:
    """t statistics and two-sided t p-values from standard errors."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(se > 0, coefficients / se, np.inf * np.sign(coefficients))
    return t_stats, t_two_sided_p(t_stats, dof)


def _check_finite(what: str, values: np.ndarray, labels) -> None:
    """Raise NonFiniteFit naming the first term whose value is not finite."""
    ok = np.isfinite(values)
    if not ok.all():
        at = first_cell(~ok)
        raise NonFiniteFit(f"the {what} of {labels[at[-1]]!r} is {values[at]}")


def _checked(fit: OlsFit, labels, dof: int, robust=None) -> tuple[np.ndarray, np.ndarray]:
    """(the spec's standard errors, the classical ones) of a least-squares fit whose
    residual dof is dof, each checked in one order: the SSR, the estimates, then the
    errors. robust(), where given, is the spec's cluster covariance, taken once the
    estimates pass; else the spec's errors are the classical ones.

    Leading axes stack replications; each check then covers the whole stack and
    names the first replication that fails it.
    """
    ok = np.isfinite(fit.ssr)
    if not ok.all():
        raise NonFiniteFit(
            f"the SSR is {fit.ssr[first_cell(~ok)]}: the residuals are too large to square"
        )
    _check_finite("estimate", fit.coefficients, labels)
    classical_se = se = _std_errors(classical_cov(fit, dof))
    if robust is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # as pass 2's scores: named below
            se = _std_errors(robust())
    _check_finite("standard error", se, labels)
    _check_finite("classical standard error", classical_se, labels)
    return se, classical_se


def fit_model(d: PanelDataset, spec: ModelSpec, w=None) -> FitResult:
    """Estimate a ModelSpec: design -> (demean) -> QR least squares -> inference.

    The spec's lags are taken first (take_lags), so the design is built from plain
    columns, by blocks of regions (_region_chunks). The result carries the spec's
    errors and, from the same (X'X)^-1, the classical ones.
    """
    d, [plain] = take_lags(d, [spec], w)
    del w
    labels, y, terms = _columns(d, plain)
    n_obs, k = d.n_obs, len(labels)
    _, dof = design_dof(plain, d.n_regions, d.n_years)
    clusters = 0 if spec.covariance == "classical" else d.n_regions
    # X b of the raw design, and y of the (possibly demeaned) LS problem
    with np.errstate(over="ignore"):  # a sum of squares that overflows is named by _checked
        fit, scores, fitted, yf = _least_squares(
            _region_chunks(plain, y, terms), n_obs, labels, clusters, overall=True
        )
    robust = None if scores is None else lambda: _sandwich(fit, scores, dof)
    se, classical_se = _checked(fit, labels, dof, robust)
    del robust, scores  # before the R^2 of the raw rows
    n_absorbed = n_obs - k - dof  # the region effects the dof nets out
    ssr = float(fit.ssr)
    t_stats, p_values = _t_test(se, fit.coefficients, dof)
    if spec.covariance == "classical":
        classical_p = p_values
    else:
        _, classical_p = _t_test(classical_se, fit.coefficients, dof)

    # within R^2: on the (possibly demeaned) LS problem; centered when a
    # constant is present or implied by demeaning
    y_center = yf - yf.mean() if (spec.intercept or spec.region_effects) else yf
    tss = float(y_center @ y_center)
    r2_within = 1.0 - ssr / tss if tss > 0 else 0.0
    # overall R^2: squared correlation of Xb with the raw response
    r2_overall = _squared_correlation(fitted, np.ascontiguousarray(y).reshape(-1))

    aic = float("-inf") if ssr <= 0 else n_obs * math.log(ssr / n_obs) + 2 * (k + n_absorbed)

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


def fit_block(d, spec: ModelSpec, out=None) -> tuple[np.ndarray, np.ndarray]:
    """The estimates (B, k) and the spec's standard errors (B, k) of a stack of B
    panels, each the bits fit_model gives it alone: ols_fit fits the same chunks of
    rows, here cut from one stacked buffer, cluster_robust_cov takes pass 2's scores,
    and _checked checks the fit as fit_model's.

    d is a simulate.PanelBlock: PanelDataset's region_ids, years and var, over
    (B, n, T) variables, and its own weights for take_lags. A failing check raises
    fit_model's error for the first replication that fails it. No t statistic or
    p-value is computed. `out`, a flat float64 array of at least B n T (k + 1)
    elements, holds the block's [X y] buffer where given, so that Monte Carlo's
    blocks reuse one buffer: allocating one a block left malloc to map, trim and
    fault in fresh pages for each.
    """
    n, t = len(d.region_ids), len(d.years)
    d, [spec] = take_lags(d, [spec], d)
    labels, y, terms = _columns(d, spec)
    xy = _design_block(spec, y, terms, out)
    del d, y, terms  # the design is all of the block that the fit reads
    if spec.region_effects:
        within_transform(xy, n)
    _, dof = design_dof(spec, n, t)
    with np.errstate(over="ignore"):  # a sum of squares that overflows is named by _checked
        fit = ols_fit(xy, labels)
    robust = None if spec.covariance == "classical" else (
        lambda: cluster_robust_cov(fit, xy[..., :-1], n, dof))
    se, _ = _checked(fit, labels, dof, robust)
    return fit.coefficients, se

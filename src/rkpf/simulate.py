"""Synthetic panel generation and Monte Carlo estimator validation.

The data-generating process mirrors the main two-way FE SLX specification:
clipped-lognormal regressors with region-level and year-level components,
random Dirichlet thematic profiles (whose correlations yield the weights
matrix), Gaussian region effects, a monotone time-offset profile, and the
linear model with Gaussian noise. Default true coefficients and clip ranges
are calibrated so the synthetic world resembles the published estimates and
descriptive ranges; this is calibration, not reproduction.

The dependent variable is produced directly in log-per-employee form,
already aligned one period ahead, so generated panels feed the estimator
without further shifting. quality_substitution applies the log-output
identity as a uniform -q shift; under fixed effects it is absorbed.

generate_block draws B replications at once: each draws from its own
generator, with the same calls in the same order, and every array after the
draws carries a leading replication axis, so that each numpy call serves the
whole block. generate_panel is its one-replication case. Monte Carlo fits
its replications in such blocks (estimation.fit_block), as many as fit one
block's design, n T (k + 1) float64s each, into BLOCK_BYTES.
"""
from __future__ import annotations

import functools
import math
from dataclasses import asdict, astuple, dataclass, field, replace

import numpy as np

from .errors import ConfigError, DuplicateRow, EngineError, InvalidProfiles, UnknownVariable
from .estimation import ModelSpec, fit_block, fit_model, parse_term_label, t_critical, term_values
from .panel import RESERVED_COLUMNS, PanelDataset
from .suite import expand_notation
from .tables import check_names
from .weights import (
    SpatialWeights,
    ThematicProfileMatrix,
    check_profile_rows,
    check_weight_rows,
    profile_correlations,
    standardize_rows,
)

RNG_ALGORITHM = "numpy PCG64 (default_rng), replication streams via SeedSequence.spawn"

# The most cells (2**24 float64s, 128 MiB) a config may ask of one dense array:
# the n x n weights, the n*T x (k + T) design that mc fits (k coefficients, T-1
# year dummies and a constant) or the n x S profiles. It is checked before any
# array is built; the benchmark's 2000 x 20 panel needs 4,000,000 cells.
MAX_CELLS = 2**24
# replication streams are spawned up front, one SeedSequence each
MAX_REPLICATIONS = 100_000
# Monte Carlo fits as many replications at once as keep one block's design,
# n*T*(k+1) float64s each, within this: 2 at 78 x 12 with k = 21 columns, and
# 1 from about 2000 x 20. Larger blocks run little faster and hold more memory.
BLOCK_BYTES = 384 * 1024

# full two-way FE SLX coefficient set used as DGP truth by default
DEFAULT_COEFFICIENTS = {
    "log(EXPEMP10)": 0.460,
    "log(GRPCAP10)": 0.323,
    "log(PAPEMP)": 0.242,
    "FWCI": 0.348,
    "FWCI^2": -0.049,
    "Q1SH": -0.009,
    "NQSH": 0.003,
    "slFWCI": 1.569,
    "slQ1SH": -0.021,
    "slNQSH": 0.010,
}


@dataclass(frozen=True)
class RegressorDistribution:
    """Clipped lognormal: exp(log_mean + region_sd*z_r + year_sd*u_rt),
    clipped into [min_value, max_value]."""

    log_mean: float
    region_sd: float
    year_sd: float
    min_value: float
    max_value: float

    def __post_init__(self):
        if not (0 <= self.region_sd < math.inf and 0 <= self.year_sd < math.inf):
            raise ConfigError("regressor sds must be nonnegative and finite")
        finite_mean = math.isfinite(self.log_mean)
        if not (finite_mean and 0 < self.min_value < self.max_value < math.inf):
            raise ConfigError("need a finite log_mean and 0 < min_value < max_value < inf")


# clip bounds follow the observed descriptive ranges of the calibration target
DEFAULT_REGRESSORS = {
    "EXPEMP10": RegressorDistribution(math.log(0.60), 0.30, 0.20, 0.12, 2.16),
    "GRPCAP10": RegressorDistribution(math.log(213000.0), 0.35, 0.10, 48239.0, 1584591.0),
    "PAPEMP": RegressorDistribution(math.log(0.05), 0.55, 0.35, 5.2e-4, 1.06),
    "FWCI": RegressorDistribution(math.log(0.53), 0.28, 0.18, 0.05, 8.04),
    "Q1SH": RegressorDistribution(math.log(9.84), 0.45, 0.30, 0.5, 75.27),
    "NQSH": RegressorDistribution(math.log(12.95), 0.40, 0.28, 0.5, 100.0),
}

LOGGED_REGRESSORS = ("EXPEMP10", "GRPCAP10", "PAPEMP")
# columns the generated dataset.csv holds besides the regressors, so no regressor may
# take their names
_GENERATED_COLUMNS = (
    *RESERVED_COLUMNS, "PUB21EMP", "log(PUB21EMP)", *(f"log({n})" for n in LOGGED_REGRESSORS)
)

# Every scalar key of a DGP config file as (section, key, DgpConfig field,
# type): to_mapping writes them all and from_mapping casts those present, so
# defaults live only on DgpConfig. The other keys are effects.time_profile,
# model.coefficients and, per regressor name, the _REGRESSOR_KEYS.
_SCALAR_KEYS = (
    ("panel", "n_regions", "n_regions", int),
    ("panel", "n_years", "n_years", int),
    ("panel", "first_year", "first_year", int),
    ("panel", "seed", "seed", int),
    ("effects", "region_sd", "region_effect_sd", float),
    ("effects", "noise_sd", "noise_sd", float),
    ("effects", "cluster_ar1", "cluster_ar1", float),
    ("model", "quality_substitution", "quality_substitution", float),
    ("thematic", "n_subject_areas", "n_subject_areas", int),
    ("thematic", "concentration", "profile_concentration", float),
)
_OTHER_KEYS = (("effects", "time_profile"), ("model", "coefficients"))
# the keys each section may hold; the regressors section takes any name
_SECTION_KEYS = {
    **{
        name: {k for s, k, *_ in _SCALAR_KEYS + _OTHER_KEYS if s == name}
        for name in ("panel", "effects", "model", "thematic")
    },
    "regressors": None,
}
_REGRESSOR_KEYS = ("log_mean", "region_sd", "year_sd", "min", "max")  # field order


def _mapping(value, where: str, keys=None) -> dict:
    """A mapping of a DGP config with no key outside keys (if given); null reads as {}."""
    if value is not None and not isinstance(value, dict):
        raise ConfigError(
            f"bad DGP config: {where} must be a mapping, got {type(value).__name__}"
        )
    for key in value or {}:
        if keys is not None and key not in keys:
            raise ConfigError(f"bad DGP config: unknown key {key!r} in {where}")
    return value or {}


def _cast(kind: type, value, where: str):
    """A config value as int or float; null, a bool or a fractional int is an error."""
    try:
        if value is None or isinstance(value, bool):
            raise TypeError(f"expected a number, got {value!r}")
        number = float(value)
        if kind is float:
            return number
        if not number.is_integer():
            raise ValueError(f"expected an integer, got {value!r}")
        return int(value) if isinstance(value, int) else int(number)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad DGP config: {where}: {exc}") from None


def _floats(value, where: str, keys: tuple[str, ...]) -> list[float]:
    """The values of a config mapping with exactly these keys, as floats."""
    m = _mapping(value, where, keys)
    return [_cast(float, m.get(key), f"{where}.{key}") for key in keys]


@dataclass(frozen=True)
class DgpConfig:
    n_regions: int = 78
    n_years: int = 12
    first_year: int = 2009
    seed: int = 0
    true_coefficients: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_COEFFICIENTS)
    )
    region_effect_sd: float = 0.6
    noise_sd: float = 0.25
    cluster_ar1: float = 0.0  # AR(1) within region; 0 = independent noise
    time_effect_profile: tuple[float, ...] | None = None
    regressor_distributions: dict[str, RegressorDistribution] = field(
        default_factory=lambda: dict(DEFAULT_REGRESSORS)
    )
    quality_substitution: float = 0.0
    n_subject_areas: int = 27
    profile_concentration: float = 0.35

    def __post_init__(self):
        n, t, s = self.n_regions, self.n_years, self.n_subject_areas
        design = n * t * (len(self.true_coefficients) + t)
        for ok, message in (
            (n >= 3 and t >= 3, "need n_regions, n_years >= 3"),
            (self.seed >= 0, f"seed must be nonnegative, got {self.seed}"),
            (self.n_subject_areas >= 2, "need n_subject_areas >= 2"),
            (0 < self.region_effect_sd < math.inf, "region_sd must be positive and finite"),
            (0 < self.noise_sd < math.inf, "noise_sd must be positive and finite"),
            (0 <= self.cluster_ar1 < 1, "cluster_ar1 must be in [0, 1)"),
            (math.isfinite(self.quality_substitution), "quality_substitution must be finite"),
            (
                0 < self.profile_concentration < math.inf,
                "concentration must be positive and finite",
            ),
            (n * n <= MAX_CELLS, f"panel.n_regions: {n * n} weights > {MAX_CELLS}"),
            (design <= MAX_CELLS, f"panel.n_years: {design} design cells > {MAX_CELLS}"),
            (n * s <= MAX_CELLS, f"thematic.n_subject_areas: {n * s} profile shares > {MAX_CELLS}"),
        ):
            if not ok:
                raise ConfigError(message)
        profile = self.time_effect_profile
        if profile is None:  # monotone increasing year offsets (upward publication trend)
            profile = np.linspace(0.0, 1.5, t)
        profile = tuple(float(v) for v in profile)
        if len(profile) != t or not all(map(math.isfinite, profile)):
            raise ConfigError(f"time_effect_profile needs {t} finite entries")
        object.__setattr__(self, "time_effect_profile", profile)
        for name in self.regressor_distributions:
            key = f"regressors.{name}"
            if not isinstance(name, str):
                raise ConfigError(f"{key}: name {name!r} is not a string")
            if name in _GENERATED_COLUMNS:
                raise ConfigError(f"{key}: name {name!r} is a column the generator writes")
            check_names([name], lambda message: ConfigError(f"{key}: {message}"), "name")
        dists = self.regressor_distributions
        logged = {f"log({name})": name for name in LOGGED_REGRESSORS if name in dists}
        reach = 0.0  # the largest |log output| the terms can add up to
        for label, coef in self.true_coefficients.items():
            term = parse_term_label(label) if isinstance(label, str) else None
            if term is None or term.name not in dists.keys() | logged.keys():
                raise ConfigError(f"true coefficient {label!r} names an unknown regressor")
            if not math.isfinite(coef):
                raise ConfigError(f"true coefficient {label!r} must be finite, got {coef}")
            # the clip range bounds a value, its lag (a weighted mean) and its log
            name = logged.get(term.name, term.name)
            lo, hi = dists[name].min_value, dists[name].max_value
            top = max(-math.log(lo), math.log(hi)) if name != term.name else hi
            reach += abs(coef) * (top * top if term.squared else top)
            if not math.isfinite(reach):
                raise ConfigError(
                    f"model.coefficients.{label}: {coef} x {label} overflows a float: "
                    f"regressors.{name} is clipped to [{lo}, {hi}]"
                )

    # -- config file round-trip ------------------------------------------

    def to_mapping(self) -> dict:
        m = {
            "panel": {},
            "effects": {"time_profile": list(self.time_effect_profile)},
            "model": {"coefficients": dict(self.true_coefficients)},
            "regressors": {
                name: dict(zip(_REGRESSOR_KEYS, astuple(dist)))
                for name, dist in self.regressor_distributions.items()
            },
            "thematic": {},
        }
        for section, key, name, _ in _SCALAR_KEYS:
            m[section][key] = getattr(self, name)
        return m

    @classmethod
    def from_mapping(cls, m: dict) -> "DgpConfig":
        """Keys left out keep the defaults; an unknown key or a bad value is a ConfigError."""
        _mapping(m, "the config", _SECTION_KEYS)
        sections = {
            name: _mapping(m.get(name), name, keys) for name, keys in _SECTION_KEYS.items()
        }
        kwargs = {
            name: _cast(kind, sections[section][key], f"{section}.{key}")
            for section, key, name, kind in _SCALAR_KEYS
            if key in sections[section]
        }
        coeffs = _mapping(sections["model"].get("coefficients"), "model.coefficients")
        if coeffs:
            kwargs["true_coefficients"] = {
                label: _cast(float, value, f"model.coefficients.{label}")
                for label, value in coeffs.items()
            }
        if sections["regressors"]:
            kwargs["regressor_distributions"] = {
                name: RegressorDistribution(*_floats(d, f"regressors.{name}", _REGRESSOR_KEYS))
                for name, d in sections["regressors"].items()
            }
        profile = sections["effects"].get("time_profile")
        if profile is not None and not isinstance(profile, (list, dict)):
            raise ConfigError(
                "bad DGP config: effects.time_profile must be a list or a mapping"
            )
        if isinstance(profile, list):
            kwargs["time_effect_profile"] = [
                _cast(float, v, "effects.time_profile") for v in profile
            ]
        cfg = cls(**kwargs)
        if isinstance(profile, dict):  # spread once the constructor has bounded n_years
            ends = _floats(profile, "effects.time_profile", ("start", "stop"))
            cfg = replace(cfg, time_effect_profile=np.linspace(*ends, cfg.n_years))
        return cfg

    @classmethod
    def from_yaml(cls, path) -> "DgpConfig":
        import yaml  # PyYAML loads only where a config is read or written

        with open(path, "r", encoding="utf-8") as fh:
            try:
                m = yaml.safe_load(fh)
            except yaml.YAMLError as exc:
                raise ConfigError(f"{path}: cannot parse config: {exc}") from None
        if not isinstance(m, dict):
            raise ConfigError(f"{path}: config must be a mapping")
        return cls.from_mapping(m)

    def to_yaml(self, path) -> None:
        import yaml

        with open(path, "w", encoding="utf-8", newline="") as fh:
            yaml.safe_dump(self.to_mapping(), fh, sort_keys=True)


@dataclass(frozen=True)
class GeneratedPanel:
    dataset: PanelDataset
    weights: SpatialWeights
    profiles: ThematicProfileMatrix


@dataclass(frozen=True)
class PanelBlock:
    """B generated panels at once, each array with a leading replication axis.

    It reads as a PanelDataset does (region_ids, years, var) and holds the
    weights stack as w, so that term_values and estimation.fit_block take it
    for both. Names are not checked here.
    """

    region_ids: tuple[str, ...]
    years: tuple[int, ...]
    shares: np.ndarray  # (B, n, S) thematic profiles
    w: np.ndarray  # (B, n, n) weights
    variables: dict[str, np.ndarray]  # (B, n, T) each, in generate_panel's column order

    def var(self, name: str) -> np.ndarray:
        return self.variables[name]


@functools.cache
def _region_ids(n: int) -> tuple[str, ...]:
    width = len(str(n))
    return tuple(f"R{str(i + 1).zfill(width)}" for i in range(n))


@functools.cache
def _subject_areas(s: int) -> tuple[str, ...]:
    return tuple(f"SA{str(j + 1).zfill(2)}" for j in range(s))


def _generated_columns(cfg: DgpConfig) -> tuple[str, ...]:
    """The variables of a generated panel, in order."""
    dists = cfg.regressor_distributions
    logs = tuple(f"log({name})" for name in LOGGED_REGRESSORS if name in dists)
    return (*dists, *logs, "log(PUB21EMP)", "PUB21EMP")


def generate_panel(cfg: DgpConfig, rng: np.random.Generator | None = None) -> GeneratedPanel:
    """Draw one synthetic panel plus its thematic weights.

    Deterministic given cfg.seed: the same config yields bit-identical
    output. Pass an explicit rng to derive replication streams instead.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    block = generate_block(cfg, [rng])
    regions = block.region_ids
    return GeneratedPanel(
        PanelDataset(regions, block.years, {k: v[0] for k, v in block.variables.items()}),
        SpatialWeights(regions, block.w[0]),
        ThematicProfileMatrix(regions, _subject_areas(cfg.n_subject_areas), block.shares[0]),
    )


def generate_block(cfg: DgpConfig, rngs) -> PanelBlock:
    """Draw one synthetic panel per generator in rngs, as one PanelBlock.

    Replication b makes the draws generate_panel makes, from rngs[b], and
    gets the same bits. The checks of the profiles, the weights and every
    term run once over the whole block, in generate_panel's order; the first
    that fails raises generate_panel's error for the first replication
    failing it.
    """
    n, t, s = cfg.n_regions, cfg.n_years, cfg.n_subject_areas
    dists = cfg.regressor_distributions
    size = len(rngs)
    regions = _region_ids(n)

    # every draw first, replication by replication, in the order of the steps below
    alpha = np.full(s, cfg.profile_concentration)
    shares = np.empty((size, n, s))
    z_region = np.empty((len(dists), size, n))
    u = np.empty((len(dists), size, n, t))
    effects = np.empty((size, n))
    innovations = np.empty((size, n, t))
    for b, rng in enumerate(rngs):
        shares[b] = rng.dirichlet(alpha, size=n)
        for r in range(len(dists)):
            rng.standard_normal(out=z_region[r, b])
            rng.standard_normal(out=u[r, b])
        rng.standard_normal(out=effects[b])
        rng.standard_normal(out=innovations[b])

    # thematic profiles -> weights; low concentration keeps profiles
    # heterogeneous so clamping leaves real cross-region weight variation
    check_profile_rows(regions, shares)
    w = standardize_rows(profile_correlations(shares))
    check_weight_rows(regions, w)

    variables: dict[str, np.ndarray] = {}
    for (name, dist), z, ur in zip(dists.items(), z_region, u):
        log_x = dist.log_mean + dist.region_sd * z[..., np.newaxis] + dist.year_sd * ur
        with np.errstate(over="ignore"):  # the clip bounds a level that overflows
            variables[name] = np.clip(np.exp(log_x), dist.min_value, dist.max_value)
    for name in LOGGED_REGRESSORS:
        if name in variables:
            variables[f"log({name})"] = np.log(variables[name])

    region_effects = cfg.region_effect_sd * effects
    tau = np.asarray(cfg.time_effect_profile)

    # AR(1) within region; at rho = 0 this is the iid draw bit for bit
    rho = cfg.cluster_ar1
    noise = np.empty((size, n, t))
    noise[..., 0] = innovations[..., 0]
    scale = math.sqrt(1.0 - rho**2)
    for j in range(1, t):
        noise[..., j] = rho * noise[..., j - 1] + scale * innovations[..., j]
    noise *= cfg.noise_sd

    # the estimator's own term builder, so slFWCI or FWCI^2 means the same to both;
    # the block's variables gain the outcome once the terms are taken
    years = tuple(range(cfg.first_year, cfg.first_year + t))
    block = PanelBlock(regions, years, shares, w, variables)
    log_y = np.zeros((size, n, t))
    for label, coef in cfg.true_coefficients.items():
        log_y += coef * term_values(block, parse_term_label(label), block)
    log_y += region_effects[..., np.newaxis] + tau + noise
    log_y -= cfg.quality_substitution

    variables["log(PUB21EMP)"] = log_y
    with np.errstate(over="ignore"):  # mc fits only the log; write_panel_csv refuses inf
        variables["PUB21EMP"] = np.exp(log_y)
    return block


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McTermSummary:
    truth: float
    mean_estimate: float
    bias: float
    empirical_sd: float
    mean_se: float
    coverage_95: float


# the columns of McReport.render_text: (header, McTermSummary field, width, format)
_MC_COLUMNS = (
    ("truth", "truth", 10, ".4f"),
    ("mean est", "mean_estimate", 12, ".4f"),
    ("bias", "bias", 12, ".5f"),
    ("emp sd", "empirical_sd", 10, ".4f"),
    ("mean se", "mean_se", 10, ".4f"),
    ("cover95", "coverage_95", 10, ".3f"),
)


@dataclass(frozen=True)
class McReport:
    replications: int
    spec_tag: str
    covariance: str
    seed: int
    terms: dict[str, McTermSummary]
    rng_algorithm: str = RNG_ALGORITHM

    def to_dict(self) -> dict:
        return asdict(self)

    def render_text(self) -> str:
        label_w = max([len(l) for l in self.terms] + [8])
        lines = [
            f"monte carlo: {self.replications} replications of {self.spec_tag!r} "
            f"({self.covariance} errors, seed {self.seed})",
            "term".ljust(label_w) + "".join(head.rjust(width) for head, _, width, _ in _MC_COLUMNS),
        ]
        for label, s in self.terms.items():
            cells = (format(getattr(s, name), f"{w}{f}") for _, name, w, f in _MC_COLUMNS)
            lines.append(label.ljust(label_w) + "".join(cells))
        return "\n".join(lines)


def block_size(cfg: DgpConfig, spec: ModelSpec) -> int:
    """Replications per Monte Carlo block: as many as keep one block's [X y],
    n*T*(k+1) float64s each, within BLOCK_BYTES, and at least 1."""
    k = len(spec.regressors) + spec.intercept + (cfg.n_years - 1) * spec.time_dummies
    return max(1, BLOCK_BYTES // (cfg.n_regions * cfg.n_years * (k + 1) * 8))


def _check_generated(cfg: DgpConfig, spec: ModelSpec, spec_tag: str) -> None:
    """Raise unless the generator writes every variable spec reads, and under names
    (regions, variables, subject areas) that the panel and profile types accept."""
    columns = _generated_columns(cfg)
    for name in (spec.dependent, *(term.name for term in spec.regressors)):
        if name not in columns:
            raise UnknownVariable(
                f"spec {spec_tag!r} reads variable {name!r}, which the DGP does not generate"
            )
    check_names(_region_ids(cfg.n_regions), DuplicateRow, "region")
    check_names(columns, DuplicateRow, "variable")
    check_names(_subject_areas(cfg.n_subject_areas), InvalidProfiles, "subject area")


def monte_carlo(
    cfg: DgpConfig, spec_tag: str, replications: int, covariance: str = "cluster_by_region"
) -> McReport:
    """Repeat generate -> fit; aggregate bias, dispersion, and 95% coverage.

    Replication i draws its generator from SeedSequence(cfg.seed).spawn,
    so the same config and seed give the same report. Replications are
    generated and fitted in blocks of block_size (generate_block, fit_block);
    a block that fails a check is run again one replication at a time
    (generate_panel, fit_model), so an engine error keeps its type and names
    the first replication that fails and its spawn key. A spec that reads a
    variable the DGP does not generate is refused before any draw.
    """
    if not 2 <= replications <= MAX_REPLICATIONS:
        raise ConfigError(f"replications must be in [2, {MAX_REPLICATIONS}], got {replications}")
    spec = expand_notation(spec_tag, covariance)
    _check_generated(cfg, spec, spec_tag)
    labels = [term.label for term in spec.regressors]
    tracked = [label for label in labels if label in cfg.true_coefficients]
    columns = [labels.index(label) for label in tracked]
    streams = np.random.SeedSequence(cfg.seed).spawn(replications)

    def one_rep(i: int):
        try:
            generated = generate_panel(cfg, np.random.default_rng(streams[i]))
            fit = fit_model(generated.dataset, spec, generated.weights)
        except EngineError as exc:
            raise type(exc)(
                f"replication {i} (spawn key {streams[i].spawn_key}): {exc}"
            ) from exc
        crit = t_critical(fit.dof)
        return [(fit.coefficients[label], fit.std_errors[label], crit) for label in tracked]

    # (estimate, standard error, t critical value) per replication and term
    results = np.empty((replications, len(tracked), 3))
    size = block_size(cfg, spec)
    for start in range(0, replications, size):
        stop = min(start + size, replications)
        try:
            rngs = [np.random.default_rng(s) for s in streams[start:stop]]
            estimates, ses, dof = fit_block(generate_block(cfg, rngs), spec)
        except EngineError:
            results[start:stop] = [one_rep(i) for i in range(start, stop)]
            continue
        results[start:stop, :, 0] = estimates[:, columns]
        results[start:stop, :, 1] = ses[:, columns]
        results[start:stop, :, 2] = t_critical(dof)
    terms = {}
    for j, label in enumerate(tracked):
        estimates, ses, crits = results[:, j].T
        truth = cfg.true_coefficients[label]
        terms[label] = McTermSummary(
            truth=truth,
            mean_estimate=float(estimates.mean()),
            bias=float(estimates.mean() - truth),
            empirical_sd=float(estimates.std(ddof=1)),
            mean_se=float(ses.mean()),
            coverage_95=float((np.abs(estimates - truth) <= crits * ses).mean()),
        )
    return McReport(
        replications=replications,
        spec_tag=spec_tag,
        covariance=covariance,
        seed=cfg.seed,
        terms=terms,
    )

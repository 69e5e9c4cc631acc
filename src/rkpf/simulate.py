"""Synthetic panel generation and Monte Carlo estimator validation.

The data-generating process mirrors the main two-way FE SLX specification:
clipped-lognormal regressors with region-level and year-level components,
random Dirichlet thematic profiles (whose correlations yield the weights
matrix), Gaussian region effects, a monotone time-offset profile, and the
linear model with Gaussian noise. Default true coefficients and clip ranges
are calibrated so the synthetic world resembles the published estimates and
descriptive ranges; this is calibration, not reproduction, and the output
metadata says so.

The dependent variable is produced directly in log-per-employee form,
already aligned one period ahead, so generated panels feed the estimator
without further shifting. quality_substitution applies the log-output
identity as a uniform -q shift; under fixed effects it is absorbed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import yaml
from scipy.special import stdtrit

from .errors import ConfigError, EngineError
from .estimation import fit_model, parse_term_label
from .panel import PanelDataset
from .runtime import parallel_map
from .suite import expand_notation
from .weights import (
    SpatialWeights,
    ThematicProfileMatrix,
    build_weights,
    correlation_matrix,
    lag_values,
)

RNG_ALGORITHM = "numpy PCG64 (default_rng), replication streams via SeedSequence.spawn"

CALIBRATION_NOTE = (
    "synthetic calibration: coefficient defaults and regressor ranges chosen "
    "to resemble published regional estimates; not a reproduction of any "
    "real dataset"
)

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
        if self.region_sd < 0 or self.year_sd < 0:
            raise ConfigError("regressor sds must be nonnegative")
        if not 0 < self.min_value < self.max_value:
            raise ConfigError("need 0 < min_value < max_value")


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


def default_time_profile(n_years: int) -> tuple[float, ...]:
    """Monotone increasing year offsets (upward publication trend)."""
    return tuple(float(v) for v in np.linspace(0.0, 1.5, n_years))


def _config_section(m: dict, name: str) -> dict:
    """One top-level section of a DGP config; absent or null reads as {}."""
    section = m.get(name)
    if section is not None and not isinstance(section, dict):
        raise ConfigError(
            f"bad DGP config: section {name!r} must be a mapping, got {type(section).__name__}"
        )
    return section or {}


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
        if self.n_regions < 3 or self.n_years < 3:
            raise ConfigError("need n_regions >= 3 and n_years >= 3")
        if self.region_effect_sd <= 0 or self.noise_sd <= 0:
            raise ConfigError("region_effect_sd and noise_sd must be positive")
        if not 0 <= self.cluster_ar1 < 1:
            raise ConfigError("cluster_ar1 must be in [0, 1)")
        profile = self.time_effect_profile
        if profile is None:
            profile = default_time_profile(self.n_years)
        profile = tuple(float(v) for v in profile)
        if len(profile) != self.n_years:
            raise ConfigError(
                f"time_effect_profile has {len(profile)} entries, need {self.n_years}"
            )
        object.__setattr__(self, "time_effect_profile", profile)

    # -- config file round-trip ------------------------------------------

    def to_mapping(self) -> dict:
        return {
            "panel": {
                "n_regions": self.n_regions,
                "n_years": self.n_years,
                "first_year": self.first_year,
                "seed": self.seed,
            },
            "effects": {
                "region_sd": self.region_effect_sd,
                "noise_sd": self.noise_sd,
                "cluster_ar1": self.cluster_ar1,
                "time_profile": list(self.time_effect_profile),
            },
            "model": {
                "quality_substitution": self.quality_substitution,
                "coefficients": dict(self.true_coefficients),
            },
            "regressors": {
                name: {
                    "log_mean": dist.log_mean,
                    "region_sd": dist.region_sd,
                    "year_sd": dist.year_sd,
                    "min": dist.min_value,
                    "max": dist.max_value,
                }
                for name, dist in self.regressor_distributions.items()
            },
            "thematic": {
                "n_subject_areas": self.n_subject_areas,
                "concentration": self.profile_concentration,
            },
        }

    @classmethod
    def from_mapping(cls, m: dict) -> "DgpConfig":
        panel, effects, model, thematic, regressors = (
            _config_section(m, name)
            for name in ("panel", "effects", "model", "thematic", "regressors")
        )
        try:
            dists = dict(DEFAULT_REGRESSORS)
            if regressors:
                dists = {
                    name: RegressorDistribution(
                        log_mean=float(d["log_mean"]),
                        region_sd=float(d["region_sd"]),
                        year_sd=float(d["year_sd"]),
                        min_value=float(d["min"]),
                        max_value=float(d["max"]),
                    )
                    for name, d in regressors.items()
                }
            profile = effects.get("time_profile")
            if isinstance(profile, dict):
                n_years = int(panel.get("n_years", 12))
                profile = list(
                    np.linspace(float(profile["start"]), float(profile["stop"]), n_years)
                )
            coeffs = model.get("coefficients")
            return cls(
                n_regions=int(panel.get("n_regions", 78)),
                n_years=int(panel.get("n_years", 12)),
                first_year=int(panel.get("first_year", 2009)),
                seed=int(panel.get("seed", 0)),
                true_coefficients=dict(coeffs) if coeffs else dict(DEFAULT_COEFFICIENTS),
                region_effect_sd=float(effects.get("region_sd", 0.6)),
                noise_sd=float(effects.get("noise_sd", 0.25)),
                cluster_ar1=float(effects.get("cluster_ar1", 0.0)),
                time_effect_profile=profile,
                regressor_distributions=dists,
                quality_substitution=float(model.get("quality_substitution", 0.0)),
                n_subject_areas=int(thematic.get("n_subject_areas", 27)),
                profile_concentration=float(thematic.get("concentration", 0.35)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad DGP config: {exc}") from None

    @classmethod
    def from_yaml(cls, path) -> "DgpConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                m = yaml.safe_load(fh)
            except yaml.YAMLError as exc:
                raise ConfigError(f"{path}: cannot parse config: {exc}") from None
        if not isinstance(m, dict):
            raise ConfigError(f"{path}: config must be a mapping")
        try:
            return cls.from_mapping(m)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def to_yaml(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yaml.safe_dump(self.to_mapping(), fh, sort_keys=True)


@dataclass(frozen=True)
class GeneratedPanel:
    dataset: PanelDataset
    weights: SpatialWeights
    profiles: ThematicProfileMatrix
    config: DgpConfig


def _region_ids(n: int) -> tuple[str, ...]:
    width = len(str(n))
    return tuple(f"R{str(i + 1).zfill(width)}" for i in range(n))


def generate_panel(cfg: DgpConfig, rng: np.random.Generator | None = None) -> GeneratedPanel:
    """Draw one synthetic panel plus its thematic weights.

    Deterministic given cfg.seed: the same config yields bit-identical
    output. Pass an explicit rng to derive replication streams instead.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    n, t = cfg.n_regions, cfg.n_years
    regions = _region_ids(n)
    years = tuple(range(cfg.first_year, cfg.first_year + t))

    # thematic profiles -> weights; low concentration keeps profiles
    # heterogeneous so clamping leaves real cross-region weight variation
    alpha = np.full(cfg.n_subject_areas, cfg.profile_concentration)
    shares = rng.dirichlet(alpha, size=n)
    areas = tuple(f"SA{str(j + 1).zfill(2)}" for j in range(cfg.n_subject_areas))
    profiles = ThematicProfileMatrix(regions, areas, shares)
    w = build_weights(correlation_matrix(profiles), regions)

    variables: dict[str, np.ndarray] = {}
    for name, dist in cfg.regressor_distributions.items():
        z_region = rng.standard_normal(n)
        u = rng.standard_normal((n, t))
        log_x = dist.log_mean + dist.region_sd * z_region[:, np.newaxis] + dist.year_sd * u
        levels = np.clip(np.exp(log_x), dist.min_value, dist.max_value)
        variables[name] = levels
    for name in LOGGED_REGRESSORS:
        if name in variables:
            variables[f"log({name})"] = np.log(variables[name])

    region_effects = cfg.region_effect_sd * rng.standard_normal(n)
    tau = np.asarray(cfg.time_effect_profile)

    if cfg.cluster_ar1 > 0:
        rho = cfg.cluster_ar1
        innovations = rng.standard_normal((n, t))
        noise = np.empty((n, t))
        noise[:, 0] = innovations[:, 0]
        scale = math.sqrt(1.0 - rho**2)
        for j in range(1, t):
            noise[:, j] = rho * noise[:, j - 1] + scale * innovations[:, j]
        noise *= cfg.noise_sd
    else:
        noise = cfg.noise_sd * rng.standard_normal((n, t))

    log_y = np.zeros((n, t))
    for label, coef in cfg.true_coefficients.items():
        term = parse_term_label(label)
        if term.name not in variables:
            raise ConfigError(
                f"true coefficient {label!r} references unknown regressor {term.name!r}"
            )
        values = variables[term.name]
        if term.squared:
            values = values**2
        if term.lag:
            values = lag_values(w, values)
        log_y += coef * values
    log_y += region_effects[:, np.newaxis] + tau[np.newaxis, :] + noise
    log_y -= cfg.quality_substitution

    variables["log(PUB21EMP)"] = log_y
    variables["PUB21EMP"] = np.exp(log_y)

    dataset = PanelDataset(
        regions,
        years,
        variables,
        metadata={
            "generator": "synthetic DGP",
            "rng": RNG_ALGORITHM,
            "seed": str(cfg.seed),
            "calibration": CALIBRATION_NOTE,
        },
    )
    return GeneratedPanel(dataset, w, profiles, cfg)


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


@dataclass(frozen=True)
class McReport:
    replications: int
    spec_tag: str
    covariance: str
    seed: int
    terms: dict[str, McTermSummary]
    rng_algorithm: str = RNG_ALGORITHM

    def to_dict(self) -> dict:
        return {
            "replications": self.replications,
            "spec_tag": self.spec_tag,
            "covariance": self.covariance,
            "seed": self.seed,
            "rng_algorithm": self.rng_algorithm,
            "terms": {
                label: {
                    "truth": s.truth,
                    "mean_estimate": s.mean_estimate,
                    "bias": s.bias,
                    "empirical_sd": s.empirical_sd,
                    "mean_se": s.mean_se,
                    "coverage_95": s.coverage_95,
                }
                for label, s in self.terms.items()
            },
        }

    def render_text(self) -> str:
        label_w = max([len(l) for l in self.terms] + [8])
        lines = [
            f"monte carlo: {self.replications} replications of {self.spec_tag!r} "
            f"({self.covariance} errors, seed {self.seed})",
            "term".ljust(label_w)
            + "truth".rjust(10)
            + "mean est".rjust(12)
            + "bias".rjust(12)
            + "emp sd".rjust(10)
            + "mean se".rjust(10)
            + "cover95".rjust(10),
        ]
        for label, s in self.terms.items():
            lines.append(
                label.ljust(label_w)
                + f"{s.truth:10.4f}"
                + f"{s.mean_estimate:12.4f}"
                + f"{s.bias:12.5f}"
                + f"{s.empirical_sd:10.4f}"
                + f"{s.mean_se:10.4f}"
                + f"{s.coverage_95:10.3f}"
            )
        return "\n".join(lines)


def monte_carlo(
    cfg: DgpConfig, spec_tag: str, replications: int, covariance: str = "cluster_by_region"
) -> McReport:
    """Repeat generate -> fit; aggregate bias, dispersion, and 95% coverage.

    Replication i draws its generator from SeedSequence(cfg.seed).spawn,
    so the same config and seed give the same report. An engine error in a
    replication keeps its type and names the replication and its spawn key.
    """
    if replications < 2:
        raise ConfigError("replications must be >= 2")
    spec = expand_notation(spec_tag, covariance)
    tracked = [
        label for label in spec_to_labels(spec) if label in cfg.true_coefficients
    ]
    streams = np.random.SeedSequence(cfg.seed).spawn(replications)

    def one_rep(i: int):
        try:
            generated = generate_panel(cfg, np.random.default_rng(streams[i]))
            fit = fit_model(generated.dataset, spec, generated.weights)
        except EngineError as exc:
            raise type(exc)(
                f"replication {i} (spawn key {streams[i].spawn_key}): {exc}"
            ) from exc
        crit = stdtrit(fit.dof, 0.975)
        est, se, covered = {}, {}, {}
        for label in tracked:
            b = fit.coefficients[label]
            s = fit.std_errors[label]
            truth = cfg.true_coefficients[label]
            est[label] = b
            se[label] = s
            covered[label] = abs(b - truth) <= crit * s
        return est, se, covered

    results = parallel_map(one_rep, range(replications))

    terms = {}
    for label in tracked:
        estimates = np.array([r[0][label] for r in results])
        ses = np.array([r[1][label] for r in results])
        coverage = np.array([r[2][label] for r in results])
        truth = cfg.true_coefficients[label]
        terms[label] = McTermSummary(
            truth=truth,
            mean_estimate=float(estimates.mean()),
            bias=float(estimates.mean() - truth),
            empirical_sd=float(estimates.std(ddof=1)),
            mean_se=float(ses.mean()),
            coverage_95=float(coverage.mean()),
        )
    return McReport(
        replications=replications,
        spec_tag=spec_tag,
        covariance=covariance,
        seed=cfg.seed,
        terms=terms,
    )


def spec_to_labels(spec) -> list[str]:
    return [term.label for term in spec.regressors]

"""DGP generation and Monte Carlo harness."""
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rkpf import simulate
from rkpf.errors import ConfigError, EngineError, RankDeficient, UnknownVariable
from rkpf.estimation import fit_model, t_critical
from rkpf.panel import descriptive_stats, validate_balanced
from rkpf.simulate import (
    _REGRESSOR_KEYS,
    _SCALAR_KEYS,
    DEFAULT_COEFFICIENTS,
    DEFAULT_REGRESSORS,
    MAX_CELLS,
    DgpConfig,
    McReport,
    McTermSummary,
    RegressorDistribution,
    block_size,
    generate_block,
    generate_panel,
    monte_carlo,
)
from rkpf.suite import expand_notation

# config values of every YAML kind; ints are either small enough that no
# config allocates a large default time profile, or too large to allocate
VALUES = st.one_of(
    st.integers(-3, 40),
    st.integers(-10**5, 10**5),
    st.sampled_from([10**20, -(10**20)]),
    st.floats(),
    st.text(max_size=6),
    st.none(),
    st.lists(st.integers(-3, 3) | st.floats(), max_size=7),
    st.dictionaries(st.sampled_from(["start", "stop", "x"]), st.floats(-3, 3) | st.text(max_size=3)),
)


@st.composite
def config_mappings(draw):
    """DGP config mappings built from the loader's key table, with bad values."""
    keys = [(s, k) for s, k, *_ in _SCALAR_KEYS] + [("effects", "time_profile")]
    # small panels, so that generate_panel runs on most configs that load
    m: dict = {"panel": {"n_regions": draw(st.integers(3, 20)), "n_years": draw(st.integers(3, 6))}}
    for section, key in draw(st.lists(st.sampled_from(keys), max_size=8)):
        m.setdefault(section, {})[key] = draw(VALUES)
    labels = st.sampled_from([*DEFAULT_COEFFICIENTS, "log(FOO)"]) | st.text(max_size=4)
    if draw(st.booleans()):
        m.setdefault("model", {})["coefficients"] = draw(
            st.dictionaries(labels, VALUES, max_size=4) | VALUES
        )
    if draw(st.booleans()):
        entry = st.fixed_dictionaries({k: st.floats(-2, 12) for k in _REGRESSOR_KEYS}) | (
            st.dictionaries(st.sampled_from([*_REGRESSOR_KEYS, "mean"]), VALUES)
        )
        m["regressors"] = draw(
            st.dictionaries(st.sampled_from([*DEFAULT_REGRESSORS, "X"]), entry, max_size=3)
        )
    if draw(st.booleans()):
        m[draw(st.sampled_from(["panel", "effects", "model", "thematic", "extra"]))] = draw(VALUES)
    return m


class TestDgpConfig:
    def test_defaults_valid(self):
        cfg = DgpConfig()
        assert cfg.n_regions == 78 and cfg.n_years == 12
        assert cfg.true_coefficients == DEFAULT_COEFFICIENTS
        assert len(cfg.time_effect_profile) == 12
        assert all(
            b >= a
            for a, b in zip(cfg.time_effect_profile, cfg.time_effect_profile[1:])
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_regions": 2},
            {"n_years": 2},
            {"noise_sd": 0.0},
            {"region_effect_sd": -1.0},
            {"cluster_ar1": 1.0},
            {"time_effect_profile": (0.0, 1.0)},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            DgpConfig(**kwargs)

    def test_yaml_round_trip(self, tmp_path):
        cfg = replace(DgpConfig(seed=9), noise_sd=0.4, cluster_ar1=0.5)
        path = tmp_path / "dgp.yaml"
        cfg.to_yaml(path)
        loaded = DgpConfig.from_yaml(path)
        assert loaded == cfg

    def test_linspace_profile_section(self, tmp_path):
        path = tmp_path / "dgp.yaml"
        path.write_text(
            "panel: {n_regions: 10, n_years: 4, seed: 1}\n"
            "effects: {time_profile: {start: 0.0, stop: 0.9}}\n",
            encoding="utf-8",
        )
        cfg = DgpConfig.from_yaml(path)
        assert cfg.time_effect_profile == tuple(np.linspace(0.0, 0.9, 4))

    @given(m=config_mappings())
    # an integral float passes as an int; its default time profile would take 8.15 GiB
    @example(m={"panel": {"n_regions": 29, "n_years": 1093550423.0}})
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_mapping_loads_or_raises_config_error(self, m):
        try:
            cfg = DgpConfig.from_mapping(m)
        except ConfigError:
            return
        if cfg.n_regions <= 20 and cfg.n_years <= 6 and cfg.n_subject_areas <= 30:
            try:
                with np.errstate(all="ignore"):
                    generate_panel(cfg)
            except EngineError:
                pass

    @pytest.mark.parametrize(
        "m, key",
        [
            ({"panel": {"n_regions": 5000}}, "panel.n_regions"),
            ({"panel": {"n_regions": 3, "n_years": 3000}}, "panel.n_years"),
            ({"panel": {"n_regions": 3, "n_years": 3000},
              "effects": {"time_profile": {"start": 0.0, "stop": 1.0}}}, "panel.n_years"),
            ({"thematic": {"n_subject_areas": 300_000}}, "thematic.n_subject_areas"),
        ],
        ids=["weights", "design", "design-linspace-profile", "profiles"],
    )
    def test_arrays_over_the_bound_rejected_before_allocation(self, m, key):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: \d+ .* > {MAX_CELLS}$"):
            DgpConfig.from_mapping(m)

    @pytest.mark.parametrize("name", ["region", "year", "PUB21EMP", " FWCI", "FWCI\t", "F\x00", 1])
    def test_regressor_name_a_table_would_not_hold_is_named(self, name):
        """A generated column's name, one that check_names refuses, or no string."""
        dists = {name: DEFAULT_REGRESSORS["FWCI"]}
        with pytest.raises(ConfigError, match=rf"^regressors\.{re.escape(str(name))}: "):
            DgpConfig(regressor_distributions=dists, true_coefficients={})

    def test_benchmark_sizes_within_the_bound(self):
        DgpConfig(n_regions=2000, n_years=20)
        DgpConfig(n_regions=78, n_years=12)

    def test_bad_yaml(self, tmp_path):
        path = tmp_path / "dgp.yaml"
        path.write_text("panel: [unclosed", encoding="utf-8")
        with pytest.raises(ConfigError):
            DgpConfig.from_yaml(path)

    def test_non_mapping_yaml(self, tmp_path):
        path = tmp_path / "dgp.yaml"
        path.write_text("- just\n- a\n- list\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            DgpConfig.from_yaml(path)


class TestGeneratePanel:
    def test_shapes_and_balance(self):
        g = generate_panel(DgpConfig(n_regions=10, n_years=5, seed=1))
        assert g.dataset.n_regions == 10 and g.dataset.n_years == 5
        assert validate_balanced(g.dataset).passed
        assert g.weights.w.shape == (10, 10)
        for name in ("log(PUB21EMP)", "log(EXPEMP10)", "FWCI", "Q1SH", "NQSH"):
            assert name in g.dataset.variables

    def test_same_seed_bit_identical(self):
        a = generate_panel(DgpConfig(seed=7, n_regions=12, n_years=4))
        b = generate_panel(DgpConfig(seed=7, n_regions=12, n_years=4))
        for name in a.dataset.variables:
            np.testing.assert_array_equal(
                a.dataset.var(name), b.dataset.var(name)
            )
        np.testing.assert_array_equal(a.weights.w, b.weights.w)

    def test_different_seed_differs(self):
        a = generate_panel(DgpConfig(seed=1, n_regions=12, n_years=4))
        b = generate_panel(DgpConfig(seed=2, n_regions=12, n_years=4))
        assert not np.array_equal(
            a.dataset.var("log(PUB21EMP)"), b.dataset.var("log(PUB21EMP)")
        )

    def test_near_noiseless_recovery(self):
        cfg = replace(DgpConfig(n_regions=20, n_years=8, seed=3), noise_sd=1e-10)
        g = generate_panel(cfg)
        fit = fit_model(
            g.dataset, expand_notation("fe.tw.q.sl", "classical"), g.weights
        )
        for label, truth in cfg.true_coefficients.items():
            assert abs(fit.coefficients[label] - truth) < 1e-6
        assert fit.r_squared_within == pytest.approx(1.0, abs=1e-9)

    def test_default_calibration_matches_observed_range(self):
        g = generate_panel(DgpConfig(seed=0))
        stats = descriptive_stats(g.dataset, ["EXPEMP10"])["EXPEMP10"]
        for value in stats.values():
            assert 0.12 <= value <= 2.16

    def test_levels_respect_clip_bounds(self):
        cfg = DgpConfig(seed=5)
        g = generate_panel(cfg)
        for name, dist in cfg.regressor_distributions.items():
            values = g.dataset.var(name)
            assert values.min() >= dist.min_value
            assert values.max() <= dist.max_value

    def test_log_variables_consistent(self):
        g = generate_panel(DgpConfig(seed=6, n_regions=10, n_years=4))
        np.testing.assert_allclose(
            g.dataset.var("log(EXPEMP10)"), np.log(g.dataset.var("EXPEMP10"))
        )
        np.testing.assert_allclose(
            g.dataset.var("PUB21EMP"), np.exp(g.dataset.var("log(PUB21EMP)"))
        )

    def test_quality_substitution_shifts_output(self):
        base = generate_panel(replace(DgpConfig(seed=8, n_regions=8, n_years=4)))
        shifted = generate_panel(
            replace(DgpConfig(seed=8, n_regions=8, n_years=4), quality_substitution=0.3)
        )
        diff = base.dataset.var("log(PUB21EMP)") - shifted.dataset.var("log(PUB21EMP)")
        np.testing.assert_allclose(diff, 0.3, atol=1e-12)

    def test_unknown_coefficient_label_rejected(self):
        with pytest.raises(ConfigError):
            cfg = replace(
                DgpConfig(n_regions=8, n_years=4), true_coefficients={"log(NOPE)": 1.0}
            )
            generate_panel(cfg)

    def test_term_that_overflows_is_named(self):
        # FWCI^2 of a value clipped to 1e200 overflows, so the config names the
        # coefficient and the clip range before any panel is drawn
        huge = RegressorDistribution(460.0, 0.1, 0.1, 1e170, 1e200)
        with pytest.raises(
            ConfigError,
            match=r"^model\.coefficients\.FWCI\^2: .*regressors\.FWCI is clipped to \[1e\+170, 1e\+200\]$",
        ):
            DgpConfig(
                n_regions=4, n_years=3, regressor_distributions={"FWCI": huge},
                true_coefficients={"FWCI^2": 0.5},
            )

    def test_ar1_noise_panel_still_balanced(self):
        cfg = replace(DgpConfig(seed=4, n_regions=8, n_years=6), cluster_ar1=0.7)
        g = generate_panel(cfg)
        assert validate_balanced(g.dataset).passed


class TestMonteCarlo:
    small = DgpConfig(n_regions=20, n_years=6, seed=31)

    def test_two_replications_no_crash(self):
        report = monte_carlo(self.small, "fe.tw.q", 2)
        assert report.replications == 2
        for summary in report.terms.values():
            assert 0.0 <= summary.coverage_95 <= 1.0

    def test_single_replication_rejected(self):
        with pytest.raises(ConfigError):
            monte_carlo(self.small, "fe.tw.q", 1)

    def test_replications_over_the_bound_rejected(self):
        from rkpf.simulate import MAX_REPLICATIONS

        assert MAX_REPLICATIONS >= 200
        with pytest.raises(ConfigError, match="replications"):
            monte_carlo(self.small, "fe.tw.q", MAX_REPLICATIONS + 1)

    def test_seeded_determinism(self):
        a = monte_carlo(self.small, "fe.tw.q.sl", 10)
        b = monte_carlo(self.small, "fe.tw.q.sl", 10)
        assert a.to_dict() == b.to_dict()

    def test_failing_replication_is_named(self):
        # constant FWCI/Q1SH/NQSH are absorbed by the region effects
        dists = dict(DEFAULT_REGRESSORS)
        for name in ("FWCI", "Q1SH", "NQSH"):
            dists[name] = replace(dists[name], region_sd=0.0, year_sd=0.0)
        cfg = replace(self.small, regressor_distributions=dists)
        with pytest.raises(RankDeficient, match=r"^replication 0 \(spawn key \(0,\)\): "):
            monte_carlo(cfg, "fe.tw.q.sl", 3)

    def test_bias_within_monte_carlo_noise(self):
        # |bias| < 3 * emp_sd / sqrt(reps) for the headline elasticity
        report = monte_carlo(DgpConfig(n_regions=40, n_years=8, seed=13), "fe.tw.q.sl", 60)
        s = report.terms["log(EXPEMP10)"]
        assert abs(s.bias) < 3.0 * s.empirical_sd / math.sqrt(report.replications)

    def test_tracked_terms_are_spec_terms_with_truth(self):
        report = monte_carlo(self.small, "fe.tw.q.sl.non", 2)
        assert "NQSH" not in report.terms
        assert "slNQSH" not in report.terms
        assert "Q1SH" in report.terms
        assert set(report.terms) <= set(DEFAULT_COEFFICIENTS)

    def test_report_render(self):
        report = monte_carlo(self.small, "fe.tw.q", 3)
        text = report.render_text()
        assert "replications" in text
        assert "log(EXPEMP10)" in text

    def test_clustered_noise_favors_cluster_robust_coverage(self):
        # AR(1) errors within region: the cluster sandwich should land
        # closer to nominal 95% than the classical covariance
        cfg = replace(DgpConfig(seed=11), cluster_ar1=0.7)
        classical = monte_carlo(cfg, "fe.tw.q.sl", 200, covariance="classical")
        robust = monte_carlo(cfg, "fe.tw.q.sl", 200, covariance="cluster_by_region")
        c = classical.terms["log(EXPEMP10)"].coverage_95
        r = robust.terms["log(EXPEMP10)"].coverage_95
        assert abs(r - 0.95) < abs(c - 0.95)

    def test_single_draw_elasticity_in_interval(self):
        # one dataset with elasticity 0.5: the two-way FE estimate's 95%
        # interval contains the truth (frozen seed; the statistical version
        # lives in the acceptance suite)
        coefs = dict(DEFAULT_COEFFICIENTS)
        coefs["log(EXPEMP10)"] = 0.5
        cfg = replace(DgpConfig(seed=11), true_coefficients=coefs)
        g = generate_panel(cfg)
        fit = fit_model(g.dataset, expand_notation("fe.tw.q.sl"), g.weights)
        half = t_critical(fit.dof) * fit.std_errors["log(EXPEMP10)"]
        assert abs(fit.coefficients["log(EXPEMP10)"] - 0.5) <= half


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _report_one_at_a_time(cfg, spec_tag, replications, covariance) -> dict:
    """monte_carlo's report from generate_panel + fit_model on each spawned stream,
    aggregated as monte_carlo aggregates."""
    spec = expand_notation(spec_tag, covariance)
    tracked = [t.label for t in spec.regressors if t.label in cfg.true_coefficients]
    results = []
    for stream in np.random.SeedSequence(cfg.seed).spawn(replications):
        g = generate_panel(cfg, np.random.default_rng(stream))
        fit = fit_model(g.dataset, spec, g.weights)
        crit = t_critical(fit.dof)
        results.append([(fit.coefficients[l], fit.std_errors[l], crit) for l in tracked])
    results = np.array(results)
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
    return McReport(replications, spec_tag, covariance, cfg.seed, terms).to_dict()


class TestMonteCarloBlocks:
    """monte_carlo fits replications in blocks; each must give the bits of the fit
    of its replication alone."""

    @pytest.mark.parametrize("ar1", [0.0, 0.7])
    @pytest.mark.parametrize("replications", [2, 3, 7])
    @pytest.mark.parametrize("covariance", ["classical", "cluster_by_region"])
    @pytest.mark.parametrize("tag", ["ols.q", "fe.ow.q", "fe.tw", "fe.tw.q.sl.non", "fe.tw.q.sl"])
    def test_blocks_equal_one_replication_at_a_time(self, tag, covariance, replications, ar1):
        cfg = replace(DgpConfig(seed=17), cluster_ar1=ar1)
        spec = expand_notation(tag, covariance)
        assert 1 < block_size(cfg, spec) < 7  # 7 replications leave a partial block
        report = monte_carlo(cfg, tag, replications, covariance)
        assert report.to_dict() == _report_one_at_a_time(cfg, tag, replications, covariance)

    def test_block_sizes(self):
        paper = expand_notation("fe.tw.q.sl")
        assert block_size(DgpConfig(), paper) == 2
        assert block_size(DgpConfig(n_regions=2000, n_years=20), paper) == 1

    def test_generate_panel_is_its_slice_of_the_block(self):
        cfg = replace(DgpConfig(seed=5, n_regions=12, n_years=5), cluster_ar1=0.5)
        streams = np.random.SeedSequence(cfg.seed).spawn(3)
        block = generate_block(cfg, [np.random.default_rng(s) for s in streams])
        for b, stream in enumerate(streams):
            g = generate_panel(cfg, np.random.default_rng(stream))
            assert g.dataset.region_ids == block.region_ids
            assert g.dataset.years == block.years
            assert list(g.dataset.variables) == list(block.variables)
            for name, values in g.dataset.variables.items():
                assert _bits(values) == _bits(block.variables[name][b]), name
            assert _bits(g.weights.w) == _bits(block.w[b])
            assert _bits(g.profiles.shares) == _bits(block.shares[b])

    def test_failure_inside_a_block_names_the_replication(self, monkeypatch):
        """Replication 3, the second of the block [2, 3], draws no normal variation, so
        region effects absorb every regressor: the block is run again one replication
        at a time, and the error is that path's, under replication 3's name."""
        cfg = DgpConfig(seed=3)
        assert block_size(cfg, expand_notation("fe.tw.q.sl")) == 2
        real = np.random.default_rng

        class Flat:
            def __init__(self, rng):
                self.rng = rng

            def dirichlet(self, alpha, size):
                return self.rng.dirichlet(alpha, size=size)

            def standard_normal(self, size=None, out=None):
                if out is None:
                    return np.zeros(size)
                out[...] = 0.0
                return out

        def rigged(seed=None):
            rng = real(seed)
            return Flat(rng) if getattr(seed, "spawn_key", None) == (3,) else rng

        monkeypatch.setattr(np.random, "default_rng", rigged)
        stream = np.random.SeedSequence(cfg.seed).spawn(4)[3]
        g = generate_panel(cfg, rigged(stream))
        with pytest.raises(RankDeficient) as alone:
            fit_model(g.dataset, expand_notation("fe.tw.q.sl"), g.weights)
        with pytest.raises(RankDeficient) as blocked:
            monte_carlo(cfg, "fe.tw.q.sl", 7)
        assert str(blocked.value) == f"replication 3 (spawn key (3,)): {alone.value}"

    @pytest.mark.parametrize(
        "tag, dists, variable",
        [
            ("fe.tw.q.sl.a", DEFAULT_REGRESSORS, "log(PUB21EMPA)"),
            ("fe.tw.q", {k: DEFAULT_REGRESSORS[k] for k in ("EXPEMP10", "GRPCAP10", "PAPEMP")},
             "FWCI"),
        ],
        ids=["articles-variables", "regressor-left-out"],
    )
    def test_spec_reading_a_variable_the_dgp_lacks_is_refused_before_any_draw(
        self, monkeypatch, tag, dists, variable
    ):
        def draw(*args, **kwargs):
            raise AssertionError("a replication was drawn")

        monkeypatch.setattr(simulate, "generate_block", draw)
        monkeypatch.setattr(simulate, "generate_panel", draw)
        coefficients = {f"log({k})": 0.3 for k in ("EXPEMP10", "GRPCAP10", "PAPEMP")}
        cfg = DgpConfig(regressor_distributions=dict(dists), true_coefficients=coefficients)
        message = f"spec {tag!r} reads variable {variable!r}, which the DGP does not generate"
        with pytest.raises(UnknownVariable, match=f"^{re.escape(message)}$"):
            monte_carlo(cfg, tag, 5)

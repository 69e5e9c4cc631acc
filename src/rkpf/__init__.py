"""Regional knowledge production function engine.

Panel construction, thematic-proximity spatial weights, SLX fixed-effects
estimation with cluster-robust covariance, specification-ladder comparison
tables, and a synthetic-data Monte Carlo harness.

The exports load their submodule on first use (PEP 562), so `import rkpf`
loads no numpy and `rkpf.cli.main()` can set the BLAS thread count before
numpy loads.
"""
import importlib

__version__ = "0.1.0"

# export -> the submodule that defines it
_EXPORTS = {
    "EngineError": "errors",
    "PanelDataset": "panel",
    "load_panel_csv": "panel",
    "validate_balanced": "panel",
    "descriptive_stats": "panel",
    "RegionYearIndicators": "indicators",
    "region_year_indicators": "indicators",
    "ThematicProfileMatrix": "weights",
    "SpatialWeights": "weights",
    "correlation_matrix": "weights",
    "build_weights": "weights",
    "ModelSpec": "estimation",
    "Term": "estimation",
    "FitResult": "estimation",
    "fit_model": "estimation",
    "MAIN_TAGS": "suite",
    "ComparisonTable": "suite",
    "expand_notation": "suite",
    "run_suite": "suite",
    "render_table": "suite",
    "vertex_of_quadratic": "suite",
    "DgpConfig": "simulate",
    "McReport": "simulate",
    "generate_panel": "simulate",
    "monte_carlo": "simulate",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

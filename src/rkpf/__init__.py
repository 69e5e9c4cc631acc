"""Regional knowledge production function engine.

Panel construction, thematic-proximity spatial weights, SLX fixed-effects
estimation with cluster-robust covariance, specification-ladder comparison
tables, and a synthetic-data Monte Carlo harness.
"""

__version__ = "0.1.0"

from .errors import EngineError
from .estimation import FitResult, ModelSpec, Term, fit_model
from .indicators import PublicationRecord, RegionYearIndicators, region_year_indicators
from .panel import PanelDataset, descriptive_stats, load_panel_csv, validate_balanced
from .simulate import DgpConfig, McReport, generate_panel, monte_carlo
from .suite import (
    MAIN_TAGS,
    ComparisonTable,
    expand_notation,
    render_table,
    run_suite,
    vertex_of_quadratic,
)
from .weights import SpatialWeights, ThematicProfileMatrix, build_weights, correlation_matrix

__all__ = [
    "__version__",
    "EngineError",
    "PanelDataset",
    "load_panel_csv",
    "validate_balanced",
    "descriptive_stats",
    "PublicationRecord",
    "RegionYearIndicators",
    "region_year_indicators",
    "ThematicProfileMatrix",
    "SpatialWeights",
    "correlation_matrix",
    "build_weights",
    "ModelSpec",
    "Term",
    "FitResult",
    "fit_model",
    "MAIN_TAGS",
    "ComparisonTable",
    "expand_notation",
    "run_suite",
    "render_table",
    "vertex_of_quadratic",
    "DgpConfig",
    "McReport",
    "generate_panel",
    "monte_carlo",
]

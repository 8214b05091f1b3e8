"""Numerical verification of biharmonic submanifold geometry in the unit sphere.

Given a parametric immersion into S^n, the engine computes all extrinsic
invariants from truncated Taylor jets and evaluates every biharmonicity
characterization as a numeric residual: the direct bitension field, its
normal/tangent split, the hypersurface system and the parallel-mean-curvature
system, plus parameter-family scans that locate the biharmonic locus.
"""

__version__ = "0.1.0"

from .jets import JetDomainError, JetError, elementary, seed_variable, space
from .expr import ExprSyntaxError, parse, to_string
from .chart import (
    ChartError,
    ChartSpec,
    catalog_chart,
    catalog_entries,
    eval_jet_stack,
    parse_chart,
    perturbed_chart,
    sample_points,
)
from .extrinsic import (
    GeometryBlock,
    GeometryError,
    IntrinsicCurvature,
    compute_geometry,
    geometry_block,
    intrinsic_curvature,
    sample_blocks,
    scalar_curvature,
    tau2_block,
)
from .biharmonic import (
    AllSamplesFailed,
    PMCBlock,
    ResidualReport,
    evaluate_chart,
    hypersurface_residuals,
    pmc_check,
    quantity_audit,
    sample_records,
    split_residuals,
    tau2_direct,
)
from .scan import FamilySpec, ScanResult, ScanError, sweep

__all__ = [
    "__version__",
    "space", "JetError", "JetDomainError", "seed_variable", "elementary",
    "parse", "to_string", "ExprSyntaxError",
    "ChartSpec", "ChartError", "parse_chart", "catalog_chart",
    "catalog_entries", "eval_jet_stack", "sample_points", "perturbed_chart",
    "GeometryBlock", "IntrinsicCurvature", "GeometryError",
    "compute_geometry", "geometry_block", "sample_blocks", "tau2_block",
    "intrinsic_curvature", "scalar_curvature",
    "ResidualReport", "PMCBlock", "AllSamplesFailed", "evaluate_chart",
    "sample_records", "tau2_direct", "split_residuals", "hypersurface_residuals",
    "pmc_check", "quantity_audit",
    "FamilySpec", "ScanResult", "ScanError", "sweep",
]

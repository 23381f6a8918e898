"""Sampling-based SDP feasibility solving with sketched Gibbs iterates.

The package gives query-and-sample access to Hermitian constraint
matrices (store), rebuilds an approximate eigenbasis of a constraint
sum from importance-weighted row/column samples (sketch, spectral),
describes Gibbs-weighted candidate solutions succinctly (gibbs), and
runs a multiplicative-weights feasibility loop over those pieces
(solver), with dense reference implementations for cross-checking
(oracle) and a text-file front end (manifest, report, cli).

Submodules import lazily so the CLI can pin kernel thread counts
before numpy loads.
"""
from __future__ import annotations

import importlib

from .errors import (
    ConfigError,
    EmptySketch,
    HermiticityError,
    InternalError,
    ManifestError,
    NumericalError,
    SdpSketchError,
    ShapeError,
    SizeError,
    ZeroMassError,
)

__version__ = "0.1.0"

_LAZY = {
    "SampledMatrix": "store",
    "NegatedView": "store",
    "QueryableOperator": "trace",
    "EstimatorConfig": "trace",
    "estimate_trace_product": "trace",
    "MatrixSum": "sketch",
    "SketchParams": "sketch",
    "BasisSketch": "sketch",
    "build_sketch": "sketch",
    "SpectralSurrogate": "spectral",
    "estimate_vav": "spectral",
    "decompose": "spectral",
    "GibbsDescription": "gibbs",
    "make_gibbs": "gibbs",
    "estimate_constraint_trace": "gibbs",
    "FeasibilityProblem": "solver",
    "OptimizationProblem": "solver",
    "SolverConfig": "solver",
    "FeasibilityOutcome": "solver",
    "test_feasibility": "solver",
    "optimize": "solver",
    "shadow_to_feasibility": "solver",
    "RunReport": "report",
    "load_manifest": "manifest",
    "load_feasibility": "manifest",
}

__all__ = sorted(
    [
        "ConfigError",
        "EmptySketch",
        "HermiticityError",
        "InternalError",
        "ManifestError",
        "NumericalError",
        "SdpSketchError",
        "ShapeError",
        "SizeError",
        "ZeroMassError",
        "__version__",
    ]
    + list(_LAZY)
)


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)

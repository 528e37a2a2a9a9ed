"""Projected principal component analysis for semiparametric factor models."""

__version__ = "0.1.0"

from .basis import (
    BasisMatrix,
    BasisSpec,
    build_basis,
    default_J,
    eval_curves,
)
from .estimator import (
    FitResult,
    PanelData,
    align_columns,
    fit_projected_pca,
    fit_regular_pca,
    identification_transform,
)
from .inference import SelectionResult, TestResult, select_k, test_g_zero, test_gamma_zero
from .montecarlo import MonteCarloResult, Scenario, run_monte_carlo
from .projection import Projector, make_projector
from .simulate import (
    SimulatedPanel,
    default_loading_curves,
    gen_calibrated,
    gen_design2,
    make_sparse_error_cov,
    simulate_var,
)

__all__ = [
    "BasisMatrix",
    "BasisSpec",
    "FitResult",
    "MonteCarloResult",
    "PanelData",
    "Projector",
    "Scenario",
    "SelectionResult",
    "SimulatedPanel",
    "TestResult",
    "align_columns",
    "build_basis",
    "default_J",
    "default_loading_curves",
    "eval_curves",
    "fit_projected_pca",
    "fit_regular_pca",
    "gen_calibrated",
    "gen_design2",
    "identification_transform",
    "make_projector",
    "make_sparse_error_cov",
    "run_monte_carlo",
    "select_k",
    "simulate_var",
    "test_g_zero",
    "test_gamma_zero",
]

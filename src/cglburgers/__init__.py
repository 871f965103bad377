"""Simulation and spectral-stability toolkit for coupled CGL-Burgers dynamics."""

from .model import (
    NoRealSolution,
    PlaneWave,
    SystemParams,
    eval_coeff,
    solve_plane_wave,
)
from .spectral import Grid, SpectralField, lp_norm
from .solver import (
    FieldState,
    Forcing,
    SolverConfig,
    StepUnstable,
    TrajectorySummary,
    evolve,
    rhs_nonlinear,
    step,
)
from .littlewood_paley import (
    BesovIndex,
    DyadicPartition,
    OutOfRange,
    besov_norm,
    bony_split,
    check_semigroup_decay,
    check_smoothing_estimate,
    dyadic_block,
    smallness_monitor,
)
from .dispersion import (
    EmptySampleSet,
    LinearizationMatrices,
    build_matrices,
    classify_spectrum,
    closed_form_lambda,
    closed_form_lambda_coupled,
    compare_closed_form,
    spectrum_table,
    stability_conditions,
)
from .perturbation import (
    ChartBreakdown,
    PerturbationState,
    RemainderBundle,
    compose_polar,
    decay_experiment,
    evolve_polar,
    instability_experiment,
    quadratic_order_check,
    remainder,
)

__version__ = "0.1.0"

"""Spin-dependent two-photon Bragg diffraction of electrons at standing light waves.

Builds the relativistic spin-propagation matrix of the two-photon exchange,
quantifies spin-dependent diffraction through a minimized contrast ratio of
Bloch spinor pairs, and drives parameter-space sweeps, minimum-locus
extraction and two-branch curve fits over laser ellipticity and transverse
electron momentum.
"""

from .compton import (
    PolarizationPair,
    compton_tensor,
    contract_polarization,
    elliptic_left,
    elliptic_polarization,
    spin_matrix,
    spin_matrix_batch,
)
from .contrast import (
    BlochPair,
    ContrastBatch,
    ContrastResult,
    DegenerateDenominatorError,
    NewtonStatus,
    bloch_spinors,
    canonicalize,
    contrast_at,
    contrast_derivatives,
    minimize_contrast,
    minimize_contrast_batch,
)
from .dirac import bispinor_u, dirac_adjoint, gamma, pauli, slash
from .kinematics import (
    KinematicSet,
    ScatterConfig,
    build_kinematics,
    energy,
    minkowski_dot,
)
from .sweep import (
    FitConvergenceError,
    FitModel,
    FixedParams,
    GridSpec,
    LocusPoint,
    SweepTile,
    evaluate_fit,
    fit_locus,
    locus_probabilities,
    minimum_locus,
    run_sweep,
)
from .taylor import TaylorTensor, low_momentum_matrix, taylor_error, taylor_tensor

__version__ = "0.1.0"

__all__ = [
    "BlochPair",
    "ContrastBatch",
    "ContrastResult",
    "DegenerateDenominatorError",
    "FitConvergenceError",
    "FitModel",
    "FixedParams",
    "GridSpec",
    "KinematicSet",
    "LocusPoint",
    "NewtonStatus",
    "PolarizationPair",
    "ScatterConfig",
    "SweepTile",
    "TaylorTensor",
    "bispinor_u",
    "bloch_spinors",
    "build_kinematics",
    "canonicalize",
    "compton_tensor",
    "contract_polarization",
    "contrast_at",
    "contrast_derivatives",
    "dirac_adjoint",
    "elliptic_left",
    "elliptic_polarization",
    "energy",
    "evaluate_fit",
    "fit_locus",
    "gamma",
    "locus_probabilities",
    "low_momentum_matrix",
    "minimize_contrast",
    "minimize_contrast_batch",
    "minimum_locus",
    "minkowski_dot",
    "pauli",
    "run_sweep",
    "slash",
    "spin_matrix",
    "spin_matrix_batch",
    "taylor_error",
    "taylor_tensor",
]

"""Spin-dependent two-photon Bragg diffraction of electrons at standing light waves.

Builds the relativistic spin-propagation matrix of the two-photon exchange,
quantifies spin-dependent diffraction through a minimized contrast ratio of
Bloch spinor pairs, and drives parameter-space sweeps, minimum-locus
extraction and two-branch curve fits over laser ellipticity and transverse
electron momentum.  The Dirac-algebra tensor on positive-energy bispinors and
the Newton-era Bloch helpers are the tests' reference, reached through their
modules (``kdspin.dirac``, ``kdspin.kinematics``, ``kdspin.compton``,
``kdspin.contrast``).
"""

from .compton import (
    PolarizationPair,
    elliptic_left,
    elliptic_polarization,
    spin_matrix,
    spin_matrix_batch,
)
from .contrast import (
    ContrastBatch,
    ContrastResult,
    NewtonStatus,
    minimize_contrast,
    minimize_contrast_batch,
)
from .kinematics import ScatterConfig
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
    "ContrastBatch",
    "ContrastResult",
    "FitConvergenceError",
    "FitModel",
    "FixedParams",
    "GridSpec",
    "LocusPoint",
    "NewtonStatus",
    "PolarizationPair",
    "ScatterConfig",
    "SweepTile",
    "TaylorTensor",
    "elliptic_left",
    "elliptic_polarization",
    "evaluate_fit",
    "fit_locus",
    "locus_probabilities",
    "low_momentum_matrix",
    "minimize_contrast",
    "minimize_contrast_batch",
    "minimum_locus",
    "run_sweep",
    "spin_matrix",
    "spin_matrix_batch",
    "taylor_error",
    "taylor_tensor",
]

"""Small-momentum oracle for the two-photon amplitude.

The spatial blocks of the amplitude tensor expanded to second order in
products of (q_l, q2, q3) have the closed forms implemented here, written
in the same (final_spin, initial_spin) orientation as the full tensor.
The remainder is third order, so the elementwise deviation between the
full and the expanded spin matrix must shrink by a factor of eight per
halving of all momenta; the test suite uses this as the arbiter for the
sign and axis conventions of the full calculation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .compton import PolarizationPair, spin_matrix
from .dirac import PAULI_MATRICES
from .kinematics import ScatterConfig

_ID2 = np.eye(2, dtype=complex)

#: above this largest momentum the second-order expansion is flagged stale
DOMAIN_LIMIT = 0.1


class TaylorTensor(NamedTuple):
    """Second-order spatial blocks of the amplitude tensor.

    ``m22`` couples emission axis 2 to absorption axis 2, ``m23`` emission
    axis 2 to absorption axis 3, and so on.  ``outside_domain`` is set when
    any momentum exceeds the soft validity limit of the expansion.
    """

    m22: np.ndarray
    m23: np.ndarray
    m32: np.ndarray
    m33: np.ndarray
    outside_domain: bool


def taylor_tensor(cfg: ScatterConfig) -> TaylorTensor:
    """Evaluate the four expanded blocks at one configuration."""
    ql, q2, q3 = cfg.q_l, cfg.q2, cfg.q3
    s1, s2, s3 = PAULI_MATRICES
    m22 = (1.0 - 2.0 * q2 * q2 + 0.5 * ql * ql) * _ID2 - 0.5j * q3 * ql * s2 - 1.5j * q2 * ql * s3
    m23 = -2.0 * q2 * q3 * _ID2 - 1j * ql * s1 + 1j * q2 * ql * s2 - 1j * q3 * ql * s3
    m32 = -2.0 * q2 * q3 * _ID2 + 1j * ql * s1 + 1j * q2 * ql * s2 - 1j * q3 * ql * s3
    m33 = (1.0 - 2.0 * q3 * q3 + 0.5 * ql * ql) * _ID2 + 1.5j * q3 * ql * s2 + 0.5j * q2 * ql * s3
    outside = max(abs(ql), abs(q2), abs(q3)) > DOMAIN_LIMIT
    return TaylorTensor(m22=m22, m23=m23, m32=m32, m33=m33, outside_domain=outside)


def low_momentum_matrix(q_l: float) -> np.ndarray:
    """Leading-order spin matrix -i q_l (1 + sigma_1) = -i q_l [[1, 1], [1, 1]].

    Valid for vanishing transverse momenta with the left beam squeezed to
    ellipticity sin(theta) = q_l against a z-polarized right beam.
    """
    if q_l <= 0.0:
        raise ValueError(f"q_l must be positive, got {q_l!r}")
    return -1j * q_l * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)


def _contract_blocks(blocks: TaylorTensor, pol: PolarizationPair) -> np.ndarray:
    """Polarization contraction over the expanded spatial blocks (axes 2, 3)."""
    ly, lz = np.conj(pol.left[1:])
    ry, rz = pol.right[1:]
    return ly * ry * blocks.m22 + ly * rz * blocks.m23 + lz * ry * blocks.m32 + lz * rz * blocks.m33


def taylor_error(cfg: ScatterConfig, pol: PolarizationPair) -> float:
    """Max elementwise gap between the full and the expanded spin matrix; ValueError where it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        gap = float(np.max(np.abs(spin_matrix(cfg, pol) - _contract_blocks(taylor_tensor(cfg), pol))))
    if not np.isfinite(gap):
        raise ValueError(f"spin matrix or its expansion is not finite at q_l={cfg.q_l!r}, q2={cfg.q2!r}, "
                         f"q3={cfg.q3!r} with the given beams")
    return gap

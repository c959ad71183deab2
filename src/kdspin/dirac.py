"""Dirac-representation gamma matrices, Pauli matrices and free bispinors.

All matrices are small dense complex numpy arrays.  The gamma matrices use
the standard Dirac representation

    gamma^0 = diag(1, 1, -1, -1),   gamma^i = [[0, sigma_i], [-sigma_i, 0]],

which satisfies the Clifford algebra {gamma^mu, gamma^nu} = 2 g^{mu nu}
exactly (integer entries).  Bispinors are the positive-energy spinors u,
normalised so that ubar u = 1 and u^dag u = E (units of m = 1).
"""

from __future__ import annotations

import numpy as np

from .kinematics import METRIC_DIAG, minkowski_dot

_ZERO2 = np.zeros((2, 2), dtype=complex)
_ID2 = np.eye(2, dtype=complex)

#: sigma_1, sigma_2, sigma_3 stacked along the first axis
PAULI_MATRICES = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

#: gamma^0 .. gamma^3 stacked along the first axis
GAMMA_MATRICES = np.array(
    [np.block([[_ID2, _ZERO2], [_ZERO2, -_ID2]])]
    + [np.block([[_ZERO2, PAULI_MATRICES[i]], [-PAULI_MATRICES[i], _ZERO2]]) for i in range(3)]
)

IDENTITY_4 = np.eye(4, dtype=complex)

#: tolerance on |p.p - 1| for the mass-shell test of bispinor momenta
ON_SHELL_TOLERANCE = 1e-10


def slash(p: np.ndarray) -> np.ndarray:
    """Feynman slash gamma^mu p_mu = gamma^0 p^0 - gamma.p."""
    return np.einsum("m,mab->ab", METRIC_DIAG * np.asarray(p), GAMMA_MATRICES)


def bispinor_u(p: np.ndarray, s: int) -> np.ndarray:
    """Free positive-energy bispinor u^s_p.

    With chi^1 = (1, 0), chi^2 = (0, 1) and prefactor sqrt((E + 1)/2), it
    stacks (chi, sigma.p/(E+1) chi).  p must lie on the unit mass shell with
    positive energy.
    """
    if s not in (1, 2):
        raise ValueError(f"spin index must be 1 or 2, got {s!r}")
    p = np.asarray(p, dtype=float)
    if abs(minkowski_dot(p, p) - 1.0) > ON_SHELL_TOLERANCE:
        raise ValueError("momentum is not on the unit mass shell")
    e = p[0]
    if e <= 0.0:
        raise ValueError("bispinor requires positive energy")
    chi = np.zeros(2, dtype=complex)
    chi[s - 1] = 1.0
    small = (np.einsum("i,iab->ab", p[1:], PAULI_MATRICES) @ chi) / (e + 1.0)
    return np.sqrt((e + 1.0) / 2.0) * np.concatenate([chi, small])


def dirac_adjoint(u: np.ndarray) -> np.ndarray:
    """Dirac adjoint ubar = u^dag gamma^0, returned as a length-4 row."""
    return np.conj(np.asarray(u)) @ GAMMA_MATRICES[0]

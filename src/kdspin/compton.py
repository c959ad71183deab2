"""Two-photon scattering amplitude and the 2x2 spin-propagation matrix.

The second-order amplitude tensor carries two spin indices and two
polarization indices.  Contracting its spatial part with the conjugated
amplitude of the emission beam and the plain amplitude of the absorption
beam yields the complex 2x2 matrix that maps initial to final spin
coefficients of the diffracted electron (rows index the final spin).

``spin_matrix_batch`` computes that matrix for many configurations at once
without the tensor: it contracts the polarizations first and reduces the
spinor sandwich to 2x2 blocks, using only elementwise numpy operations, so
each configuration's result does not depend on the batch it is part of.
``compton_tensor`` and ``contract_polarization`` stay as its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dirac import GAMMA_MATRICES, IDENTITY_4, PAULI_MATRICES, bispinor_u, dirac_adjoint, slash
from .kinematics import ScatterConfig, build_kinematics, minkowski_dot

_SIGMA_1 = PAULI_MATRICES[0]


@dataclass(frozen=True)
class PolarizationPair:
    """Complex amplitude vectors of the two counterpropagating beams.

    ``left`` is the amplitude of the beam running toward -x (it takes the
    emitted photon and enters contractions conjugated); ``right`` the beam
    toward +x (absorbed photon).  Plane-wave transversality forces the
    x-components to vanish exactly.
    """

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self) -> None:
        for name in ("left", "right"):
            vec = np.asarray(getattr(self, name), dtype=complex)
            if vec.shape != (3,):
                raise ValueError(f"{name} amplitude must be a 3-vector")
            if not np.all(np.isfinite(vec.view(float))):
                raise ValueError(f"{name} amplitude must be finite")
            if vec[0] != 0:
                raise ValueError(f"{name} amplitude must have zero x-component")
            object.__setattr__(self, name, vec)
        if np.all(self.left == 0) and np.all(self.right == 0):
            raise ValueError("at least one beam amplitude must be nonzero")


def elliptic_polarization(theta: float) -> PolarizationPair:
    """Elliptically polarized left beam (0, cos theta, i sin theta) against
    a linearly polarized right beam (0, 0, 1)."""
    return PolarizationPair(
        left=np.array([0.0, np.cos(theta), 1j * np.sin(theta)]),
        right=np.array([0.0, 0.0, 1.0]),
    )


def compton_tensor(cfg: ScatterConfig) -> np.ndarray:
    """Spin- and polarization-indexed two-photon amplitude tensor.

    Returns a complex array of shape (2, 2, 4, 4) indexed
    ``[final_spin, initial_spin, mu, nu]``: the adjoint bispinor at the
    outgoing momentum is sandwiched against the incoming bispinor around

        gamma^mu (pslash_i + kslash + 1) / (2 p_i.k) gamma^nu
        - gamma^nu (pslash_i - k'slash + 1) / (2 p_i.k') gamma^mu,

    i.e. absorption before emission minus emission before absorption.  The
    mu (nu) index is the one contracted with the emission (absorption)
    amplitude.  Both denominators are strictly positive in this geometry.
    """
    kin = build_kinematics(cfg)
    u_in = np.array([bispinor_u(kin.p_i, 1), bispinor_u(kin.p_i, 2)])
    ubar_out = np.array(
        [dirac_adjoint(bispinor_u(kin.p_f, 1)), dirac_adjoint(bispinor_u(kin.p_f, 2))]
    )
    absorb_first = (slash(kin.p_i) + slash(kin.k) + IDENTITY_4) / (
        2.0 * minkowski_dot(kin.p_i, kin.k)
    )
    emit_first = (slash(kin.p_i) - slash(kin.k_prime) + IDENTITY_4) / (
        2.0 * minkowski_dot(kin.p_i, kin.k_prime)
    )
    block = np.einsum("mab,bc,ncd->mnad", GAMMA_MATRICES, absorb_first, GAMMA_MATRICES)
    block -= np.einsum("nab,bc,mcd->mnad", GAMMA_MATRICES, emit_first, GAMMA_MATRICES)
    return np.einsum("fa,mnab,ib->fimn", ubar_out, block, u_in)


def contract_polarization(tensor: np.ndarray, pol: PolarizationPair) -> np.ndarray:
    """Contract the spatial part of the amplitude tensor with the beams.

    Only the spatial indices enter (the amplitudes have no time component,
    so mu = 0 and nu = 0 entries of the tensor are ignored by construction);
    the two covariant metric signs cancel.  Rows of the result index the
    final spin, columns the initial spin.
    """
    return np.einsum(
        "i,j,fsij->fs", np.conj(pol.left), pol.right, tensor[:, :, 1:, 1:]
    )


def elliptic_left(theta) -> np.ndarray:
    """Left-beam amplitudes (0, cos theta, i sin theta) for an array of angles, shape (N, 3)."""
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.zeros_like(theta), np.cos(theta), 1j * np.sin(theta)], axis=-1)


def _pauli_dot(v: np.ndarray) -> np.ndarray:
    """sigma . v for (..., 3) vectors, shape (..., 2, 2).

    Every product with a Pauli entry (0, +-1, +-i) is exact and each entry
    sums at most two nonzero terms, so the result does not depend on the
    order einsum picks.
    """
    return np.einsum("...i,iab->...ab", v, PAULI_MATRICES)


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product of stacked 2x2 matrices, written out so every batch size rounds alike."""
    return x[..., :, :1] * y[..., :1, :] + x[..., :, 1:] * y[..., 1:, :]


def spin_matrix_batch(q_l: float, q2, q3, left, right) -> np.ndarray:
    """Spin-propagation matrices of N configurations at once, shape (N, 2, 2).

    ``q2`` and ``q3`` are (N,) arrays of transverse momenta at the common
    photon momentum ``q_l``; ``left`` and ``right`` are (N, 3) or (3,)
    complex beam amplitudes.  Entries that cannot be evaluated (non-finite
    momenta or amplitudes) come out NaN.

    With eps_L = conj(left) . gamma and eps_R = right . gamma the amplitude is
    ubar(p_f) [eps_L A eps_R - eps_R B eps_L] u(p_i), A and B the two
    propagators of ``compton_tensor``.  In 2x2 blocks, with a = sigma . conj(left),
    b = sigma . right and S = sigma . (0, q2, q3), the middle operator is

        [[(1 - E + q_l) d_B ba - (1 - E - q_l) d_A ab,   d_A aSb - d_B bSa],
         [-(d_A aSb - d_B bSa),   (E - q_l + 1) d_B ba - (E + q_l + 1) d_A ab]]

    with d_A = 1/(2 p_i.k) = 1/(2 q_l (E + q_l)) and d_B = 1/(2 q_l (E - q_l)),
    and the bispinors turn [[m11, m12], [-m12, m22]] into

        (E + 1)/2 m11 + (m12 S_i + S_f m12)/2 - S_f m22 S_i / (2 (E + 1)),

    where S_i, S_f = S -+ q_l sigma_1 are sigma . p for the incoming and
    outgoing momenta.
    """
    if not (math.isfinite(q_l) and q_l > 0.0):
        raise ValueError(f"q_l must be positive, got {q_l!r}")
    q2 = np.asarray(q2, dtype=float)
    q3 = np.asarray(q3, dtype=float)
    a = _pauli_dot(np.conj(np.asarray(left, dtype=complex)))
    b = _pauli_dot(np.asarray(right, dtype=complex))
    s = _pauli_dot(np.stack(np.broadcast_arrays(0.0, q2, q3), axis=-1))
    s_i = s - q_l * _SIGMA_1
    s_f = s + q_l * _SIGMA_1

    e = np.sqrt(1.0 + q_l * q_l + q2 * q2 + q3 * q3)[..., None, None]
    d_a = 1.0 / (2.0 * q_l * (e + q_l))
    d_b = 1.0 / (2.0 * q_l * (e - q_l))
    ab, ba = _mul(a, b), _mul(b, a)
    m11 = ((1.0 - e + q_l) * d_b) * ba - ((1.0 - e - q_l) * d_a) * ab
    m22 = ((e - q_l + 1.0) * d_b) * ba - ((e + q_l + 1.0) * d_a) * ab
    m12 = d_a * _mul(_mul(a, s), b) - d_b * _mul(_mul(b, s), a)
    return (
        (0.5 * (e + 1.0)) * m11
        + 0.5 * (_mul(m12, s_i) + _mul(s_f, m12))
        - _mul(_mul(s_f, m22), s_i) / (2.0 * (e + 1.0))
    )


def spin_matrix(cfg: ScatterConfig, pol: PolarizationPair) -> np.ndarray:
    """Complex 2x2 spin-propagation matrix for one configuration and beam pair.

    This is ``spin_matrix_batch`` with N = 1.
    """
    return spin_matrix_batch(
        cfg.q_l, np.array([cfg.q2]), np.array([cfg.q3]), pol.left[None], pol.right[None]
    )[0]

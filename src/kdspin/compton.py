"""Two-photon scattering amplitude and the 2x2 spin-propagation matrix.

The second-order amplitude tensor carries two spin indices and two
polarization indices.  Contracting its spatial part with the conjugated
amplitude of the emission beam and the plain amplitude of the absorption
beam yields the complex 2x2 matrix that maps initial to final spin
coefficients of the diffracted electron (rows index the final spin).

``spin_matrix_batch`` computes that matrix for one configuration or many without
the tensor, in a closed form of ten real coefficients and four beam bilinears with
no cancelling diagrams, in elementwise real arithmetic only: one matrix, computed
on Python floats, equals its row of any batch bit for bit.
``compton_tensor`` and ``contract_polarization`` stay as its reference.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dirac import GAMMA_MATRICES, IDENTITY_4, bispinor_u, dirac_adjoint, slash
from .kinematics import ScatterConfig, build_kinematics, minkowski_dot


@dataclass(frozen=True)
class PolarizationPair:
    """Complex amplitude vectors of the two counterpropagating beams.

    ``left`` is the amplitude of the beam running toward -x (it takes the
    emitted photon and enters contractions conjugated); ``right`` the beam
    toward +x (absorbed photon).  Plane-wave transversality forces the
    x-components to vanish exactly.  Each beam may be any array-like 3-vector,
    a strided or reversed view included; the pair stores a contiguous complex copy.
    """

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self) -> None:
        lit = False
        for name in ("left", "right"):
            vec = np.array(getattr(self, name), dtype=complex)
            if vec.shape != (3,):
                raise ValueError(f"{name} amplitude must be a 3-vector")
            values = vec.tolist()  # checks on Python complexes skip numpy's reductions
            if not all(map(cmath.isfinite, values)):
                raise ValueError(f"{name} amplitude must be finite")
            if values[0]:
                raise ValueError(f"{name} amplitude must have zero x-component")
            lit = lit or any(values)
            object.__setattr__(self, name, vec)
        if not lit:
            raise ValueError("at least one beam amplitude must be nonzero")


def elliptic_polarization(theta: float) -> PolarizationPair:
    """Elliptically polarized left beam (0, cos theta, i sin theta) against
    a linearly polarized right beam (0, 0, 1).  Raises ValueError for a non-finite theta."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    return PolarizationPair(
        left=[0.0, np.cos(theta), 1j * np.sin(theta)],
        right=[0.0, 0.0, 1.0],
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
    """Left-beam amplitudes (0, cos theta, i sin theta) for an array of angles, shape ``theta.shape + (3,)``."""
    theta = np.asarray(theta, dtype=float)
    left = np.zeros(theta.shape + (3,), complex)
    left[..., 1] = np.cos(theta)
    left[..., 2] = 1j * np.sin(theta)
    return left


def spin_matrix_batch(q_l: float, q2, q3, left, right) -> np.ndarray:
    """Spin-propagation matrices of N configurations at once, shape (N, 2, 2).

    ``q2`` and ``q3`` are (N,) arrays of transverse momenta at the photon momentum ``q_l``;
    ``left`` and ``right`` are (N, 3) or (3,) complex beam amplitudes (x components unread,
    as transversality makes them 0).  Scalar momenta with (3,) beams give one (2, 2) matrix
    from Python floats, by the same operations: bit for bit its row of any batch, but for a
    NaN's sign (adding two NaNs, numpy's array loops keep the first's sign, floats the
    second's).  A batch of one, where each input is scalar or holds one point, runs on floats
    too and comes out (1, 2, 2); telling it apart reads shapes only.  Entries are NaN or
    infinite, without a floating-point warning, for non-finite inputs, and all NaN where a
    momentum's square overflows (above ~1.3e154).  Raises ValueError unless q_l > 0 is finite,
    and where momenta and beams broadcast to more than one dimension.

    With a = sigma . conj(left), b = sigma . right, S = sigma . (0, q2, q3), S_i, S_f =
    S -+ q_l sigma_1, d_A = 1/(2 q_l (E + q_l)) and d_B = 1/(2 q_l (E - q_l)), the spinor
    sandwich of ``compton_tensor`` reduces to the block formula

        M = (E + 1)/2 m11 + (m12 S_i + S_f m12)/2 - S_f m22 S_i / (2 (E + 1)),
        m11 = (1 - E + q_l) d_B ba - (1 - E - q_l) d_A ab,   m12 = d_A aSb - d_B bSa,
        m22 = (E - q_l + 1) d_B ba - (E + q_l + 1) d_A ab,

    whose O(q^2/q_l) terms cancel.  Expanding its Pauli products (checked with sympy)
    leaves ten real coefficients in which nothing cancels: with a = conj(left), r = right,
    yy = a_y r_y, zz = a_z r_z, s = a_y r_z + a_z r_y and w = a_y r_z - a_z r_y,

        D = 1 + q2^2 + q3^2 = E^2 - q_l^2,   k = 1/D,   h = k/(E + 1),   g = q_l^2 h,
        X = (((1 - q2)(1 + q2) + q3^2) k + g) yy + (((1 - q3)(1 + q3) + q2^2) k + g) zz - 2 q2 q3 k s,
        Y = q_l q2 h ((E + 2) yy - E zz) + q_l q3 k s,   U = q_l q3 h ((E + 2) zz - E yy) + q_l q2 k s,
        M = [[X - iY, U + V], [V - U, X + iY]],   V = -i q_l k w,

    good to a few eps of max|M| at any q_l.  It runs in real arithmetic, as re/im pairs:
    numpy's array loops may fuse a complex multiply where its scalar path does not."""
    if not (math.isfinite(q_l) and q_l > 0.0):
        raise ValueError(f"q_l must be positive, got {q_l!r}")
    q2, q3 = np.asarray(q2, dtype=float), np.asarray(q3, dtype=float)
    left, right = np.ascontiguousarray(left, dtype=complex), np.ascontiguousarray(right, dtype=complex)
    if {q2.shape, q3.shape, left.shape[:-1], right.shape[:-1]} <= {(), (1,)}:  # one point, on Python floats
        beams = left.view(float).ravel().tolist()[2:] + right.view(float).ravel().tolist()[2:]
        parts = _kernel(float(q_l), q2.item(), q3.item(), *beams, math.sqrt)
        batched = q2.ndim + q3.ndim + left.ndim + right.ndim > 2  # scalar momenta and (3,) beams give 2
        return np.array(parts).view(complex).reshape((1, 2, 2) if batched else (2, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        # (re, im) of the y and z amplitudes, one row each
        _, _, ly, ly_i, lz, lz_i = left.view(float).T
        _, _, ry, ry_i, rz, rz_i = right.view(float).T
        parts = np.array(_kernel(q_l, q2, q3, ly, ly_i, lz, lz_i, ry, ry_i, rz, rz_i, np.sqrt))
    if parts.ndim > 2:  # parts.T reverses every axis, so only an (N,) batch reshapes right
        raise ValueError(f"momenta and beams must broadcast to shape (N,), got {parts.shape[1:]}")
    return np.ascontiguousarray(parts.T).view(complex).reshape(parts.shape[1:] + (2, 2))


def _kernel(q_l, q2, q3, ly, ly_i, lz, lz_i, ry, ry_i, rz, rz_i, sqrt):
    """(re, im) of M00, M01, M10 and M11 from the momenta and the beams' y and z (re, im), elementwise:
    ``spin_matrix_batch``'s arithmetic, on arrays with ``np.sqrt`` or on floats with ``math.sqrt``."""
    yy, yy_i = ly * ry + ly_i * ry_i, ly * ry_i - ly_i * ry
    zz, zz_i = lz * rz + lz_i * rz_i, lz * rz_i - lz_i * rz
    yz, yz_i = ly * rz + ly_i * rz_i, ly * rz_i - ly_i * rz
    zy, zy_i = lz * ry + lz_i * ry_i, lz * ry_i - lz_i * ry
    s, s_i, w, w_i = yz + zy, yz_i + zy_i, yz - zy, yz_i - zy_i
    d = 1.0 + q2 * q2 + q3 * q3
    e, k = sqrt(d + q_l * q_l), 1.0 / d
    h = k / (e + 1.0)
    c_yy = ((1.0 - q2) * (1.0 + q2) + q3 * q3) * k + q_l * q_l * h
    c_zz = ((1.0 - q3) * (1.0 + q3) + q2 * q2) * k + q_l * q_l * h
    c_s, e_2 = 2.0 * q2 * q3 * k, e + 2.0
    y_h, y_k, u_h, u_k, v_k = q_l * q2 * h, q_l * q3 * k, q_l * q3 * h, q_l * q2 * k, q_l * k
    x, x_i = c_yy * yy + c_zz * zz - c_s * s, c_yy * yy_i + c_zz * zz_i - c_s * s_i
    y, y_i = y_h * (e_2 * yy - e * zz) + y_k * s, y_h * (e_2 * yy_i - e * zz_i) + y_k * s_i
    u, u_i = u_h * (e_2 * zz - e * yy) + u_k * s, u_h * (e_2 * zz_i - e * yy_i) + u_k * s_i
    v, v_i = v_k * w_i, -(v_k * w)
    return x + y_i, x_i - y, u + v, u_i + v_i, v - u, v_i - u_i, x - y_i, x_i + y


def spin_matrix(cfg: ScatterConfig, pol: PolarizationPair) -> np.ndarray:
    """Complex 2x2 spin-propagation matrix for one configuration and beam pair:
    ``spin_matrix_batch`` on scalars, so bit for bit its row of any batch."""
    return spin_matrix_batch(cfg.q_l, cfg.q2, cfg.q3, pol.left, pol.right)

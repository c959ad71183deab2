"""Two-photon scattering amplitude and the 2x2 spin-propagation matrix.

The second-order amplitude tensor carries two spin indices and two
polarization indices.  Contracting its spatial part with the conjugated
amplitude of the emission beam and the plain amplitude of the absorption
beam yields the complex 2x2 matrix that maps initial to final spin
coefficients of the diffracted electron (rows index the final spin).

``spin_matrix_batch`` computes that matrix for many configurations without the
tensor, in a closed form of ten real coefficients and four beam bilinears with no
cancelling diagrams, in elementwise real arithmetic only, on arrays at every size.
``spin_matrix`` runs the same arithmetic on one configuration's Python floats,
bit for bit its row of any batch; sweeps and the locus pass ``_kernel``'s eight real
parts, the one internal form of a matrix, straight to the minimizer.
``_locus_inv_theta`` reads the minimum locus of the elliptic beam off the same coefficients.
``compton_tensor`` and ``contract_polarization`` stay as its reference.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .dirac import GAMMA_MATRICES, IDENTITY_4, bispinor_u, dirac_adjoint, slash
from .kinematics import ScatterConfig, build_kinematics, minkowski_dot

#: unit amplitude along z: the absorption beam against every elliptic emission beam
_UNIT_Z = np.array([0.0, 0.0, 1.0], dtype=complex)
#: (re, im) of its y and z amplitudes, as ``_kernel`` takes them
_UNIT_Z_PARTS = _UNIT_Z.view(float).tolist()[2:]


class PolarizationPair:
    """Complex amplitude vectors of the two counterpropagating beams.

    ``left`` is the amplitude of the beam running toward -x (it takes the
    emitted photon and enters contractions conjugated); ``right`` the beam
    toward +x (absorbed photon).  Plane-wave transversality forces the
    x-components to vanish exactly.  Each beam may be any array-like 3-vector,
    a strided or reversed view included; the pair stores a contiguous complex copy,
    read-only (an in-place write raises ValueError), beside ``_parts``: the eight (re, im)
    floats of the y and z amplitudes, left then right, that its checks unpack and ``_kernel`` takes.
    A pair is immutable and compares by identity.
    """

    __slots__ = ("_left", "_right", "_parts")
    left = property(lambda self: self._left)
    right = property(lambda self: self._right)

    def __init__(self, left, right) -> None:
        lit, beams, parts = False, [], ()
        for name, beam in (("left", left), ("right", right)):
            vec = np.array(beam, dtype=complex)
            if vec.shape != (3,):
                raise ValueError(f"{name} amplitude must be a 3-vector")
            values = vec.tolist()  # checks on Python complexes skip numpy's reductions
            if not all(map(cmath.isfinite, values)):
                raise ValueError(f"{name} amplitude must be finite")
            x, y, z = values
            if x:
                raise ValueError(f"{name} amplitude must have zero x-component")
            lit = lit or any(values)
            vec.setflags(write=False)
            beams.append(vec)
            parts += (y.real, y.imag, z.real, z.imag)
        if not lit:
            raise ValueError("at least one beam amplitude must be nonzero")
        self._left, self._right, self._parts = *beams, parts

    def __repr__(self) -> str:
        return f"PolarizationPair(left={self.left!r}, right={self.right!r})"


def elliptic_polarization(theta: float) -> PolarizationPair:
    """Elliptically polarized left beam (0, cos theta, i sin theta) against
    a linearly polarized right beam (0, 0, 1).  Raises ValueError for a non-finite theta."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    y, y_i, z, z_i = _elliptic_parts(float(theta))
    return PolarizationPair(left=[0.0, complex(y, y_i), complex(z, z_i)], right=_UNIT_Z)


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
    left = np.zeros(theta.shape + (6,))  # (re, im) of the x, y and z amplitudes
    left[..., 2], left[..., 3], left[..., 4], left[..., 5] = _elliptic_parts(theta)
    return left.view(complex)


def _elliptic_parts(theta):
    """(re, im) of the y and z amplitudes of the left beam (0, cos theta, i sin theta), elementwise on an array
    or a Python float: numpy's cos and sin, and 1j sin theta as numpy rounds it, (0 sin - 1 * 0, 0 * 0 + 1 sin).
    The beam's one write-out: ``elliptic_polarization``, ``elliptic_left``, sweeps and the locus read it."""
    cos, sin = np.cos(theta), np.sin(theta)
    if isinstance(theta, float):  # numpy's scalars back to Python floats, whose arithmetic costs less
        cos, sin = float(cos), float(sin)
    return cos, 0.0, 0.0 * sin - 0.0, 0.0 + sin


def spin_matrix_batch(q_l: float, q2, q3, left, right) -> np.ndarray:
    """Spin-propagation matrices of N configurations at once, shape (N, 2, 2).

    ``q2`` and ``q3`` are (N,) arrays of transverse momenta at the photon momentum ``q_l``;
    ``left`` and ``right`` are (N, 3) or (3,) complex beam amplitudes (x components unread,
    as transversality makes them 0).  Every size runs on arrays: scalar momenta with (3,) beams
    give one (2, 2) matrix, and a batch of one (1, 2, 2), bit for bit its row of any batch but
    for a NaN's sign (adding two NaNs, numpy's array loops keep the first's sign, numpy scalars
    the second's); ``spin_matrix`` runs one point on Python floats.  Entries are NaN or
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
    e, k, h, c_zz = _momentum_terms(q_l, q2, q3, sqrt)
    c_yy = ((1.0 - q2) * (1.0 + q2) + q3 * q3) * k + q_l * q_l * h
    c_s, e_2 = 2.0 * q2 * q3 * k, e + 2.0
    y_h, y_k, u_h, u_k, v_k = q_l * q2 * h, q_l * q3 * k, q_l * q3 * h, q_l * q2 * k, q_l * k
    x, x_i = c_yy * yy + c_zz * zz - c_s * s, c_yy * yy_i + c_zz * zz_i - c_s * s_i
    y, y_i = y_h * (e_2 * yy - e * zz) + y_k * s, y_h * (e_2 * yy_i - e * zz_i) + y_k * s_i
    u, u_i = u_h * (e_2 * zz - e * yy) + u_k * s, u_h * (e_2 * zz_i - e * yy_i) + u_k * s_i
    v, v_i = v_k * w_i, -(v_k * w)
    return x + y_i, x_i - y, u + v, u_i + v_i, v - u, v_i - u_i, x - y_i, x_i + y


def _momentum_terms(q_l, q2, q3, sqrt):
    """E = sqrt(D + q_l^2), k = 1/D, h = k/(E + 1) and c_zz = ((1 - q3)(1 + q3) + q2^2) k + q_l^2 h at D =
    1 + q2^2 + q3^2, elementwise: the terms ``_kernel`` and ``_locus_inv_theta`` share, with either sqrt."""
    d = 1.0 + q2 * q2 + q3 * q3
    e, k = sqrt(d + q_l * q_l), 1.0 / d
    h = k / (e + 1.0)
    return e, k, h, ((1.0 - q3) * (1.0 + q3) + q2 * q2) * k + q_l * q_l * h


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _locus_inv_theta(q_l, q2, q3, sqrt):
    """1/theta of the contrast minimum over the elliptic beam (0, cos theta, i sin theta) against
    (0, 0, 1) at each q3, in elementary functions of (q_l, q2, q3); NaN where a momentum's square
    overflows, as in the kernel.  Elementwise, as ``_kernel`` is: on an array of q3 with ``np.sqrt``,
    or on Python floats with ``math.sqrt`` (numpy's hypot and arctan2 on them give a numpy scalar).

    The kernel is linear in the conjugated emission amplitude, so M(theta) = cos(theta)
    (M_y - i u M_z), u = tan(theta), with M_y, M_z the spin matrices of the unit y and z beams.
    In the notation of ``spin_matrix_batch``, M = [[X - iY, U + V], [V - U, X + iY]], their
    coefficients P = (X, Y, U) and V are

        P_y = (-2 q2 q3 k, q_l q3 k, q_l q2 k),   V_y = -i q_l k,
        P_z = (c_zz, -q_l q2 h E, q_l q3 h (E + 2)),   V_z = 0,

    with E, k, h and c_zz of ``_momentum_terms``.  So det M_y = |P_y|^2 + (q_l k)^2, det M_z = |P_z|^2,
    and with T = tr(adj M_y . M_z), 4 det M_y det M_z - T^2 = 4 (|P_y x P_z|^2 + (q_l k)^2 |P_z|^2):
    r = det M_y / det M_z and s = T / det M_z are real, r > 0 and s^2 < 4 r at every q_l > 0, and
    tr M^dag M = cos^2(theta) (r + u^2) ||M_z||_F^2.  The contrast c = lambda_min / lambda_max
    obeys c / (1 + c)^2 = |det M|^2 / (tr M^dag M)^2, with det M = cos^2(theta) (det M_y - i T u
    - det M_z u^2), so it rises with F = ((w - r)^2 + s^2 w) / (w + r)^2 in w = u^2, and
    dF/dw ~ (w - r)(4 r - s^2) / (w + r)^3: one minimum, at tan^2(theta) = r (the tests pin
    these identities in 50 digits).  Both determinants are sums of squares, so nothing cancels,
    and ``hypot`` keeps every square from underflowing or overflowing:

        tan(theta) = sqrt(k) hypot(2 q2 q3 sqrt(k), q_l) / hypot(c_zz, q_l h hypot(q2 E, q3 (E + 2))),

    taken as theta = atan2 of the two, in (0, pi/2], so 1/theta >= 2/pi.  At q2 = 0 this is a
    zero of the contrast, tan^2(theta) = q_l^2 (1 + q3^2) / (x^2 + v^2) with x = 1 - q3^2 +
    q_l^2 / (E + 1) and v = q_l q3 (E + 2) / (E + 1); at q3 = 0 one with tan^2(theta) =
    q_l^2 / ((1 + q2^2) ((1 + q_l^2 h)^2 + (q_l q2 E h)^2)).
    """
    e, k, h, c_zz = _momentum_terms(q_l, q2, q3, sqrt)
    root_k = sqrt(k)
    tan_num = root_k * np.hypot(2.0 * q2 * q3 * root_k, q_l)
    tan_den = np.hypot(c_zz, q_l * h * np.hypot(q2 * e, q3 * (e + 2.0)))
    return 1.0 / np.arctan2(tan_num, tan_den)


def spin_matrix(cfg: ScatterConfig, pol: PolarizationPair) -> np.ndarray:
    """Complex 2x2 spin-propagation matrix for one configuration and beam pair: ``spin_matrix_batch``'s
    arithmetic on Python floats (ints would round otherwise), so bit for bit its row of any batch."""
    parts = _kernel(float(cfg.q_l), float(cfg.q2), float(cfg.q3), *pol._parts, math.sqrt)
    return np.array(parts).view(complex).reshape(2, 2)

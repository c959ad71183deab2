"""Closed-form references for kdspin outputs, evaluated for many points at once.

The benchmark never trusts the program to check itself: the spin matrix is
rebuilt here from the Dirac-representation formulas with the polarizations
contracted before the spinor sandwich, in one numpy pass over all points.

* Contrast.  The contrast of M is lambda_min / lambda_max of P = M^dag M,
  written |det M|^2 / lambda_max^2 with lambda_max = t/2 + sqrt(t^2/4 - |det M|^2),
  t = tr P.  The optimal pair carries |M psi_A|^2 = lambda_min and
  |M psi_B|^2 = lambda_max.
* Locus.  With the elliptic beam M(theta) = cos(theta) M_y - i sin(theta) M_z,
  and det M = 0 exactly when tan^2(theta) = det M_y / det M_z.
"""

from __future__ import annotations

import math

import numpy as np

_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)
GAMMA = np.array(
    [np.block([[_I2, _Z2], [_Z2, -_I2]])]
    + [np.block([[_Z2, s], [-s, _Z2]]) for s in _PAULI]
)
_METRIC = np.array([1.0, -1.0, -1.0, -1.0])

#: contrast check: |reported - exact| <= CONTRAST_RTOL * exact + CONTRAST_ATOL
CONTRAST_RTOL = 1e-8
CONTRAST_ATOL = 1e-12
#: probability check, relative to the larger eigenvalue lambda_max
PROB_RTOL = 1e-8
#: locus check on 1/theta: the golden-section bracket width of the program
LOCUS_ATOL = 1e-4


def _slash(p: np.ndarray) -> np.ndarray:
    """Feynman slash of (..., 4) four-vectors, shape (..., 4, 4)."""
    return np.einsum("...m,mab->...ab", p * _METRIC, GAMMA)


def _spinors(p: np.ndarray) -> np.ndarray:
    """Positive-energy bispinors u(p, s) for s = 1, 2: shape (n, 2, 4)."""
    e = p[:, 0]
    sigma_p = np.einsum("ni,iab->nab", p[:, 1:], _PAULI)
    upper = np.broadcast_to(_I2, sigma_p.shape)  # column s is chi_s
    lower = sigma_p / (e + 1.0)[:, None, None]
    u = np.concatenate([upper, lower], axis=1)  # (n, 4, 2): columns are spinors
    return np.sqrt((e + 1.0) / 2.0)[:, None, None] * u.transpose(0, 2, 1)


def spin_matrices(
    q_l: float, q2, q3, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Spin-propagation matrices M[n, final, initial] for arrays q2, q3.

    ``left`` and ``right`` are (3,) or (n, 3) complex beam amplitudes; the
    left one enters conjugated.  Shapes broadcast against q2 and q3.
    """
    q2, q3 = np.broadcast_arrays(np.asarray(q2, float).ravel(), np.asarray(q3, float).ravel())
    n = q2.size
    e = np.sqrt(1.0 + q_l * q_l + q2 * q2 + q3 * q3)
    p_i = np.stack([e, np.full(n, -q_l), q2, q3], axis=1)
    p_f = np.stack([e, np.full(n, q_l), q2, q3], axis=1)
    k = np.array([q_l, q_l, 0.0, 0.0])
    k_prime = np.array([q_l, -q_l, 0.0, 0.0])

    left = np.broadcast_to(np.asarray(left, complex), (n, 3))
    right = np.broadcast_to(np.asarray(right, complex), (n, 3))
    eps_l = np.einsum("ni,iab->nab", np.conj(left), GAMMA[1:])
    eps_r = np.einsum("ni,iab->nab", right, GAMMA[1:])

    one = np.eye(4)
    dot_k = (p_i * _METRIC) @ k
    dot_kp = (p_i * _METRIC) @ k_prime
    absorb = (_slash(p_i) + _slash(k) + one) / (2.0 * dot_k)[:, None, None]
    emit = (_slash(p_i) - _slash(k_prime) + one) / (2.0 * dot_kp)[:, None, None]
    middle = eps_l @ absorb @ eps_r - eps_r @ emit @ eps_l

    u_in = _spinors(p_i)
    ubar_out = np.conj(_spinors(p_f)) @ GAMMA[0]
    return np.einsum("nfa,nab,nsb->nfs", ubar_out, middle, u_in)


def elliptic_left(theta) -> np.ndarray:
    """Left-beam amplitudes (0, cos theta, i sin theta), shape (n, 3)."""
    theta = np.asarray(theta, float).ravel()
    return np.stack([np.zeros_like(theta), np.cos(theta), 1j * np.sin(theta)], axis=1)


RIGHT_Z = np.array([0.0, 0.0, 1.0], dtype=complex)


def eigen_contrast(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(contrast, lambda_min, lambda_max) of P = M^dag M for (n, 2, 2) matrices."""
    scale = np.max(np.abs(m), axis=(1, 2))
    mn = m / scale[:, None, None]
    det2 = np.abs(mn[:, 0, 0] * mn[:, 1, 1] - mn[:, 0, 1] * mn[:, 1, 0]) ** 2
    half_t = 0.5 * np.sum(np.abs(mn) ** 2, axis=(1, 2))
    lam_max = half_t + np.sqrt(np.maximum(half_t * half_t - det2, 0.0))
    contrast = det2 / lam_max**2
    s2 = scale * scale
    return contrast, det2 / lam_max * s2, lam_max * s2


def contrast_misses(
    reported: np.ndarray, prob_a: np.ndarray, prob_b: np.ndarray, m: np.ndarray
) -> np.ndarray:
    """Boolean mask of points whose (contrast, prob_A, prob_B) miss the closed form.

    NaN outputs always count as misses.
    """
    exact, lam_min, lam_max = eigen_contrast(m)
    with np.errstate(invalid="ignore"):
        ok = np.abs(reported - exact) <= CONTRAST_RTOL * exact + CONTRAST_ATOL
        ok &= np.abs(prob_a - lam_min) <= PROB_RTOL * lam_max
        ok &= np.abs(prob_b - lam_max) <= PROB_RTOL * lam_max
    return ~ok


def locus_roots(q_l: float, q2: float, q3: np.ndarray) -> np.ndarray:
    """Exact 1/theta of the zero-contrast locus at each q3 (NaN where none).

    Solves tan^2(theta) = det M_y / det M_z on theta in (0, pi/2); the
    ratio must be real and positive for a root to exist.
    """
    q3 = np.asarray(q3, float).ravel()
    m_y = spin_matrices(q_l, q2, q3, np.array([0, 1, 0], complex), RIGHT_Z)
    m_z = spin_matrices(q_l, q2, q3, np.array([0, 0, 1], complex), RIGHT_Z)
    det_y = m_y[:, 0, 0] * m_y[:, 1, 1] - m_y[:, 0, 1] * m_y[:, 1, 0]
    det_z = m_z[:, 0, 0] * m_z[:, 1, 1] - m_z[:, 0, 1] * m_z[:, 1, 0]
    ratio = det_y / det_z
    real = np.abs(ratio.imag) <= 1e-9 * np.abs(ratio)
    with np.errstate(invalid="ignore"):
        theta = np.arctan(np.sqrt(ratio.real))
        inv = 1.0 / theta
    return np.where(real & (ratio.real > 0.0), inv, math.nan)

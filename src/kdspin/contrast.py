"""Contrast functional over Bloch spinor pairs and its closed-form minimum.

For a complex 2x2 spin-propagation matrix M the contrast functional is

    C'(alpha, phi) = |M psi_A|^2 / |M psi_B|^2

with the orthogonal Bloch pair

    psi_A = (cos(alpha/2), sin(alpha/2) e^{i phi}),
    psi_B = (sin(alpha/2) e^{-i phi}, -cos(alpha/2)).

Writing P = M^dag M = [[p00, p01], [p01*, p11]], the two quadratic forms
reduce to

    |M psi_A|^2 = t/2 + v cos(alpha) + sin(alpha) (a cos(phi) - b sin(phi))
    |M psi_B|^2 = t - |M psi_A|^2

with t = p00 + p11, v = (p00 - p11)/2, a = Re p01, b = Im p01.  All first
and second partial derivatives of C' follow in closed form from this
reduction; they are validated against central finite differences in the
test suite.  The contrast of M is the minimum of C' over the fundamental
domain alpha in [0, 2pi], phi in [0, pi].  The numerator is t/2 plus
(v, a, -b) dotted into the Bloch vector of (alpha, phi), so C' is smallest
with that vector along -(v, a, -b), where it equals lambda_min/lambda_max of
P: the exact minimum that a Newton iteration on C' reaches when it converges.
``minimize_contrast_batch`` takes the same minimum for a stack of matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

#: below this the denominator |M psi_B|^2 counts as degenerate
DEGENERATE_FLOOR = 1e-300

TWO_PI = 2.0 * math.pi


class DegenerateDenominatorError(ValueError):
    """Raised when |M psi_B|^2 underflows to (numerical) zero."""


class NewtonStatus(str, Enum):
    CONVERGED_GRADIENT = "converged_gradient"


@dataclass(frozen=True)
class BlochPair:
    """Spinor-pair angles: polar angle alpha and azimuth phi, in radians."""

    alpha: float
    phi: float


@dataclass(frozen=True)
class ContrastResult:
    """Minimized contrast with the optimal angles and iteration diagnostics."""

    value: float
    alpha: float
    phi: float
    iterations: int
    status: NewtonStatus
    prob_a: float
    prob_b: float


@dataclass(frozen=True)
class ContrastBatch:
    """Minimized contrast of N matrices: (N,) arrays, NaN where a matrix has none."""

    value: np.ndarray
    alpha: np.ndarray
    phi: np.ndarray
    prob_a: np.ndarray
    prob_b: np.ndarray


def bloch_spinors(pair: BlochPair) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal spinor pair whose spin expectation points along +-n(alpha, phi)."""
    half = 0.5 * pair.alpha
    c, s = math.cos(half), math.sin(half)
    phase = complex(math.cos(pair.phi), math.sin(pair.phi))
    psi_a = np.array([c, s * phase])
    psi_b = np.array([s * np.conj(phase), -c])
    return psi_a, psi_b


def contrast_at(m: np.ndarray, pair: BlochPair) -> float:
    """Raw contrast functional |M psi_A|^2 / |M psi_B|^2 at one angle pair."""
    m = np.asarray(m, dtype=complex)
    psi_a, psi_b = bloch_spinors(pair)
    num = float(np.sum(np.abs(m @ psi_a) ** 2))
    den = float(np.sum(np.abs(m @ psi_b) ** 2))
    if den < DEGENERATE_FLOOR:
        raise DegenerateDenominatorError(
            "both Bloch directions are annihilated or psi_B lies in the kernel"
        )
    return num / den


def canonicalize(pair: BlochPair) -> BlochPair:
    """Map angles into the fundamental domain alpha in [0, 2pi], phi in [0, pi].

    Uses the 2pi-periodicity of alpha up to an overall sign (irrelevant in
    the squared norms) and the identification (phi -> phi + pi,
    alpha -> 2pi - alpha), which reproduces the spinor pair up to a global
    sign.
    """
    alpha = pair.alpha % TWO_PI
    phi = pair.phi % TWO_PI
    if phi >= math.pi:
        phi -= math.pi
        alpha = (TWO_PI - alpha) % TWO_PI
    return BlochPair(alpha=alpha, phi=phi)


def _quadratic_form(m: np.ndarray) -> tuple[float, float, float, float]:
    """Coefficients (t, v, a, b) of |M psi_A|^2 over the Bloch angles."""
    p = m.conj().T @ m
    t = p[0, 0].real + p[1, 1].real
    v = 0.5 * (p[0, 0].real - p[1, 1].real)
    return t, v, p[0, 1].real, p[0, 1].imag


def _value_grad_hess(
    form: tuple[float, float, float, float], alpha: float, phi: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Contrast value, gradient and Hessian from the closed-form reduction.

    With n = |M psi_A|^2 and d = t - n, C' = n/d gives
    dC' = t dn / d^2 and d2C'_xy = t (n_xy d + 2 n_x n_y) / d^3.
    """
    t, v, a, b = form
    cos_a, sin_a = math.cos(alpha), math.sin(alpha)
    w = a * math.cos(phi) - b * math.sin(phi)
    w_p = -a * math.sin(phi) - b * math.cos(phi)
    n = 0.5 * t + v * cos_a + sin_a * w
    n_a = -v * sin_a + cos_a * w
    n_p = sin_a * w_p
    n_aa = -v * cos_a - sin_a * w
    n_ap = cos_a * w_p
    n_pp = -sin_a * w
    den = t - n
    if den < DEGENERATE_FLOOR:
        raise DegenerateDenominatorError("denominator |M psi_B|^2 vanished")
    value = max(n, 0.0) / den
    grad = np.array([t * n_a / den**2, t * n_p / den**2])
    cross = t * (n_ap * den + 2.0 * n_a * n_p) / den**3
    hess = np.array(
        [
            [t * (n_aa * den + 2.0 * n_a * n_a) / den**3, cross],
            [cross, t * (n_pp * den + 2.0 * n_p * n_p) / den**3],
        ]
    )
    return value, grad, hess


def contrast_derivatives(m: np.ndarray, pair: BlochPair) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient and Hessian of the contrast functional at one point."""
    form = _quadratic_form(np.asarray(m, dtype=complex))
    _, grad, hess = _value_grad_hess(form, pair.alpha, pair.phi)
    return grad, hess


def minimize_contrast(m: np.ndarray) -> ContrastResult:
    """Global contrast of a nonzero 2x2 matrix: lambda_min/lambda_max of M^dag M.

    The angles put the Bloch vector along -(v, a, -b)/r, read off the matrix
    scaled to unit largest entry; when r = 0 every pair is optimal and (0, 0)
    is returned.  The minimum is exact: ``iterations`` is 0 and the status
    ``CONVERGED_GRADIENT``.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    scale = float(np.max(np.abs(m)))
    if not scale > DEGENERATE_FLOOR:
        raise ValueError("spin-propagation matrix is numerically zero")

    unit = m / scale
    t, v, a, b = _quadratic_form(unit)
    r = math.sqrt(v * v + a * a + b * b)
    if r == 0.0:
        pair = BlochPair(alpha=0.0, phi=0.0)  # C' == 1 everywhere
    else:
        cos_alpha = min(max(-v / r, -1.0), 1.0)
        pair = canonicalize(BlochPair(alpha=math.acos(cos_alpha), phi=math.atan2(b, -a)))
    psi_a, psi_b = bloch_spinors(pair)
    # the ratio comes from the normalized matrix so extreme scales cannot
    # underflow it; the reported probabilities stay physical (|M psi|^2)
    ratio_a = float(np.sum(np.abs(unit @ psi_a) ** 2))
    ratio_b = float(np.sum(np.abs(unit @ psi_b) ** 2))
    if ratio_b < DEGENERATE_FLOOR:
        raise DegenerateDenominatorError("minimizer left psi_B in the kernel")
    prob_a = float(np.sum(np.abs(m @ psi_a) ** 2))
    prob_b = float(np.sum(np.abs(m @ psi_b) ** 2))
    # identical rounding can push the ratio one ulp past the analytic bound
    value = min(ratio_a / ratio_b, 1.0)
    return ContrastResult(
        value=value,
        alpha=pair.alpha,
        phi=pair.phi,
        iterations=0,
        status=NewtonStatus.CONVERGED_GRADIENT,
        prob_a=prob_a,
        prob_b=prob_b,
    )


def _norm2(x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """|x0|^2 + |x1|^2 of complex arrays, in real arithmetic."""
    return x0.real * x0.real + x0.imag * x0.imag + (x1.real * x1.real + x1.imag * x1.imag)


def minimize_contrast_batch(m: np.ndarray) -> ContrastBatch:
    """``minimize_contrast`` for a stack of N matrices of shape (N, 2, 2).

    Uses elementwise operations only, so each matrix's result does not depend
    on the batch it is part of.  Matrices that ``minimize_contrast`` may
    reject (numerically zero, non-finite or degenerate) get NaN in every field;
    the scale is the largest real or imaginary part, within sqrt(2) of the
    largest modulus, so every matrix the scalar form calls zero is caught.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (2, 2):
        raise ValueError(f"expected a stack of 2x2 matrices, got shape {m.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.maximum(np.abs(m.real), np.abs(m.imag)).max(axis=(1, 2))
        unit = m / scale[:, None, None]
        u00, u01, u10, u11 = unit[:, 0, 0], unit[:, 0, 1], unit[:, 1, 0], unit[:, 1, 1]
        p00, p11 = _norm2(u00, u10), _norm2(u01, u11)
        v = 0.5 * (p00 - p11)
        # (a, b) = p01 = conj(u00) u01 + conj(u10) u11, in real arithmetic: a
        # complex product may be fused or not depending on numpy's inner loop
        a = u00.real * u01.real + u00.imag * u01.imag + (u10.real * u11.real + u10.imag * u11.imag)
        b = u00.real * u01.imag - u00.imag * u01.real + (u10.real * u11.imag - u10.imag * u11.real)
        r = np.sqrt(v * v + a * a + b * b)
        flat = r == 0.0  # C' == 1 everywhere: (0, 0) as in the scalar form
        alpha = np.where(flat, 0.0, np.arccos(np.clip(-v / r, -1.0, 1.0)))
        phi = np.where(flat, 0.0, np.arctan2(b, -a))
        # canonicalize(): fold phi into [0, pi) with alpha -> 2 pi - alpha
        alpha, phi = np.mod(alpha, TWO_PI), np.mod(phi, TWO_PI)
        upper = phi >= math.pi
        phi = np.where(upper, phi - math.pi, phi)
        alpha = np.where(upper, np.mod(TWO_PI - alpha, TWO_PI), alpha)

        c, s = np.cos(0.5 * alpha), np.sin(0.5 * alpha)
        phase = np.cos(phi) + 1j * np.sin(phi)
        psi_a1, psi_b0 = s * phase, s * np.conj(phase)
        ratio_a = _norm2(u00 * c + u01 * psi_a1, u10 * c + u11 * psi_a1)
        ratio_b = _norm2(u00 * psi_b0 - u01 * c, u10 * psi_b0 - u11 * c)
        ok = (scale > DEGENERATE_FLOOR) & (ratio_b >= DEGENERATE_FLOOR)
        s2 = scale * scale  # the probabilities are |M psi|^2 = scale^2 |unit psi|^2
        # identical rounding can push the ratio one ulp past the analytic bound
        fields = (np.minimum(ratio_a / ratio_b, 1.0), alpha, phi, ratio_a * s2, ratio_b * s2)
    return ContrastBatch(*(np.where(ok, f, math.nan) for f in fields))

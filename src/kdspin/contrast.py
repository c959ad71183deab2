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
With r = |(v, a, -b)|, lambda_max = t/2 + r and lambda_min = |det M|^2 / lambda_max.
One elementwise closed form takes this minimum for one matrix or a stack.
The contrast c of a kernel matrix is within 12 eps sqrt(c50) + (6 eps)^2, eps = 2^-52, of
the exact contrast c50 of its float configuration: the kernel's entries are good to a few eps
of max|M|, so by Weyl's inequality sqrt(c) = sigma_min/sigma_max moves by some kappa eps and c
by 2 kappa eps sqrt(c) + (kappa eps)^2; kappa = 6 is over twice the worst on four whole swept
tiles in 50 digits.  A contrast below (6 eps)^2 ~ 1.8e-30 cannot be told from 0.
"""

from __future__ import annotations

import math
import struct
from enum import Enum
from typing import NamedTuple

import numpy as np

#: below this |M psi_B|^2, or a matrix's largest real or imaginary part, counts as zero
DEGENERATE_FLOOR = 1e-300

TWO_PI = 2.0 * math.pi


class DegenerateDenominatorError(ValueError):
    """Raised when |M psi_B|^2 underflows to (numerical) zero."""


class NewtonStatus(str, Enum):
    CONVERGED_GRADIENT = "converged_gradient"


_CONVERGED = NewtonStatus.CONVERGED_GRADIENT  # a module constant: the class lookup costs ~0.1 us per call


class BlochPair(NamedTuple):
    """Spinor-pair angles: polar angle alpha and azimuth phi, in radians."""

    alpha: float
    phi: float


class ContrastResult(NamedTuple):
    """Minimized contrast with the optimal angles and iteration diagnostics."""

    value: float
    alpha: float
    phi: float
    iterations: int
    status: NewtonStatus
    prob_a: float
    prob_b: float


class ContrastBatch(NamedTuple):
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
    alpha, phi = _fold(pair.alpha % TWO_PI, pair.phi % TWO_PI)
    return BlochPair(alpha=float(alpha), phi=float(phi))


def _fold(alpha, phi):
    """(alpha, phi) with each phi in [pi, 2pi) folded into [0, pi) and its alpha taken to
    2pi - alpha (mod 2pi), elementwise; alpha in [0, 2pi] and phi in [0, 2pi) or NaN."""
    upper = phi >= math.pi  # subtracting pi * False is exact, for -0.0 and NaN too
    return np.where(upper, (TWO_PI - alpha) % TWO_PI, alpha), phi - math.pi * upper


def _bloch_form(r00, i00, r01, i01, r10, i10, r11, i11):
    """Coefficients (t, v, a, b) of |M psi_A|^2 over the Bloch angles, elementwise, from the
    real and imaginary parts of the entries u_rc of M.  Real arithmetic throughout: a complex
    product may be fused or not depending on numpy's inner loop."""
    p00 = r00 * r00 + i00 * i00 + (r10 * r10 + i10 * i10)
    p11 = r01 * r01 + i01 * i01 + (r11 * r11 + i11 * i11)
    # (a, b) = p01 = conj(u00) u01 + conj(u10) u11
    a = r00 * r01 + i00 * i01 + (r10 * r11 + i10 * i11)
    b = r00 * i01 - i00 * r01 + (r10 * i11 - i10 * r11)
    return p00 + p11, 0.5 * (p00 - p11), a, b


def contrast_derivatives(m: np.ndarray, pair: BlochPair) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient and Hessian of the contrast functional at one point.

    With n = |M psi_A|^2 and d = t - n from the closed-form reduction, C' = n/d gives
    dC' = t dn / d^2 and d2C'_xy = t (n_xy d + 2 n_x n_y) / d^3.  Raises
    DegenerateDenominatorError where d vanishes.
    """
    m = np.asarray(m, dtype=complex)
    t, v, a, b = _bloch_form(*np.stack((m.real, m.imag), axis=-1).ravel())
    cos_a, sin_a = math.cos(pair.alpha), math.sin(pair.alpha)
    w = a * math.cos(pair.phi) - b * math.sin(pair.phi)
    w_p = -a * math.sin(pair.phi) - b * math.cos(pair.phi)
    n = 0.5 * t + v * cos_a + sin_a * w
    n_a = -v * sin_a + cos_a * w
    n_p = sin_a * w_p
    n_aa = -v * cos_a - sin_a * w
    n_ap = cos_a * w_p
    n_pp = -sin_a * w
    den = t - n
    if den < DEGENERATE_FLOOR:
        raise DegenerateDenominatorError("denominator |M psi_B|^2 vanished")
    grad = np.array([n_a, n_p])
    hess = t * (np.array([[n_aa, n_ap], [n_ap, n_pp]]) * den + 2.0 * np.outer(grad, grad)) / den**3
    return t * grad / den**2, hess


def _closed_form(parts) -> tuple:
    """(scale, ok, value, alpha, phi, prob_a, prob_b) of matrices given as their eight parts (r00, i00, r01,
    i01, r10, i10, r11, i11), as ``_kernel`` gives them: one matrix's Python floats, or arrays of one shape.

    ``scale`` is the largest real or imaginary part; the power of two that brings it into
    [1/2, 1) scales the matrix exactly, so t >= 1/4 and lambda_max >= 1/8.  That factor, 2^-exp,
    is exact wherever ``ok`` can hold (exp in [-996, 1023]), so a product with it rounds once,
    as ``ldexp`` does.  The fields mean nothing where ``ok`` is False (scale 0 or not finite,
    |M|_F^2 overflowing).  One matrix's parts return early where Python would raise and numpy
    gives inf or NaN: at a non-finite or zero scale, and where 2^1024 overflows."""
    if isinstance(parts[0], float):  # one matrix
        scale = max(map(abs, parts)) if all(map(math.isfinite, parts)) else math.nan
        exp = math.frexp(scale)[1]
        if not scale > DEGENERATE_FLOOR or exp == 1024:
            return (scale, False) + (math.nan,) * 5
        factor = math.ldexp(1.0, -exp)
        return scale, *_scaled_minimum([part * factor for part in parts], math.ldexp(1.0, exp))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # one conversion; order="C" gives a stack's transposed view contiguous rows (short inner axes loop slowly)
        parts = np.asarray(parts)
        scale = np.abs(parts, order="C").max(axis=0)
        exp = np.frexp(scale)[1]
        ok, *fields = _scaled_minimum(np.multiply(parts, np.ldexp(1.0, -exp), order="C"), np.ldexp(1.0, exp))
        return scale, ok & (scale > DEGENERATE_FLOOR), *fields


def _scaled_minimum(parts, size):
    """(ok, value, alpha, phi, prob_a, prob_b) of matrices scaled by 1/size, from one matrix's parts
    as Python floats or a stack's (8, N) rows: the same arithmetic, which rounds alike on both, and
    numpy's arccos and arctan2 (on an AVX-512 host ``math.acos`` differs from numpy's array arccos
    on 18,938 of 200,000 uniform inputs, and ``math.atan2`` from arctan2 on 15,488)."""
    one = isinstance(parts, list)
    r00, i00, r01, i01, r10, i10, r11, i11 = parts
    t, v, a, b = _bloch_form(r00, i00, r01, i01, r10, i10, r11, i11)
    r = (math.sqrt if one else np.sqrt)(v * v + a * a + b * b)
    # r == 0: C' == 1 everywhere and (0, 0) is returned; the 0/0 clips to cos(alpha) = 1
    # (fmin takes NaN there, and floats take 1.0), and the factor (r > 0) zeroes phi
    if not one:
        alpha = np.arccos(np.fmax(np.fmin(-v / r, 1.0), -1.0))  # in [0, pi]
        alpha, phi = _fold(alpha, np.arctan2(b, -a) * (r > 0.0) % TWO_PI)
    else:  # the clip and _fold on floats
        alpha = float(np.arccos(max(min(-v / r if r else 1.0, 1.0), -1.0)))
        phi = float(np.arctan2(b, -a)) * (r > 0.0) % TWO_PI
        if phi >= math.pi:
            alpha, phi = (TWO_PI - alpha) % TWO_PI, phi - math.pi
    det_re = r00 * r11 - i00 * i11 - (r01 * r10 - i01 * i10)
    det_im = r00 * i11 + i00 * r11 - (r01 * i10 + i01 * r10)
    det2 = det_re * det_re + det_im * det_im
    # where det u cancelled by more than 10 bits, recompute it error-free; the
    # choice is per matrix, so a stack rounds each matrix as it rounds alone
    low = det2 < 2.0**-20 * (t * t)
    if one and low:
        re, im = _dot2(*parts)
        det2 = re * re + im * im
    elif not one and np.count_nonzero(low):
        re, im = _dot2(*parts[:, low])
        det2[low] = re * re + im * im
    ratio_b = 0.5 * t + r
    ratio_a = det2 / ratio_b
    # identical rounding can push the ratio one ulp past the analytic bound
    value = min(ratio_a / ratio_b, 1.0) if one else np.minimum(ratio_a / ratio_b, 1.0)
    # ratios of the scaled matrix cannot underflow; ok (t >= 0 or NaN: finite) and the probabilities,
    # |M psi|^2 again, take one factor of size at a time: size^2 may overflow alone
    return t * size * size < math.inf, value, alpha, phi, ratio_a * size * size, ratio_b * size * size


def _dot2(*parts):
    """(Re, Im) of det u = u00 u11 - u01 u10, elementwise over the parts (r00, i00, r01, i01, r10,
    i10, r11, i11) of the entries below ~1e300, by Dot2 of Ogita, Rump and Oishi (2005): TwoProduct
    on halves split by Veltkamp's 2^27 + 1 (numpy has no fma), then TwoSum over the four terms.  The
    split is odd, so each part is split once and a negated factor takes its halves negated."""
    halves = []
    for part in parts:
        big = 134217729.0 * part
        high = big - (big - part)
        halves.append((part, high, part - high))
    r00, i00, r01, i01, r10, i10, r11, i11 = halves
    n_i00, n_r01, n_i01 = ((-part, -high, -low) for part, high, low in (i00, r01, i01))
    det = []
    for terms in (((r00, r11), (n_i00, i11), (n_r01, r10), (i01, i10)),
                  ((r00, i11), (i00, r11), (n_r01, i10), (n_i01, r10))):
        # TwoProduct of each term: x y and its rounding error x y - fl(x y)
        (total, err), *rest = [(xy := x * y, x_lo * y_lo - (((xy - x_hi * y_hi) - x_lo * y_hi) - x_hi * y_lo))
                               for (x, x_hi, x_lo), (y, y_hi, y_lo) in terms]
        for prod, prod_err in rest:  # TwoSum of the running sum and the next product
            new = total + prod
            back = new - total
            err = err + (((total - (new - back)) + (prod - back)) + prod_err)
            total = new
        det.append(total + err)
    return det


def minimize_contrast(m: np.ndarray) -> ContrastResult:
    """Global contrast of a nonzero finite 2x2 matrix: lambda_min/lambda_max of M^dag M.

    Bit for bit the result of ``minimize_contrast_batch``, with prob_A = lambda_min,
    prob_B = lambda_max, ``iterations`` 0 and the status ``CONVERGED_GRADIENT``.
    Raises ValueError for a non-finite matrix, a numerically zero one (no real or
    imaginary part above ``DEGENERATE_FLOOR``) and one whose |M|_F^2 overflows.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    scale, ok, value, alpha, phi, prob_a, prob_b = _closed_form(struct.unpack("8d", m.tobytes()))  # C order, native
    if not math.isfinite(scale):  # NaN where an entry is not finite
        raise ValueError("spin-propagation matrix has non-finite entries")
    if not scale > DEGENERATE_FLOOR:
        raise ValueError("spin-propagation matrix is numerically zero")
    if not ok:
        raise ValueError("spin-propagation matrix overflows: |M psi_A|^2 + |M psi_B|^2 is not finite")
    return ContrastResult(value, alpha, phi, 0, _CONVERGED, prob_a, prob_b)


def minimize_contrast_batch(m: np.ndarray) -> ContrastBatch:
    """``minimize_contrast`` for a stack of N matrices of shape (N, 2, 2), NaN in every
    field where it raises.  The closed form is elementwise: no result depends on its batch.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (2, 2):
        raise ValueError(f"expected a stack of 2x2 matrices, got shape {m.shape}")
    _, ok, *fields = _closed_form(np.ascontiguousarray(m).view(float).reshape(len(m), 8).T)
    return ContrastBatch(*np.where(ok, fields, math.nan))

"""Parameter-space studies: contrast maps, minimum-locus extraction and fits.

A sweep evaluates the spin matrix and its minimized contrast on a regular
grid over one of the supported axis pairs, in one process: chunks of whole
grid rows go through the batched kernel and minimizer at once, with one beam
array per chunk, and a point they leave NaN is named after the exception the
scalar forms raise for it.
The minimum locus traces, for each transverse momentum q3, the inverse
ellipticity 1/theta at which the contrast valley bottoms out.  The elliptic
beam gives M(theta) = cos(theta) M_y - i sin(theta) M_z; where the cross
term of det M(theta) vanishes (q2 = 0, and q3 = 0 at any q2) the bottom is
the closed-form zero tan^2(theta) = det M_y / det M_z.  Elsewhere a coarse
scan over 1/theta brackets it per q3 and one elementwise golden section
refines all brackets together, a point costing one 2x2 superposition of
M_y and M_z plus the minimizer.  The locus is fitted per branch by least
squares against 1/theta = c1 + c2 sqrt((q3 - q0)^2 + c3), with q0 = 0 on the
left branch and q0 = 1 on the right, by variable projection: (c1, c2) are
linear for fixed c3, so the fit is a one-dimensional problem in c3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .compton import PolarizationPair, elliptic_left, elliptic_polarization, spin_matrix_batch
from .contrast import (
    ContrastBatch,
    NewtonStatus,
    minimize_contrast_batch,
)
from .kinematics import ScatterConfig

SUPPORTED_AXES = (("q2", "q3"), ("q3", "theta"), ("q3", "inv_theta"))

#: branch split of the two-piece locus fit
BRANCH_SPLIT = 0.9

#: golden-section tolerance on the refined 1/theta
LOCUS_TOLERANCE = 1e-4

#: relative size up to which the cross term X and Im(det M_y / det M_z) count
#: as rounding of zero; at q2 = 0 they come out 0 or ~1e-16 of their scale
ROOT_RTOL = 1e-12

#: points per batched chunk of a sweep or locus scan (whole rows, at least one)
SWEEP_CHUNK_POINTS = 4096

#: depth, relative to the row's max, by which a coarse-scan minimum must lie below both row ends
#: to count as a minimum rather than rounding (at q_l <= 1e-16 rows dip 1-1.5 eps; real minima at
#: q_l >= 1e-8 lie >= 3.7e4 eps deep)
_FLAT_ROW = 8.0 * np.finfo(float).eps

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

_CONVERGED = NewtonStatus.CONVERGED_GRADIENT.value

#: unit amplitudes along y and z: the emission beams whose spin matrices
#: M_y, M_z span the elliptic beam, and (z) its linear absorption beam
_UNIT_Y, _UNIT_Z = np.eye(3, dtype=complex)[1:]


@dataclass(frozen=True)
class FixedParams:
    """Values held constant over a sweep (q3 is an axis of every supported pair).
    ``theta``, or ``pol`` when given, sets the beams of a q2,q3 grid only."""

    q_l: float = 0.02
    q2: float = 0.0
    theta: float = math.pi / 4.0
    pol: PolarizationPair | None = None


@dataclass(frozen=True)
class GridSpec:
    """Regular evaluation grid over one supported axis pair."""

    x_name: str
    y_name: str
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    nx: int
    ny: int
    fixed: FixedParams = field(default_factory=FixedParams)

    def __post_init__(self) -> None:
        if (self.x_name, self.y_name) not in SUPPORTED_AXES:
            raise ValueError(
                f"unsupported axis pair {(self.x_name, self.y_name)!r}; "
                f"supported: {SUPPORTED_AXES}"
            )
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grids need at least 2 points per axis")
        if len(self.x_range) != 2 or len(self.y_range) != 2:
            raise ValueError("axis ranges are (low, high) pairs")
        for name, ends in (("x range", self.x_range), ("y range", self.y_range)):
            if not math.isfinite(ends[1] - ends[0]):  # also a width that overflows
                raise ValueError(f"{name} must have finite ends and width, got {ends!r}")
        for name in ("q_l", "q2", "theta"):
            if not math.isfinite(value := getattr(self.fixed, name)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.fixed.pol is not None and self.y_name != "q3":
            raise ValueError(f"a fixed beam pair applies only to a q2,q3 grid; on a {self.x_name},{self.y_name} "
                             "grid the y axis sets the left beam")
        if not (self.x_range[0] < self.x_range[1] and self.y_range[0] < self.y_range[1]):
            raise ValueError("axis ranges must be nondegenerate increasing intervals")


@dataclass(frozen=True)
class SweepTile:
    """Per-point optimizer output on the grid, arrays shaped (ny, nx)."""

    spec: GridSpec
    x: np.ndarray
    y: np.ndarray
    contrast: np.ndarray
    alpha: np.ndarray
    phi: np.ndarray
    prob_a: np.ndarray
    prob_b: np.ndarray
    status: np.ndarray


@dataclass(frozen=True)
class LocusPoint:
    """Contrast minimum over the Bloch angles of the elliptic beam at (q3, inv_theta), with
    its optimal angles and probabilities prob_a = |M psi_A|^2, prob_b = |M psi_B|^2.  On the
    minimum locus inv_theta is the refined minimum over 1/theta; along a fit it is the fit's
    value.  An unbracketed point has NaN in every float field but q3."""

    q3: float
    inv_theta: float
    alpha: float
    phi: float
    prob_a: float
    prob_b: float
    bracketed: bool
    status: str


@dataclass(frozen=True)
class FitModel:
    """One branch of the locus fit 1/theta(q3) = p0 + p1 sqrt((q3 - q0)^2 + p2)."""

    branch: str
    params: np.ndarray
    domain: tuple[float, float]


class FitConvergenceError(RuntimeError):
    """Raised when a fit branch degenerates: its c3 runs to an end of the
    [1e-8, 10] grid, or its c3 profile has no bracketed minimum."""


def _batch_rows(spec: GridSpec, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(5, len(ys), len(xs)) contrast, alpha, phi, prob_A, prob_B of whole grid rows: one (3,)
    beam pair on a q2,q3 grid, else each row's elliptic left beam against (0, 0, 1).  NaN where
    a beam is not finite (1/theta at 0 or overflowing) or ``minimize_contrast`` rejects a matrix."""
    across = np.tile(xs, len(ys))
    fixed = spec.fixed
    if spec.x_name == "q2":
        pol = fixed.pol if fixed.pol is not None else elliptic_polarization(fixed.theta)
        q2, q3, left, right = across, np.repeat(ys, len(xs)), pol.left, pol.right
    else:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # 1/theta at 0 gives NaN beams
            theta = ys if spec.y_name == "theta" else 1.0 / ys
            left = np.repeat(elliptic_left(theta), len(xs), axis=0)
        q2, q3, right = np.full_like(across, fixed.q2), across, _UNIT_Z
    res = minimize_contrast_batch(spin_matrix_batch(fixed.q_l, q2, q3, left, right))
    return np.reshape((res.value, res.alpha, res.phi, res.prob_a, res.prob_b), (5, len(ys), len(xs)))


def run_sweep(spec: GridSpec, workers: int = 1) -> SweepTile:
    """Evaluate contrast minimization on every grid point of ``spec``.

    Chunks of whole rows (fixed y) go through ``spin_matrix_batch`` and
    ``minimize_contrast_batch`` in this process.  Each point's result is
    independent of the chunk it lands in, so the tile is bit-identical for
    any chunking.  A point the batch leaves NaN gets the status of the
    exception the scalar forms raise for it: ``failed_ZeroDivisionError`` on
    an ``inv_theta`` row at 0 when q_l > 0, ``failed_ValueError`` for every
    other NaN point (q_l <= 0, a dark beam, an overflowing matrix or 1/theta).
    ``workers`` is accepted for compatibility and has no effect.
    """
    xs = np.linspace(spec.x_range[0], spec.x_range[1], spec.nx)
    ys = np.linspace(spec.y_range[0], spec.y_range[1], spec.ny)
    fields = np.full((5, spec.ny, spec.nx), math.nan)
    if spec.fixed.q_l > 0.0:  # else ScatterConfig rejects every point
        rows = max(1, SWEEP_CHUNK_POINTS // spec.nx)
        for start in range(0, spec.ny, rows):
            chunk = slice(start, start + rows)
            fields[:, chunk] = _batch_rows(spec, xs, ys[chunk])
    # object-dtype statuses keep one shared str each instead of one per point
    failed, converged = (np.array(name, dtype=object) for name in ("failed_ValueError", _CONVERGED))
    status = np.where(np.isnan(fields[0]), failed, converged)
    if spec.y_name == "inv_theta" and spec.fixed.q_l > 0.0:
        status[ys == 0.0] = "failed_ZeroDivisionError"  # 1.0 / 0.0 raises before any beam is built
    contrast, alpha, phi, prob_a, prob_b = fields
    return SweepTile(
        spec=spec,
        x=xs,
        y=ys,
        contrast=contrast,
        alpha=alpha,
        phi=phi,
        prob_a=prob_a,
        prob_b=prob_b,
        status=status,
    )


def _golden_section(func, lo, hi, tol: float):
    """Midpoints of golden-section brackets of unimodal minima, elementwise.

    ``func`` maps an array of abscissae to an array of values.  A bracket
    stops once it is no wider than ``tol``, so its result does not depend
    on the others.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c = hi - _INV_GOLDEN * (hi - lo)
    d = lo + _INV_GOLDEN * (hi - lo)
    fc, fd = func(c), func(d)
    while (active := hi - lo > tol).any():
        left = fc < fd  # the minimum lies in [lo, d]
        lo = np.where(active & ~left, c, lo)
        hi = np.where(active & left, d, hi)
        probe = np.where(left, hi - _INV_GOLDEN * (hi - lo), lo + _INV_GOLDEN * (hi - lo))
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fprobe = func(probe)
        fc, fd = np.where(left, fprobe, fd), np.where(left, fc, fprobe)
    return 0.5 * (lo + hi)


def _beam_matrices(fixed: FixedParams, q3: np.ndarray) -> np.ndarray:
    """Spin matrices M_y, M_z of the emission beams along y and z at each q3,
    shape (2, N, 2, 2); q2 and q_l come from ``fixed``.

    The kernel is linear in the conjugated emission amplitude, so the
    elliptic beam (0, cos theta, i sin theta) gives every matrix of the locus
    as M(theta) = cos(theta) M_y - i sin(theta) M_z.  One kernel call on 2N rows.
    """
    left = np.repeat([_UNIT_Y, _UNIT_Z], len(q3), axis=0)
    return spin_matrix_batch(fixed.q_l, fixed.q2, np.tile(q3, 2), left, _UNIT_Z).reshape(2, len(q3), 2, 2)


def _elliptic_minima(q3: np.ndarray, beams: np.ndarray, inv_theta) -> ContrastBatch:
    """Batched contrast minima of cos(theta) M_y - i sin(theta) M_z, with
    ``beams`` = (M_y, M_z) at ``q3``, at 1/theta = inv_theta of shape (N,)
    or (N, K), flattened row by row.  The superposition is formed in real
    arithmetic, elementwise, so a point's bits do not depend on its batch.
    Raises ValueError if a point has no minimum.
    """
    inv_theta = np.asarray(inv_theta, dtype=float)
    m_y, m_z = beams if inv_theta.ndim == 1 else beams[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # 1/theta = 0 gives NaN
        theta = (1.0 / inv_theta)[..., None, None]
        cos, sin = np.cos(theta), np.sin(theta)
        m = (cos * m_y.real + sin * m_z.imag).astype(complex)
        m.imag = cos * m_y.imag - sin * m_z.real
    res = minimize_contrast_batch(m.reshape(-1, 2, 2))
    failed = np.flatnonzero(np.isnan(res.value))
    if failed.size:
        at = np.unravel_index(failed[0], inv_theta.shape)
        raise ValueError(f"no contrast minimum at q3={float(q3[at[0]])!r}, 1/theta={float(inv_theta[at])!r}")
    return res


def _locus_roots(beams: np.ndarray) -> np.ndarray:
    """1/theta where det M(theta) = 0 at each q3; NaN where that root does not exist.

    M(theta) = cos(theta) M_y - i sin(theta) M_z, so with t = tan(theta)
    det M = 0 reads det M_z t^2 + i X t - det M_y = 0, X = tr(adj M_y . M_z).
    When X and Im(det M_y / det M_z) vanish (to ``ROOT_RTOL``) and the ratio
    is positive, t = sqrt(det M_y / det M_z).
    """
    m_y, m_z = beams
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det_y, det_z = beams[:, :, 0, 0] * beams[:, :, 1, 1] - beams[:, :, 0, 1] * beams[:, :, 1, 0]
        cross = (
            m_y[:, 1, 1] * m_z[:, 0, 0] - m_y[:, 0, 1] * m_z[:, 1, 0]
            - m_y[:, 1, 0] * m_z[:, 0, 1] + m_y[:, 0, 0] * m_z[:, 1, 1]
        )
        ratio = det_y / det_z
        exact = (np.abs(cross) <= ROOT_RTOL * np.sqrt(np.abs(det_y * det_z))) & (
            np.abs(ratio.imag) <= ROOT_RTOL * np.abs(ratio)
        )
        return np.where(exact & (ratio.real > 0.0), 1.0 / np.arctan(np.sqrt(ratio.real)), math.nan)


def _scan_minima(q3: np.ndarray, beams: np.ndarray, grid: np.ndarray, tol: float) -> np.ndarray:
    """1/theta of the contrast minimum at each q3, NaN where the coarse scan over ``grid``
    puts it on the boundary or no more than ``_FLAT_ROW`` below both row ends.  The scan
    takes chunks of whole q3 rows of the (q3, grid) product at once; all brackets refine
    together."""
    rows = max(1, SWEEP_CHUNK_POINTS // len(grid))
    chunks = (slice(start, start + rows) for start in range(0, len(q3), rows))
    values = (
        _elliptic_minima(q3[c], beams[:, c], np.broadcast_to(grid, (len(q3[c]), len(grid)))).value for c in chunks
    )
    scans = (np.reshape(v, (-1, len(grid))) for v in values)
    idx = np.concatenate([
        np.where(s.min(1) < np.minimum(s[:, 0], s[:, -1]) - _FLAT_ROW * s.max(1), s.argmin(1), 0) for s in scans
    ])
    inner = (idx > 0) & (idx < len(grid) - 1)
    found = np.full(len(q3), math.nan)
    found[inner] = _golden_section(
        lambda v: _elliptic_minima(q3[inner], beams[:, inner], v).value, grid[idx[inner] - 1], grid[idx[inner] + 1], tol
    )
    return found


def minimum_locus(
    q3_values,
    inv_theta_range: tuple[float, float] = (1.0, 100.0),
    inv_theta_points: int = 400,
    fixed: FixedParams | None = None,
) -> list[LocusPoint]:
    """Trace the contrast minimum over 1/theta for each q3 (q2 held fixed).

    Where the closed-form root of det M(theta) = 0 exists (see
    ``_locus_roots``; in this geometry at q2 = 0, and at q3 = 0 for any q2)
    and lies inside ``inv_theta_range``, it is the locus point: the contrast
    is zero there.  Every other q3 takes the scan path: a batched coarse
    scan over ``inv_theta_points`` values per q3, then one elementwise
    golden section that refines all scan-path brackets to ``LOCUS_TOLERANCE`` together.
    Scan points whose coarse minimum lands on the scan boundary cannot be
    bracketed and are flagged with ``bracketed=False`` and NaN results.  A
    point's result does not depend on the other q3 values requested with it.

    Raises ValueError unless 0 < low < high are finite and there are at
    least 3 scan points, and for a non-finite q_l, q2 or q3.
    """
    lo, hi = (float(v) for v in inv_theta_range)
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
        raise ValueError(f"1/theta range must satisfy 0 < low < high, got {inv_theta_range!r}")
    if inv_theta_points < 3:
        raise ValueError(f"1/theta scan needs at least 3 points, got {inv_theta_points!r}")
    fixed = fixed or FixedParams()
    ScatterConfig(q_l=fixed.q_l, q2=fixed.q2)  # rejects a non-finite q_l or q2
    q3 = np.array([float(v) for v in q3_values])
    if not np.isfinite(q3).all():
        raise ValueError(f"q3 must be finite, got {float(q3[~np.isfinite(q3)][0])!r}")
    beams = _beam_matrices(fixed, q3)
    roots = _locus_roots(beams)
    inv_theta = np.where((roots > lo) & (roots < hi), roots, math.nan)
    scan = np.isnan(inv_theta)
    if scan.any():
        inv_theta[scan] = _scan_minima(q3[scan], beams[:, scan], np.linspace(lo, hi, inv_theta_points), LOCUS_TOLERANCE)
    return _locus_points(q3, beams, inv_theta)


def _locus_points(q3: np.ndarray, beams: np.ndarray, inv_theta: np.ndarray) -> list[LocusPoint]:
    """One ``LocusPoint`` per q3, with ``beams`` = (M_y, M_z) there: the contrast minimum at
    1/theta = inv_theta, and an unbracketed point where inv_theta is NaN."""
    bracketed = ~np.isnan(inv_theta)
    res = _elliptic_minima(q3[bracketed], beams[:, bracketed], inv_theta[bracketed])
    fields = np.full((4, len(q3)), math.nan)
    fields[:, bracketed] = res.alpha, res.phi, res.prob_a, res.prob_b
    rows = zip(q3.tolist(), inv_theta.tolist(), *fields.tolist(), bracketed.tolist())
    return [LocusPoint(*row, status=_CONVERGED if row[-1] else "unbracketed") for row in rows]


def _branch_offset(branch: str) -> float:
    if branch == "left":
        return 0.0
    if branch == "right":
        return 1.0
    raise ValueError(f"branch must be 'left' or 'right', got {branch!r}")


def evaluate_fit(model: FitModel, q3: float) -> float:
    """Closed-form evaluation of one fitted branch at q3 (domain enforced)."""
    lo, hi = model.domain
    if not (lo - 1e-12 <= q3 <= hi + 1e-12):
        raise ValueError(f"q3={q3!r} outside fit domain [{lo}, {hi}]")
    offset = _branch_offset(model.branch)
    c1, c2, c3 = model.params
    x = q3 - offset  # squared as the fit squares it: x ** 2 calls libm pow, which can be an ulp off
    return float(c1 + c2 * math.sqrt(x * x + c3))


def _fit_profile(x: np.ndarray, y: np.ndarray, c3: np.ndarray):
    """Variable projection of one branch's fit onto c3, for a 1-D array of c3.

    For fixed c3 the model c1 + c2 sqrt(x^2 + c3) is linear in (c1, c2),
    solved here by the centred 2x2 normal equations.  Returns c1, c2, the sum
    of squares SS and d(SS)/d log c3 = c3 c2 sum(r / sqrt(x^2 + c3)) over the
    residuals r, each shaped like c3.
    """
    root = np.sqrt(x**2 + c3[:, None])
    spread = root - root.mean(1, keepdims=True)
    c2 = spread @ (y - y.mean()) / np.einsum("ij,ij->i", spread, spread)
    c1 = y.mean() - c2 * root.mean(1)
    res = c1[:, None] + c2[:, None] * root - y
    return c1, c2, np.einsum("ij,ij->i", res, res), c3 * c2 * (res / root).sum(1)


def _fit_branch(q3: np.ndarray, inv_theta: np.ndarray, branch: str, domain) -> FitModel:
    """Least-squares fit of one branch by variable projection (Golub and Pereyra, 1973).

    Minimized over (c1, c2), the sum of squares is a function of c3 alone.
    ``_fit_profile`` evaluates it on a log-spaced c3 grid over [1e-8, 10];
    regula falsi (Illinois) then finds the root of its derivative in log c3
    between the grid neighbours of the smallest value, which is the
    stationary point of the three-parameter problem.  Published coefficients
    are never used.  Raises FitConvergenceError when that smallest value is
    at an end of the grid, where c3 runs to 0 (the model collapses to the V
    c1 + c2 |q3 - q0|) or to infinity (a parabola), or when the derivative
    does not go from negative to positive across the bracket.
    """
    x = q3 - _branch_offset(branch)
    grid = np.geomspace(1e-8, 10.0, 80)
    best = int(np.argmin(_fit_profile(x, inv_theta, grid)[2]))
    if best in (0, len(grid) - 1):
        end, shape = ("lower", "the V c1 + c2 |q3 - q0|") if best == 0 else ("upper", "a parabola")
        raise FitConvergenceError(
            f"{branch} branch degenerates: c3 ran to {grid[best]:g}, the {end} end of its grid "
            f"[{grid[0]:g}, {grid[-1]:g}], where the model is {shape}"
        )
    ends = np.log(grid[[best - 1, best + 1]])
    slopes = _fit_profile(x, inv_theta, np.exp(ends))[3]
    if not slopes[0] < 0.0 < slopes[1]:
        raise FitConvergenceError(
            f"{branch} branch: the c3 profile has no minimum between {grid[best - 1]:g} and {grid[best + 1]:g}"
        )
    moved = -1  # the end the last step moved: 0 the lower, 1 the upper
    while ends[1] - ends[0] > 1e-12:  # in log c3; rounding blurs the root over ~1e-13
        mid = ends[1] - slopes[1] * (ends[1] - ends[0]) / (slopes[1] - slopes[0])
        if not ends[0] < mid < ends[1]:  # rounding at a tiny bracket
            mid = 0.5 * (ends[0] + ends[1])
        c3 = np.exp([mid])
        c1, c2, _, (slope,) = _fit_profile(x, inv_theta, c3)
        if slope == 0.0:
            break
        end = int(slope > 0.0)
        slopes[1 - end] *= 0.5 if end == moved else 1.0  # Illinois: halve an end kept twice in a row
        ends[end], slopes[end], moved = mid, slope, end
    return FitModel(branch=branch, params=np.array([c1[0], c2[0], c3[0]]), domain=domain)


def fit_locus(locus) -> tuple[FitModel, FitModel]:
    """Fit both locus branches; the split point belongs to both.

    ``locus`` is a sequence of (q3, inv_theta) pairs covering [0, 1]; a q3
    outside that domain raises ValueError.  Each branch needs at least 4
    distinct q3 to overdetermine its 3 parameters; around 30 per branch is
    needed for coefficients stable at the few percent level.
    """
    data = np.asarray([(float(a), float(b)) for a, b in locus])
    if data.size == 0:
        raise ValueError("empty locus")
    outside = ~((data[:, 0] >= -1e-12) & (data[:, 0] <= 1.0 + 1e-12))
    if outside.any():
        raise ValueError(f"q3={float(data[outside, 0][0])!r} outside fit domain [0, 1]")
    finite = np.isfinite(data[:, 1])
    q3, inv_theta = data[finite, 0], data[finite, 1]
    left_mask = q3 <= BRANCH_SPLIT + 1e-12
    right_mask = q3 >= BRANCH_SPLIT - 1e-12
    distinct = [np.unique(q3[mask]).size for mask in (left_mask, right_mask)]
    if min(distinct) < 4:
        raise ValueError(f"need at least 4 distinct q3 per branch, got {distinct[0]} left / {distinct[1]} right")
    left = _fit_branch(q3[left_mask], inv_theta[left_mask], "left", (0.0, BRANCH_SPLIT))
    right = _fit_branch(q3[right_mask], inv_theta[right_mask], "right", (BRANCH_SPLIT, 1.0))
    return left, right


def locus_probabilities(
    left: FitModel,
    right: FitModel,
    q3_values,
    fixed: FixedParams | None = None,
) -> list[LocusPoint]:
    """``LocusPoint``s along the fit: at each q3, 1/theta from the branch that covers it
    (``left`` up to ``BRANCH_SPLIT``), with |M psi_A|^2, |M psi_B|^2 and the optimal
    angles there.  Every point is bracketed.

    All q3 values share one ``_beam_matrices`` call and one minimizer call.
    """
    fixed = fixed or FixedParams()
    q3 = np.array([float(v) for v in q3_values])
    inv_theta = np.array([evaluate_fit(left if v <= BRANCH_SPLIT else right, v) for v in q3.tolist()])
    return _locus_points(q3, _beam_matrices(fixed, q3), inv_theta)

"""Parameter-space studies: contrast maps, minimum-locus extraction and fits.

A sweep evaluates the spin matrix and its minimized contrast on a regular
grid over one of the supported axis pairs, in one process: chunks of whole
grid rows go through the batched kernel and minimizer at once, and a point
they leave NaN is named after the exception the scalar forms raise for it.
The minimum locus traces, for each transverse momentum q3, the inverse
ellipticity 1/theta at which the contrast valley bottoms out.  The elliptic
beam gives M(theta) = cos(theta) M_y - i sin(theta) M_z; where the cross
term of det M(theta) vanishes (q2 = 0, and q3 = 0 at any q2) the bottom is
the closed-form zero tan^2(theta) = det M_y / det M_z.  Elsewhere a coarse
scan over 1/theta brackets it per q3 and one elementwise golden section
refines all brackets together, a point costing one 2x2 superposition of
M_y and M_z plus the minimizer.  The locus is
fitted per branch by damped Gauss-Newton least squares against
1/theta = c1 + c2 sqrt((q3 - q0)^2 + c3) with q0 = 0 on the left branch and
q0 = 1 on the right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .compton import PolarizationPair, elliptic_polarization, spin_matrix_batch
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

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

_CONVERGED = NewtonStatus.CONVERGED_GRADIENT.value

#: unit amplitudes along y and z: the emission beams whose spin matrices
#: M_y, M_z span the elliptic beam, and (z) its linear absorption beam
_UNIT_Y, _UNIT_Z = np.eye(3, dtype=complex)[1:]

_NAN_BEAM = np.full(3, math.nan + 0j)


@dataclass(frozen=True)
class FixedParams:
    """Values held constant over a sweep; axes override the matching field."""

    q_l: float = 0.02
    q2: float = 0.0
    q3: float = 0.0
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
        for name in ("q_l", "q2", "q3", "theta"):
            if not math.isfinite(value := getattr(self.fixed, name)):
                raise ValueError(f"{name} must be finite, got {value!r}")
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
    """Refined contrast minimum over 1/theta at one transverse momentum."""

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
    """Raised when the damped Gauss-Newton loop exhausts its iterations."""


def _polarization(spec: GridSpec, y: float) -> PolarizationPair:
    """Beam pair of grid row y (the polarization depends on y only)."""
    if spec.y_name == "theta":
        return elliptic_polarization(y)
    if spec.y_name == "inv_theta":
        return elliptic_polarization(1.0 / y)
    fixed = spec.fixed
    return fixed.pol if fixed.pol is not None else elliptic_polarization(fixed.theta)


def _batch_rows(spec: GridSpec, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """(5, len(ys), len(xs)) contrast, alpha, phi, prob_A, prob_B of whole grid rows,
    and the status of each row's NaN points.

    A row without a valid beam pair gets NaN amplitudes and the name of the
    exception its beam pair raised; in any other row a NaN point is a matrix
    that ``minimize_contrast`` rejects with ValueError.
    """
    beams, failures = [], []
    for y in ys:
        try:
            pol = _polarization(spec, float(y))
            beams.append((pol.left, pol.right))
            failures.append("failed_ValueError")
        except (ValueError, ZeroDivisionError) as exc:
            beams.append((_NAN_BEAM, _NAN_BEAM))
            failures.append(f"failed_{type(exc).__name__}")
    left, right = (np.repeat(side, len(xs), axis=0) for side in zip(*beams))
    across = np.tile(xs, len(ys))
    if spec.x_name == "q2":
        q2, q3 = across, np.repeat(ys, len(xs))
    else:
        q2, q3 = np.full_like(across, spec.fixed.q2), across
    res = minimize_contrast_batch(spin_matrix_batch(spec.fixed.q_l, q2, q3, left, right))
    fields = (res.value, res.alpha, res.phi, res.prob_a, res.prob_b)
    return np.reshape(fields, (5, len(ys), len(xs))), failures


def run_sweep(spec: GridSpec, workers: int = 1) -> SweepTile:
    """Evaluate contrast minimization on every grid point of ``spec``.

    Chunks of whole rows (fixed y) go through ``spin_matrix_batch`` and
    ``minimize_contrast_batch`` in this process.  Each point's result is
    independent of the chunk it lands in, so the tile is bit-identical for
    any chunking.  A point the batch leaves NaN gets the status
    ``failed_<exception>``, the exception that ``ScatterConfig``, the row's
    beam pair, ``spin_matrix`` and ``minimize_contrast`` raise for it, such
    as ``failed_ZeroDivisionError`` on an ``inv_theta`` row at 0 and
    ``failed_ValueError`` for q_l <= 0.  ``workers`` is accepted for
    compatibility and has no effect.
    """
    xs = np.linspace(spec.x_range[0], spec.x_range[1], spec.nx)
    ys = np.linspace(spec.y_range[0], spec.y_range[1], spec.ny)
    fields = np.full((5, spec.ny, spec.nx), math.nan)
    failures = np.full(spec.ny, "failed_ValueError", dtype=object)
    if spec.fixed.q_l > 0.0:  # else ScatterConfig rejects every point
        rows = max(1, SWEEP_CHUNK_POINTS // spec.nx)
        for start in range(0, spec.ny, rows):
            chunk = slice(start, start + rows)
            fields[:, chunk], failures[chunk] = _batch_rows(spec, xs, ys[chunk])
    # an object-dtype _CONVERGED keeps one shared str instead of one per point
    status = np.where(np.isnan(fields[0]), failures[:, None], np.array(_CONVERGED, dtype=object))
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
    as M(theta) = cos(theta) M_y - i sin(theta) M_z.
    """
    return np.stack([spin_matrix_batch(fixed.q_l, fixed.q2, q3, left, _UNIT_Z) for left in (_UNIT_Y, _UNIT_Z)])


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
    det_y, det_z = beams[:, :, 0, 0] * beams[:, :, 1, 1] - beams[:, :, 0, 1] * beams[:, :, 1, 0]
    cross = (
        m_y[:, 1, 1] * m_z[:, 0, 0] - m_y[:, 0, 1] * m_z[:, 1, 0]
        - m_y[:, 1, 0] * m_z[:, 0, 1] + m_y[:, 0, 0] * m_z[:, 1, 1]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = det_y / det_z
        exact = (np.abs(cross) <= ROOT_RTOL * np.sqrt(np.abs(det_y * det_z))) & (
            np.abs(ratio.imag) <= ROOT_RTOL * np.abs(ratio)
        )
        return np.where(exact & (ratio.real > 0.0), 1.0 / np.arctan(np.sqrt(ratio.real)), math.nan)


def _scan_minima(q3: np.ndarray, beams: np.ndarray, grid: np.ndarray, tol: float) -> np.ndarray:
    """1/theta of the contrast minimum at each q3, NaN where the coarse scan
    over ``grid`` puts it on the boundary.  The scan takes chunks of whole q3
    rows of the (q3, grid) product at once; all brackets refine together."""
    rows = max(1, SWEEP_CHUNK_POINTS // len(grid))
    chunks = (slice(start, start + rows) for start in range(0, len(q3), rows))
    values = (
        _elliptic_minima(q3[c], beams[:, c], np.broadcast_to(grid, (len(q3[c]), len(grid)))).value for c in chunks
    )
    idx = np.concatenate([np.reshape(v, (-1, len(grid))).argmin(axis=1) for v in values])
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
    tol: float = LOCUS_TOLERANCE,
) -> list[LocusPoint]:
    """Trace the contrast minimum over 1/theta for each q3 (q2 held fixed).

    Where the closed-form root of det M(theta) = 0 exists (see
    ``_locus_roots``; in this geometry at q2 = 0, and at q3 = 0 for any q2)
    and lies inside ``inv_theta_range``, it is the locus point: the contrast
    is zero there.  Every other q3 takes the scan path: a batched coarse
    scan over ``inv_theta_points`` values per q3, then one elementwise
    golden section that refines all scan-path brackets to ``tol`` together.
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
        inv_theta[scan] = _scan_minima(q3[scan], beams[:, scan], np.linspace(lo, hi, inv_theta_points), tol)
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
    return float(c1 + c2 * math.sqrt((q3 - offset) ** 2 + c3))


def _fit_branch(q3: np.ndarray, inv_theta: np.ndarray, branch: str, domain) -> FitModel:
    """Damped Gauss-Newton fit of one branch with a data-driven start.

    For any trial curvature scale c3 the model is linear in (c1, c2), so the
    start point solves that linear least-squares problem on a log-spaced c3
    grid and keeps the best; Eq.-style published coefficients are never used
    for initialization.  The Jacobian is analytic, (1, sqrt(s), c2 / (2 sqrt(s)))
    with s = (q3 - q0)^2 + c3; steps are halved until the residual improves.
    """
    offset = _branch_offset(branch)
    shifted = q3 - offset

    def residual(params: np.ndarray) -> np.ndarray | None:
        if params[2] <= 0.0:
            return None  # square-root argument must stay positive
        return params[0] + params[1] * np.sqrt(shifted**2 + params[2]) - inv_theta

    best_start = None
    for c3 in np.geomspace(1e-8, 10.0, 80):
        design = np.stack([np.ones_like(shifted), np.sqrt(shifted**2 + c3)], axis=1)
        coef, *_ = np.linalg.lstsq(design, inv_theta, rcond=None)
        misfit = design @ coef - inv_theta
        score = float(misfit @ misfit)
        if best_start is None or score < best_start[0]:
            best_start = (score, np.array([coef[0], coef[1], c3]))
    params = best_start[1]

    res = residual(params)
    sumsq = float(res @ res)
    converged = False
    for _ in range(200):
        root = np.sqrt(shifted**2 + params[2])
        jac = np.stack([np.ones_like(root), root, 0.5 * params[1] / root], axis=1)
        gradient = jac.T @ res
        try:
            step = np.linalg.solve(jac.T @ jac, gradient)
        except np.linalg.LinAlgError:
            converged = True  # normal matrix singular at a flat point
            break
        damping = 1.0
        improved = False
        for _ in range(40):
            trial = params - damping * step
            r_new = residual(trial)
            if r_new is not None:
                new_sumsq = float(r_new @ r_new)
                if new_sumsq < sumsq:
                    params, res, sumsq = trial, r_new, new_sumsq
                    improved = True
                    break
            damping *= 0.5
        if not improved:
            converged = True  # no descent direction left at fp resolution
            break
        if damping * np.linalg.norm(step) < 1e-14 * max(1.0, float(np.linalg.norm(params))):
            converged = True
            break
    if not converged:
        raise FitConvergenceError(
            f"{branch} branch not converged after 200 damped iterations, "
            f"residual norm {math.sqrt(sumsq):.6e}"
        )
    return FitModel(branch=branch, params=params, domain=domain)


def fit_locus(locus) -> tuple[FitModel, FitModel]:
    """Fit both locus branches; the split point belongs to both.

    ``locus`` is a sequence of (q3, inv_theta) pairs covering [0, 1]; a q3
    outside that domain raises ValueError.  Each branch needs at least 4
    points to overdetermine its 3 parameters; around 30 per branch is needed
    for coefficients stable at the few percent level.
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
    if left_mask.sum() < 4 or right_mask.sum() < 4:
        raise ValueError(
            f"need at least 4 points per branch, got {int(left_mask.sum())} left / "
            f"{int(right_mask.sum())} right"
        )
    left = _fit_branch(q3[left_mask], inv_theta[left_mask], "left", (0.0, BRANCH_SPLIT))
    right = _fit_branch(q3[right_mask], inv_theta[right_mask], "right", (BRANCH_SPLIT, 1.0))
    return left, right


@dataclass(frozen=True)
class ProbabilityPoint:
    """Diffraction probabilities along the fitted locus at one q3."""

    q3: float
    prob_a: float
    prob_b: float
    alpha: float
    phi: float
    status: str


def locus_probabilities(
    left: FitModel,
    right: FitModel,
    q3_values,
    fixed: FixedParams | None = None,
) -> list[ProbabilityPoint]:
    """Evaluate |M psi_A|^2, |M psi_B|^2 and the optimal angles along the fit.

    All q3 values share one ``_beam_matrices`` call and one minimizer call.
    """
    fixed = fixed or FixedParams()
    q3 = np.array([float(v) for v in q3_values])
    inv_theta = [evaluate_fit(left if v <= BRANCH_SPLIT else right, v) for v in q3.tolist()]
    res = _elliptic_minima(q3, _beam_matrices(fixed, q3), inv_theta)
    rows = zip(q3.tolist(), res.prob_a.tolist(), res.prob_b.tolist(), res.alpha.tolist(), res.phi.tolist())
    return [ProbabilityPoint(*row, status=_CONVERGED) for row in rows]

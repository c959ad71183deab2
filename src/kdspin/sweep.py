"""Parameter-space studies: contrast maps, minimum-locus extraction and fits.

A sweep evaluates the spin matrix and its minimized contrast on a regular
grid over one of the supported axis pairs.  The minimum locus traces, for
each transverse momentum q3, the inverse ellipticity 1/theta at which the
contrast valley bottoms out (coarse scan plus golden-section refinement).
The locus is fitted per branch by damped Gauss-Newton least squares against
1/theta = c1 + c2 sqrt((q3 - q0)^2 + c3) with q0 = 0 on the left branch and
q0 = 1 on the right.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .compton import (
    PolarizationPair,
    compton_tensor,
    contract_polarization,
    elliptic_polarization,
    spin_matrix,
)
from .contrast import ContrastResult, minimize_contrast
from .kinematics import ScatterConfig

SUPPORTED_AXES = (("q2", "q3"), ("q3", "theta"), ("q3", "inv_theta"))

#: branch split of the two-piece locus fit
BRANCH_SPLIT = 0.9

#: golden-section tolerance on the refined 1/theta
LOCUS_TOLERANCE = 1e-4

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


def _resolve_point(spec: GridSpec, x: float, y: float) -> tuple[ScatterConfig, PolarizationPair]:
    fixed = spec.fixed
    axes = (spec.x_name, spec.y_name)
    if axes == ("q2", "q3"):
        cfg = ScatterConfig(q_l=fixed.q_l, q2=x, q3=y)
        pol = fixed.pol if fixed.pol is not None else elliptic_polarization(fixed.theta)
    elif axes == ("q3", "theta"):
        cfg = ScatterConfig(q_l=fixed.q_l, q2=fixed.q2, q3=x)
        pol = elliptic_polarization(y)
    else:  # ("q3", "inv_theta")
        cfg = ScatterConfig(q_l=fixed.q_l, q2=fixed.q2, q3=x)
        pol = elliptic_polarization(1.0 / y)
    return cfg, pol


def _point_record(spec: GridSpec, x: float, y: float) -> tuple:
    try:
        cfg, pol = _resolve_point(spec, x, y)
        res = minimize_contrast(spin_matrix(cfg, pol))
        return (res.value, res.alpha, res.phi, res.prob_a, res.prob_b, res.status.value)
    except (ValueError, ZeroDivisionError) as exc:  # record, never abort the sweep
        return (math.nan, math.nan, math.nan, math.nan, math.nan, f"failed_{type(exc).__name__}")


def _sweep_row(args: tuple[GridSpec, np.ndarray, float]) -> list[tuple]:
    spec, xs, y = args
    return [_point_record(spec, float(x), y) for x in xs]


def run_sweep(spec: GridSpec, workers: int = 1) -> SweepTile:
    """Evaluate contrast minimization on every grid point of ``spec``.

    Rows (fixed y) are independent work items; with ``workers`` > 1 they are
    dispatched to a process pool and reassembled in index order, so the tile
    is bit-identical for any worker count.
    """
    xs = np.linspace(spec.x_range[0], spec.x_range[1], spec.nx)
    ys = np.linspace(spec.y_range[0], spec.y_range[1], spec.ny)
    tasks = [(spec, xs, float(y)) for y in ys]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(task) for task in tasks]

    def collect(index: int, dtype=float) -> np.ndarray:
        return np.array([[rec[index] for rec in row] for row in rows], dtype=dtype)

    return SweepTile(
        spec=spec,
        x=xs,
        y=ys,
        contrast=collect(0),
        alpha=collect(1),
        phi=collect(2),
        prob_a=collect(3),
        prob_b=collect(4),
        status=collect(5, dtype=object),
    )


def _golden_section(func, lo: float, hi: float, tol: float) -> float:
    """Midpoint of the golden-section bracket of a unimodal minimum."""
    span = hi - lo
    c = hi - _INV_GOLDEN * span
    d = lo + _INV_GOLDEN * span
    fc, fd = func(c), func(d)
    while (hi - lo) > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_GOLDEN * (hi - lo)
            fc = func(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_GOLDEN * (hi - lo)
            fd = func(d)
    return 0.5 * (lo + hi)


def minimum_locus(
    q3_values,
    inv_theta_range: tuple[float, float] = (1.0, 100.0),
    inv_theta_points: int = 400,
    fixed: FixedParams | None = None,
    tol: float = LOCUS_TOLERANCE,
) -> list[LocusPoint]:
    """Trace the contrast minimum over 1/theta for each q3 (q2 held fixed).

    Each q3 reuses a single amplitude tensor; only the polarization
    contraction and the contrast minimization vary along the 1/theta scan.
    Points whose coarse minimum lands on the scan boundary cannot be
    bracketed and are flagged with ``bracketed=False`` and NaN results.
    """
    fixed = fixed or FixedParams()
    grid = np.linspace(inv_theta_range[0], inv_theta_range[1], inv_theta_points)
    points: list[LocusPoint] = []
    for q3 in q3_values:
        q3 = float(q3)
        tensor = compton_tensor(ScatterConfig(q_l=fixed.q_l, q2=fixed.q2, q3=q3))

        def minimize_at(inv_theta: float) -> ContrastResult:
            pol = elliptic_polarization(1.0 / inv_theta)
            return minimize_contrast(contract_polarization(tensor, pol))

        coarse = np.array([minimize_at(v).value for v in grid])
        idx = int(np.argmin(coarse))
        if idx == 0 or idx == len(grid) - 1:
            points.append(
                LocusPoint(
                    q3=q3,
                    inv_theta=math.nan,
                    alpha=math.nan,
                    phi=math.nan,
                    prob_a=math.nan,
                    prob_b=math.nan,
                    bracketed=False,
                    status="unbracketed",
                )
            )
            continue
        refined = _golden_section(
            lambda v: minimize_at(v).value, float(grid[idx - 1]), float(grid[idx + 1]), tol
        )
        res = minimize_at(refined)
        points.append(
            LocusPoint(
                q3=q3,
                inv_theta=refined,
                alpha=res.alpha,
                phi=res.phi,
                prob_a=res.prob_a,
                prob_b=res.prob_b,
                bracketed=True,
                status=res.status.value,
            )
        )
    return points


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
    for initialization.  The Jacobian uses central differences with relative
    step 1e-6; steps are halved until the residual improves.
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
        jac = np.empty((len(q3), 3))
        for j in range(3):
            h = 1e-6 * max(abs(params[j]), 1e-12)
            upper, lower = params.copy(), params.copy()
            upper[j] += h
            lower[j] -= h
            r_up, r_dn = residual(upper), residual(lower)
            if r_up is None or r_dn is None:
                h = 0.49 * params[2]
                upper, lower = params.copy(), params.copy()
                upper[j] += h
                lower[j] -= h
                r_up, r_dn = residual(upper), residual(lower)
            jac[:, j] = (r_up - r_dn) / (2.0 * h)
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

    ``locus`` is a sequence of (q3, inv_theta) pairs covering [0, 1].  Each
    branch needs at least 4 points to overdetermine its 3 parameters;
    around 30 per branch is needed for coefficients stable at the few
    percent level.
    """
    data = np.asarray([(float(a), float(b)) for a, b in locus])
    if data.size == 0:
        raise ValueError("empty locus")
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
    """Evaluate |M psi_A|^2, |M psi_B|^2 and the optimal angles along the fit."""
    fixed = fixed or FixedParams()
    records: list[ProbabilityPoint] = []
    for q3 in q3_values:
        q3 = float(q3)
        model = left if q3 <= BRANCH_SPLIT else right
        inv_theta = evaluate_fit(model, q3)
        cfg = ScatterConfig(q_l=fixed.q_l, q2=fixed.q2, q3=q3)
        res = minimize_contrast(spin_matrix(cfg, elliptic_polarization(1.0 / inv_theta)))
        records.append(
            ProbabilityPoint(
                q3=q3,
                prob_a=res.prob_a,
                prob_b=res.prob_b,
                alpha=res.alpha,
                phi=res.phi,
                status=res.status.value,
            )
        )
    return records

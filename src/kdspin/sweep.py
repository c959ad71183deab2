"""Parameter-space studies: contrast maps, minimum-locus extraction and fits.

A sweep evaluates the spin matrix and its minimized contrast on a regular
grid over one of the supported axis pairs, in one process: for chunks of whole
grid rows the beam pair's eight floats (a fixed pair's, or the elliptic pair's
from ``compton._elliptic_parts``) go into the kernel, and its eight real parts
straight into the minimizer's closed form, broadcast over rows and columns; a
point they leave NaN is named after the exception the scalar forms raise for it.
The minimum locus traces, for each transverse momentum q3, the inverse
ellipticity 1/theta at which the contrast valley bottoms out: an elementary
function of (q_l, q2, q3), tan^2(theta) = det M_y / det M_z (see
``compton._locus_inv_theta``, beside the kernel whose coefficients it reads).
Each locus point is then evaluated as the ``point`` command evaluates one, at
theta = 1/inv_theta: one kernel row per q3 and the minimizer.  A single q3 of
``minimum_locus`` runs on Python floats from its 1/theta to its ``LocusPoint``,
with no array built; more q3 run as arrays.  The locus is fitted per branch by
least squares against 1/theta = c1 + c2 sqrt((q3 - q0)^2 + c3), with q0 = 0 on
the left branch and q0 = 1 on the right, by variable projection: (c1, c2) are
linear for fixed c3, so the fit is a one-dimensional problem in c3.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .compton import PolarizationPair, _elliptic_parts, _kernel, _locus_inv_theta
from .contrast import NewtonStatus, _closed_form
from .kinematics import ScatterConfig

SUPPORTED_AXES = (("q2", "q3"), ("q3", "theta"), ("q3", "inv_theta"))

#: branch split of the two-piece locus fit
BRANCH_SPLIT = 0.9

#: points per batched chunk of a sweep (whole rows, at least one)
SWEEP_CHUNK_POINTS = 4096

_CONVERGED = NewtonStatus.CONVERGED_GRADIENT.value

#: q0 of each branch of the fit c1 + c2 sqrt((q3 - q0)^2 + c3)
_BRANCH_OFFSET = {"left": 0.0, "right": 1.0}


class FixedParams(NamedTuple):
    """Values held constant over a sweep (q3 is an axis of every supported pair).
    ``theta``, or ``pol`` with theta at its default, sets the beams of a q2,q3 grid only; the
    locus, which is defined on the elliptic beam and sets theta itself, rejects ``pol`` and any
    theta but the default."""

    q_l: float = 0.02
    q2: float = 0.0
    theta: float = math.pi / 4.0
    pol: PolarizationPair | None = None


class GridSpec(namedtuple("GridSpec", "x_name y_name x_range y_range nx ny fixed")):
    """Regular evaluation grid over one supported axis pair.  Its axes set q2 on a q2,q3 grid and
    theta on the others, and a fixed beam pair sets the left beam, so ``fixed`` must leave each
    value that one of them sets at its default."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace, which calls it, validates too

    def __new__(cls, x_name: str, y_name: str, x_range: tuple[float, float], y_range: tuple[float, float],
                nx: int, ny: int, fixed: FixedParams = FixedParams()):
        self = tuple.__new__(cls, (x_name, y_name, x_range, y_range, nx, ny, fixed))
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
        unread = "q2" if self.y_name == "q3" else "theta"  # the axes set it; the default passes
        if (value := getattr(self.fixed, unread)) != FixedParams._field_defaults[unread]:
            raise ValueError(f"a {self.x_name},{self.y_name} grid sets {unread} itself: a fixed {unread}={value!r} "
                             "would go unread")
        if self.fixed.pol is not None and self.y_name != "q3":
            raise ValueError(f"a fixed beam pair applies only to a q2,q3 grid; on a {self.x_name},{self.y_name} "
                             "grid the y axis sets the left beam")
        if self.fixed.pol is not None and (value := self.fixed.theta) != FixedParams._field_defaults["theta"]:
            raise ValueError(f"a fixed beam pair sets the left beam itself: a fixed theta={value!r} would go unread")
        if not (self.x_range[0] < self.x_range[1] and self.y_range[0] < self.y_range[1]):
            raise ValueError("axis ranges must be nondegenerate increasing intervals")
        return self


class SweepTile(NamedTuple):
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


class LocusPoint(NamedTuple):
    """Contrast minimum over the Bloch angles of the elliptic beam at (q3, inv_theta), with
    its optimal angles and probabilities prob_a = |M psi_A|^2, prob_b = |M psi_B|^2.  On the
    minimum locus inv_theta is the minimum over 1/theta; along a fit it is the fit's value.
    Every field is the ``point`` command's at theta = 1/inv_theta, bit for bit.  A point is
    unbracketed only where its minimum lies outside the 1/theta range, and then has NaN in
    every float field but q3."""

    q3: float
    inv_theta: float
    alpha: float
    phi: float
    prob_a: float
    prob_b: float
    bracketed: bool
    status: str


class FitModel(namedtuple("FitModel", "branch params domain")):
    """One branch of the locus fit 1/theta(q3) = p0 + p1 sqrt((q3 - q0)^2 + p2), with q0 = 0
    on the ``"left"`` branch and 1 on the ``"right"``; any other branch raises ValueError."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace, which calls it, validates too

    def __new__(cls, branch: str, params: np.ndarray, domain: tuple[float, float]):
        if branch not in _BRANCH_OFFSET:
            raise ValueError(f"branch must be 'left' or 'right', got {branch!r}")
        return tuple.__new__(cls, (branch, params, domain))


class FitConvergenceError(RuntimeError):
    """Raised when a fit branch degenerates: its c3 runs to an end of the
    [1e-8, 10] grid, or its c3 profile has no bracketed minimum."""


def _batch_rows(spec: GridSpec, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(5, len(ys), len(xs)) contrast, alpha, phi, prob_A, prob_B of whole grid rows at a finite q_l > 0 (as
    ``run_sweep`` and ``GridSpec`` check), from the kernel's parts straight into the closed form, broadcast
    over (row, column): the eight floats of one pair on a q2,q3 grid, a fixed or the elliptic one, else of each
    row's elliptic pair at a float64 q2 (an int's arithmetic would round otherwise).  NaN where a beam is not
    finite (1/theta at 0 or overflowing) or ``minimize_contrast`` rejects a matrix."""
    fixed, column = spec.fixed, ys[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # 1/theta at 0 gives NaN beams
        if spec.x_name == "q2":
            q2, q3 = xs, column
            beams = fixed.pol._parts if fixed.pol is not None else _elliptic_parts(float(fixed.theta))
        else:
            theta = column if spec.y_name == "theta" else 1.0 / column
            q2, q3, beams = np.float64(fixed.q2), xs, _elliptic_parts(theta)
        _, ok, *fields = _closed_form(_kernel(fixed.q_l, q2, q3, *beams))
    return np.where(ok, fields, math.nan)


def run_sweep(spec: GridSpec, workers: int = 1) -> SweepTile:
    """Evaluate contrast minimization on every grid point of ``spec``.

    Chunks of whole rows (fixed y) go through ``_batch_rows`` in this process:
    the arithmetic of ``spin_matrix_batch`` and ``minimize_contrast_batch``
    without their complex stack.  Each point's result is independent of the
    chunk it lands in, so the tile is bit-identical for any chunking.  A point
    the batch leaves NaN gets the status of the exception the scalar forms
    raise for it: ``failed_ZeroDivisionError`` on an ``inv_theta`` row at 0
    when q_l > 0, ``failed_ValueError`` for every other NaN point (q_l <= 0,
    a dark beam, an overflowing matrix or 1/theta).  ``workers`` is accepted
    for compatibility and has no effect.
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
    return SweepTile(spec, xs, ys, *fields, status=status)  # fields: contrast, alpha, phi, prob_a, prob_b


def _locus_entry(fixed: FixedParams | None, q3_values) -> tuple[float, float, list[float]]:
    """The checked entry of the locus: q_l and q2 of ``fixed`` (``FixedParams()`` if None) as floats, and
    ``q3_values`` as a list of floats.  Raises ValueError for a fixed beam pair or a theta other than the
    default (the locus is defined on the elliptic beam and sets theta itself, so either would go unread), and
    for a non-finite q_l, q2 or q3.
    """
    fixed = fixed or FixedParams()
    if fixed.pol is not None:
        raise ValueError("the locus is defined on the elliptic beam: a fixed beam pair would go unread")
    if fixed.theta != FixedParams._field_defaults["theta"]:
        raise ValueError(f"the locus sets theta itself: a fixed theta={fixed.theta!r} would go unread")
    ScatterConfig(q_l=fixed.q_l, q2=fixed.q2)  # rejects a non-finite q_l or q2
    q3 = [float(v) for v in q3_values]
    if not all(map(math.isfinite, q3)):
        raise ValueError(f"q3 must be finite, got {next(v for v in q3 if not math.isfinite(v))!r}")
    return float(fixed.q_l), float(fixed.q2), q3


def minimum_locus(
    q3_values,
    inv_theta_range: tuple[float, float] = (1.0, 100.0),
    inv_theta_points: int = 400,
    fixed: FixedParams | None = None,
) -> list[LocusPoint]:
    """Trace the contrast minimum over 1/theta for each q3 (q2 held fixed).

    Every locus point is the elementary closed form of ``_locus_inv_theta`` (a zero of the
    contrast at q2 = 0, and at q3 = 0 for any q2), with the minimizer's Bloch angles and
    probabilities there, evaluated as the ``point`` command evaluates the elliptic beam at
    theta = 1 / inv_theta: one kernel row per q3, then the minimizer.  For q_l > 0 every q3 has
    a minimum; a q3 whose minimum lies outside the open ``inv_theta_range``, where the contrast
    falls toward an end of the range, is flagged with ``bracketed=False`` and NaN results, and
    raises nothing.  A point's result does not depend on the other q3 values requested with it.
    ``inv_theta_points`` is accepted and validated for compatibility and has no effect.

    Raises ValueError unless 0 < low < high are finite and ``inv_theta_points`` is at least 3,
    for a fixed beam pair or theta in ``fixed``, a non-finite q_l, q2 or q3, a q3 whose spin
    matrices are not finite, and a bracketed q3 whose matrix has no minimum.
    """
    lo, hi = (float(v) for v in inv_theta_range)
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
        raise ValueError(f"1/theta range must satisfy 0 < low < high, got {inv_theta_range!r}")
    if inv_theta_points < 3:
        raise ValueError(f"inv_theta_points must be at least 3, got {inv_theta_points!r}")
    q_l, q2, q3 = _locus_entry(fixed, q3_values)
    if len(q3) == 1:  # one q3 runs on Python floats, to the bits of its batch row
        inv_theta = _locus_inv_theta(q_l, q2, q3 := q3[0])
    else:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # NaN where a square overflows
            inv_theta = _locus_inv_theta(q_l, q2, q3 := np.array(q3))
    return _locus_points(q_l, q2, q3, inv_theta, (inv_theta > lo) & (inv_theta < hi))


def _locus_points(q_l: float, q2: float, q3, inv_theta, bracketed) -> list[LocusPoint]:
    """One ``LocusPoint`` per q3: the contrast minimum over the Bloch angles of the elliptic beam at theta
    = 1 / inv_theta (its pair's floats, one kernel row, the minimizer's closed form), with NaN results where
    ``bracketed`` is False.  A float q3, from ``minimum_locus`` with a 1/theta inside its range above 0 or
    NaN, runs on Python floats, an (N,) array as arrays.  Raises ``_no_minimum``'s ValueError at a point
    with no minimum that is bracketed or has a NaN 1/theta."""
    if isinstance(q3, float):
        if not (bracketed or math.isnan(inv_theta)):
            return [LocusPoint(q3, *[math.nan] * 5, False, "unbracketed")]
        scale, ok, *fields = _closed_form(_kernel(q_l, q2, q3, *_elliptic_parts(1.0 / inv_theta)))
        if not ok:
            raise _no_minimum(q3, inv_theta, math.isfinite(scale))
        return [LocusPoint(q3, inv_theta, *fields[1:], True, _CONVERGED)]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # 1/theta = 0: no angle, a NaN beam
        theta = 1.0 / inv_theta
        scale, ok, *fields = _closed_form(_kernel(q_l, q2, q3, *_elliptic_parts(theta)))
    failed = np.flatnonzero(~ok & (bracketed | np.isnan(inv_theta)))
    if failed.size:
        i = failed[0]
        raise _no_minimum(float(q3[i]), float(inv_theta[i]), bool(np.isinf(theta[i]) or np.isfinite(scale[i])))
    fields = np.where(bracketed, (inv_theta, *fields[1:]), math.nan)
    rows = zip(q3.tolist(), *fields.tolist(), bracketed.tolist())
    return [LocusPoint(*row, status=_CONVERGED if row[-1] else "unbracketed") for row in rows]


def _no_minimum(q3: float, inv_theta: float, finite: bool) -> ValueError:
    """The error of a locus point with no minimum: its 1/theta where its matrix is finite or
    1/theta = 0 gives no angle, else that its spin matrices are not finite."""
    if finite:
        return ValueError(f"no contrast minimum at q3={q3!r}, 1/theta={inv_theta!r}")
    return ValueError(f"no contrast minimum at q3={q3!r}: its spin matrices are not finite")


def evaluate_fit(model: FitModel, q3: float) -> float:
    """Closed-form evaluation of one fitted branch at q3 (domain enforced)."""
    lo, hi = model.domain
    if not (lo - 1e-12 <= q3 <= hi + 1e-12):
        raise ValueError(f"q3={q3!r} outside fit domain [{lo}, {hi}]")
    c1, c2, c3 = model.params
    x = q3 - _BRANCH_OFFSET[model.branch]  # squared as the fit squares it: x ** 2 calls libm pow, which can be an ulp off
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
    x = q3 - _BRANCH_OFFSET[branch]
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
    pairs = [(float(a), float(b)) for a, b in locus]  # checked before any array is built
    if not pairs:
        raise ValueError("empty locus")
    for q, _ in pairs:
        if not -1e-12 <= q <= 1.0 + 1e-12:  # NaN included
            raise ValueError(f"q3={q!r} outside fit domain [0, 1]")
    finite = [(q, v) for q, v in pairs if math.isfinite(v)]
    left = [p for p in finite if p[0] <= BRANCH_SPLIT + 1e-12]
    right = [p for p in finite if p[0] >= BRANCH_SPLIT - 1e-12]
    distinct = [len({q for q, _ in branch}) for branch in (left, right)]  # -0.0 == 0.0
    if min(distinct) < 4:
        raise ValueError(f"need at least 4 distinct q3 per branch, got {distinct[0]} left / {distinct[1]} right")
    return (_fit_branch(*np.array(left).T, "left", (0.0, BRANCH_SPLIT)),
            _fit_branch(*np.array(right).T, "right", (BRANCH_SPLIT, 1.0)))


def locus_probabilities(
    left: FitModel,
    right: FitModel,
    q3_values,
    fixed: FixedParams | None = None,
) -> list[LocusPoint]:
    """``LocusPoint``s along the fit: at each q3, 1/theta from the branch that covers it
    (``left`` up to ``BRANCH_SPLIT``), with |M psi_A|^2, |M psi_B|^2 and the optimal
    angles there.  Every point is bracketed.

    All q3 values share one kernel call and one minimizer call, as in ``minimum_locus``.
    Raises ValueError as ``minimum_locus`` does for ``fixed`` and q3, for a q3 outside its
    branch's domain, and at a point with no minimum, as where the fit gives 1/theta = 0.
    """
    q_l, q2, q3 = _locus_entry(fixed, q3_values)
    inv_theta = np.array([evaluate_fit(left if v <= BRANCH_SPLIT else right, v) for v in q3])
    return _locus_points(q_l, q2, np.array(q3), inv_theta, np.full(len(q3), True))

import cmath
import math
from decimal import Decimal, localcontext

import decimal_kernel
import numpy as np
import pytest

from kdspin import sweep
from kdspin.compton import (
    PolarizationPair,
    _kernel,
    compton_tensor,
    contract_polarization,
    elliptic_left,
    elliptic_polarization,
    spin_matrix,
    spin_matrix_batch,
)
from kdspin.contrast import _fold, minimize_contrast, minimize_contrast_batch
from kdspin.kinematics import ScatterConfig
from kdspin.sweep import (
    FitConvergenceError,
    FitModel,
    FixedParams,
    GridSpec,
    evaluate_fit,
    fit_locus,
    locus_probabilities,
    minimum_locus,
    run_sweep,
)

PAPER_LEFT = np.array([96.71, -85.10, 0.2996])
PAPER_RIGHT = np.array([0.02771, 70.41, 3.137e-4])


def left_model(params):
    return FitModel(branch="left", params=np.asarray(params, dtype=float), domain=(0.0, 0.9))


def right_model(params):
    return FitModel(branch="right", params=np.asarray(params, dtype=float), domain=(0.9, 1.0))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec("q2", "theta", (0, 1), (0, 1), 5, 5)
    with pytest.raises(ValueError):
        GridSpec("q2", "q3", (0, 1), (0, 1), 1, 5)
    with pytest.raises(ValueError):
        GridSpec("q2", "q3", (1, 0), (0, 1), 5, 5)
    for x_range, y_range in (((0, math.inf), (0, 1)), ((0, 1), (math.nan, 1)), ((-1e308, 1e308), (0, 1))):
        with pytest.raises(ValueError, match="finite"):
            GridSpec("q2", "q3", x_range, y_range, 5, 5)
    for name in ("q_l", "q2", "theta"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            GridSpec("q3", "theta", (0, 1), (0, 1), 5, 5, fixed=FixedParams(**{name: math.nan}))
    # on a theta axis the y value sets the left beam: a fixed pair would go unread
    with pytest.raises(ValueError, match="only to a q2,q3 grid"):
        GridSpec("q3", "theta", (0, 1), (0, 1), 5, 5, fixed=FixedParams(pol=elliptic_polarization(0.3)))


def test_grid_spec_rejects_a_fixed_value_its_axes_set():
    # the axes set q2 on a q2,q3 grid and theta on the others; the default passes, as in the locus
    for x_name, y_name, name, value in (("q2", "q3", "q2", 0.7), ("q3", "theta", "theta", 0.3),
                                        ("q3", "inv_theta", "theta", 0.3)):
        message = f"a {x_name},{y_name} grid sets {name} itself: a fixed {name}={value!r} would go unread"
        with pytest.raises(ValueError, match=message):
            GridSpec(x_name, y_name, (0, 1), (1, 2), 3, 3, fixed=FixedParams(**{name: value}))
        GridSpec(x_name, y_name, (0, 1), (1, 2), 3, 3, fixed=FixedParams(**{name: FixedParams._field_defaults[name]}))
    # the value each grid does read stays free
    GridSpec("q2", "q3", (0, 1), (1, 2), 3, 3, fixed=FixedParams(theta=0.3))
    GridSpec("q3", "theta", (0, 1), (1, 2), 3, 3, fixed=FixedParams(q2=0.7))
    # a fixed beam pair sets the left beam on a q2,q3 grid, so a theta beside it would go unread too
    pair = elliptic_polarization(0.7)
    with pytest.raises(ValueError, match="a fixed beam pair sets the left beam itself: a fixed theta=0.3 would go unread"):
        GridSpec("q2", "q3", (0, 1), (1, 2), 3, 3, fixed=FixedParams(theta=0.3, pol=pair))
    GridSpec("q2", "q3", (0, 1), (1, 2), 3, 3, fixed=FixedParams(theta=FixedParams._field_defaults["theta"], pol=pair))


def test_momentum_sweep_around_reference_point():
    spec = GridSpec(
        x_name="q2",
        y_name="q3",
        x_range=(-0.05, 0.05),
        y_range=(0.95, 1.05),
        nx=5,
        ny=5,
        fixed=FixedParams(theta=math.pi / 4.0),
    )
    tile = run_sweep(spec)
    assert tile.contrast.shape == (5, 5)
    assert np.all((tile.contrast >= 0.0) & (tile.contrast <= 1.0))
    # vanishing contrast at the center point (q2, q3) = (0, 1)
    assert tile.contrast[2, 2] < 1e-3
    # the matrix itself stays nonzero: psi_B is still diffracted everywhere
    assert np.all(tile.prob_b > 0.0)


def test_momentum_sweep_around_origin():
    spec = GridSpec(
        x_name="q2",
        y_name="q3",
        x_range=(-0.05, 0.05),
        y_range=(-0.05, 0.05),
        nx=5,
        ny=5,
        fixed=FixedParams(theta=1.0 / 50.0),
    )
    tile = run_sweep(spec)
    assert tile.contrast[2, 2] < 1e-2


def test_sweep_deterministic_across_workers():
    spec = GridSpec(
        x_name="q3",
        y_name="theta",
        x_range=(0.0, 0.5),
        y_range=(0.1, 0.8),
        nx=4,
        ny=3,
    )
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=2)
    for field in ("contrast", "alpha", "phi", "prob_a", "prob_b"):
        assert np.array_equal(getattr(serial, field), getattr(parallel, field))
    assert np.array_equal(serial.status, parallel.status)


def test_sweep_propagates_programming_errors(monkeypatch):
    def broken(parts):
        raise TypeError("not a recordable numeric failure")

    monkeypatch.setattr("kdspin.sweep._closed_form", broken)
    with pytest.raises(TypeError):
        run_sweep(GridSpec("q2", "q3", (-0.01, 0.01), (0.99, 1.01), 2, 2))


@pytest.mark.parametrize(
    "fixed",
    [
        # a dark left beam makes every spin matrix exactly zero
        FixedParams(pol=PolarizationPair(left=np.zeros(3), right=np.array([0.0, 0.0, 1.0]))),
        FixedParams(q_l=-0.02),
    ],
)
def test_sweep_records_failed_points(fixed):
    tile = run_sweep(GridSpec("q2", "q3", (-0.01, 0.01), (0.99, 1.01), 3, 2, fixed=fixed))
    assert list(tile.status.flat) == ["failed_ValueError"] * 6
    assert np.isnan(tile.contrast).all() and np.isnan(tile.prob_b).all()


def scalar_point(spec, x, y):
    """Status and the five result fields (as float.hex) of one grid point from the
    scalar forms: the exception they raise and NaN fields, if they raise."""
    fixed = spec.fixed
    q2, q3 = (x, y) if spec.x_name == "q2" else (fixed.q2, x)
    try:
        cfg = ScatterConfig(q_l=fixed.q_l, q2=q2, q3=q3)
        if spec.y_name == "theta":
            pol = elliptic_polarization(y)
        elif spec.y_name == "inv_theta":
            pol = elliptic_polarization(1.0 / y)
        else:
            pol = fixed.pol or elliptic_polarization(fixed.theta)
        res = minimize_contrast(spin_matrix(cfg, pol))
    except (ValueError, ZeroDivisionError) as exc:
        return f"failed_{type(exc).__name__}", [math.nan.hex()] * 5
    return "converged_gradient", [float(v).hex() for v in (res.value, res.alpha, res.phi, res.prob_a, res.prob_b)]


@pytest.mark.parametrize(
    ("spec", "statuses"),
    [
        # 1/theta = 0 has no beam pair
        (GridSpec("q3", "inv_theta", (0.0, 1.0), (0.0, 50.0), 3, 3), {"failed_ZeroDivisionError", "converged_gradient"}),
        (
            GridSpec(
                "q2", "q3", (-0.01, 0.01), (0.99, 1.01), 3, 2,
                fixed=FixedParams(pol=PolarizationPair(left=np.zeros(3), right=np.array([0.0, 0.0, 1.0]))),
            ),
            {"failed_ValueError"},
        ),
        (GridSpec("q2", "q3", (-0.01, 0.01), (0.99, 1.01), 3, 2, fixed=FixedParams(q_l=-0.02)), {"failed_ValueError"}),
        # every point past q3 = 0 overflows the kernel
        (GridSpec("q3", "theta", (0.0, 1e160), (0.0, 1.5), 5, 3), {"failed_ValueError", "converged_gradient"}),
        # a finite matrix of ~1e198 whose probabilities overflow
        (
            GridSpec(
                "q2", "q3", (-0.01, 0.01), (0.99, 1.01), 3, 2,
                fixed=FixedParams(pol=PolarizationPair(left=np.array([0.0, 1e200, 0.0]), right=np.array([0.0, 0.0, 1.0]))),
            ),
            {"failed_ValueError"},
        ),
        # theta rows at q2 != 0, across theta = 0 and both signs
        (GridSpec("q3", "theta", (0.0, 1.0), (-1.6, 1.6), 9, 17, fixed=FixedParams(q2=0.013)), {"converged_gradient"}),
        (
            GridSpec("q3", "inv_theta", (0.0, 1.0), (-20.0, 20.0), 9, 21, fixed=FixedParams(q2=-0.03)),
            {"failed_ZeroDivisionError", "converged_gradient"},
        ),
        # 1/theta overflows to inf past y = 0: theta is not finite
        (GridSpec("q3", "inv_theta", (0.0, 1.0), (0.0, 1e-310), 3, 3), {"failed_ZeroDivisionError", "failed_ValueError"}),
    ],
)
def test_sweep_status_names_scalar_exception(spec, statuses):
    tile = run_sweep(spec)
    assert set(tile.status.flat) == statuses
    fields = (tile.contrast, tile.alpha, tile.phi, tile.prob_a, tile.prob_b)
    for j, y in enumerate(tile.y.tolist()):
        for i, x in enumerate(tile.x.tolist()):
            status, expected = scalar_point(spec, x, y)
            assert tile.status[j, i] == status
            assert [float(f[j, i]).hex() for f in fields] == expected


TILE_CELL_SPECS = [
    GridSpec("q2", "q3", (-0.3, 0.3), (0.0, 1.2), 21, 19),
    GridSpec("q2", "q3", (-0.3, 0.3), (0.0, 1.2), 21, 19, fixed=FixedParams(theta=-0.3)),  # left z's re is -0.0
    GridSpec("q2", "q3", (-0.3, 0.3), (0.0, 1.2), 21, 19, fixed=FixedParams(q_l=1e-4, pol=PolarizationPair(
        left=np.array([0.0, 0.6 - 0.2j, 1.5j]), right=np.array([0.0, 1.0, 0.5 + 0.5j])))),
    GridSpec("q3", "theta", (0.0, 1.2), (-1.5, 1.5), 21, 19, fixed=FixedParams(q2=0.1)),
    GridSpec("q3", "inv_theta", (0.0, 1.0), (0.0, 100.0), 21, 17, fixed=FixedParams(q_l=1e-3)),
]


@pytest.mark.parametrize("spec", TILE_CELL_SPECS, ids=["q2q3-elliptic", "q2q3-elliptic-negative-theta", "q2q3-fixed-pair",
                                                       "q3-theta", "q3-inv-theta"])
def test_tile_cell_is_the_point_path_for_any_chunking(spec, monkeypatch):
    # every cell has the bits, NaN positions and status of minimize_contrast(spin_matrix(...)) at its
    # point, and the tile keeps its bytes when each chunk holds one row or three
    def fields(tile):
        return np.array([tile.contrast, tile.alpha, tile.phi, tile.prob_a, tile.prob_b])

    tile = run_sweep(spec)
    cells = fields(tile)
    for j, y in enumerate(tile.y.tolist()):
        for i, x in enumerate(tile.x.tolist()):
            assert (tile.status[j, i], [v.hex() for v in cells[:, j, i].tolist()]) == scalar_point(spec, x, y), (x, y)
    for rows in (1, 3):
        monkeypatch.setattr(sweep, "SWEEP_CHUNK_POINTS", rows * spec.nx)
        chunked = run_sweep(spec)
        assert fields(chunked).tobytes() == cells.tobytes()
        assert np.array_equal(chunked.status, tile.status)


def test_refinement_never_raises_minimum():
    fixed = FixedParams(theta=math.pi / 4.0)
    coarse = run_sweep(
        GridSpec("q2", "q3", (-0.02, 0.02), (0.98, 1.02), 3, 3, fixed=fixed)
    )
    fine = run_sweep(
        GridSpec("q2", "q3", (-0.02, 0.02), (0.98, 1.02), 5, 5, fixed=fixed)
    )
    assert fine.contrast.min() <= coarse.contrast.min() + 1e-12


def test_minimum_locus_endpoints():
    points = minimum_locus([1.0, 0.0])
    at_one, at_zero = points[0], points[1]
    assert at_one.bracketed and at_zero.bracketed
    assert at_one.inv_theta == pytest.approx(4.005 / math.pi, rel=0.02)
    assert at_one.alpha == pytest.approx(7.0 * math.pi / 4.0, abs=1e-2)
    assert at_zero.inv_theta == pytest.approx(50.0, abs=1.0)
    assert at_zero.alpha == pytest.approx(1.5 * math.pi, abs=1e-2)
    assert at_zero.phi == 0.0 and at_one.phi == 0.0


def test_minimum_locus_flags_unbracketed():
    points = minimum_locus([0.0], inv_theta_range=(60.0, 100.0), inv_theta_points=50)
    assert not points[0].bracketed
    assert math.isnan(points[0].inv_theta)
    assert points[0].status == "unbracketed"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q_l, q3", [(1e-20, 0.9992), (1e-18, 0.9), (1e-16, 0.5)])
def test_minimum_locus_rounding_dip_is_unbracketed(q_l, q3):
    # the minima of these rows lie near 1/theta ~ 1/q_l, far above the range
    (point,) = minimum_locus([q3], fixed=FixedParams(q_l=q_l))
    assert not point.bracketed and point.status == "unbracketed"
    assert math.isnan(point.inv_theta)


def reference_contrast(fixed, q3):
    """Contrast over 1/theta at one q3 through the tensor path, independent of the kernel."""
    tensor = compton_tensor(ScatterConfig(q_l=fixed.q_l, q2=fixed.q2, q3=q3))

    def value(inv_theta):
        return minimize_contrast(contract_polarization(tensor, elliptic_polarization(1.0 / inv_theta))).value

    return value


def oracle_contrast(fixed, q3, inv_theta):
    """Contrast at one (q3, 1/theta) point from the 50-digit block formula: a reference free
    of the eps/q_l rounding that the tensor path carries at small q_l."""
    pol = elliptic_polarization(1.0 / inv_theta)
    return decimal_kernel.contrast(decimal_kernel.spin_matrix(fixed.q_l, fixed.q2, q3, pol.left, pol.right))


def direct_minima(fixed, q3, inv_theta):
    """Contrast minima through the kernel at each (q3, 1/theta) point."""
    q3, inv_theta = np.broadcast_arrays(np.asarray(q3, dtype=float), np.asarray(inv_theta, dtype=float))
    left = elliptic_left(1.0 / inv_theta)
    return minimize_contrast_batch(
        spin_matrix_batch(fixed.q_l, np.full(q3.shape, fixed.q2), q3, left, np.array([0.0, 0.0, 1.0]))
    )


#: machine epsilon of a double, 2^-52
EPS = float(np.finfo(float).eps)


@pytest.mark.parametrize("spec", [
    pytest.param(GridSpec("q2", "q3", (-0.05, 0.05), (0.95, 1.05), 201, 201), id="readme-q2q3"),
    pytest.param(GridSpec("q3", "inv_theta", (0.0, 1.0), (1.0, 100.0), 101, 199), id="inv_theta-ql0.02"),
    pytest.param(GridSpec("q3", "inv_theta", (0.0, 1.0), (1.0, 100.0), 101, 199, FixedParams(q_l=1e-4)),
                 id="inv_theta-ql1e-4"),
    pytest.param(GridSpec("q3", "theta", (0.0, 1.0), (0.01, 1.5), 101, 199), id="theta"),
])
def test_sweep_contrast_within_stated_bound_of_50_digit_kernel(spec):
    # contrast.py's stated accuracy, |c - c50| <= 12 eps sqrt(c50) + (6 eps)^2 against the exact contrast
    # of the float configuration, at the 20 smallest contrasts of the tile and 200 seeded points; on
    # whole tiles the worst |c - c50| / (eps sqrt(c50)) is 2.9, 3.0, 5.6 and 4.1, half the bound or less
    tile = run_sweep(spec)
    fixed, contrast = spec.fixed, tile.contrast.ravel()
    picks = np.concatenate([np.argsort(contrast)[:20], np.random.default_rng(2907).choice(contrast.size, 200, replace=False)])
    for j, i in zip(*np.unravel_index(picks, tile.contrast.shape)):
        x, y = float(tile.x[i]), float(tile.y[j])
        if spec.x_name == "q2":
            pol = elliptic_polarization(fixed.theta)
            q2, q3, left, right = x, y, pol.left, pol.right
        else:  # the float theta that the sweep takes for its row, and its left beam
            theta = np.array([y]) if spec.y_name == "theta" else 1.0 / np.array([y])
            q2, q3, left, right = fixed.q2, x, elliptic_left(theta)[0], (0.0, 0.0, 1.0)
        exact = decimal_kernel.contrast(decimal_kernel.spin_matrix(fixed.q_l, q2, q3, left, right))
        bound = 12.0 * EPS * math.sqrt(exact) + (6.0 * EPS) ** 2
        assert float(abs(Decimal(float(tile.contrast[j, i])) - exact)) <= bound, (x, y)


def test_minimum_locus_roots_match_reference_path():
    # the default locus-fit grid: each point is a zero of the tensor-built contrast
    fixed = FixedParams()
    for p in minimum_locus(np.linspace(0.0, 1.0, 201)):
        assert p.bracketed
        assert reference_contrast(fixed, p.q3)(p.inv_theta) <= 1e-20


def test_locus_invariants_are_real():
    # the four identities the closed form of the locus rests on, in 50 digits: r = det M_y / det M_z
    # and s = X / det M_z are real, Im tr(M_y^dag M_z) = 0 and ||M_y||_F^2 = r ||M_z||_F^2; and
    # r > 0 with s^2 < 4 r, so that the stationary point w = r is always the minimum
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    tiny = Decimal("1e-40")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.floats(-10.0, math.log10(0.3)), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def check(log_ql, q2, q3):
        r, s, det_z, overlap, norm_y, norm_z = decimal_kernel.locus_invariants(10.0**log_ql, q2, q3)
        with localcontext() as ctx:
            ctx.prec = 2 * decimal_kernel.DIGITS
            size = (norm_y * norm_z).sqrt()
            assert abs(r[1]) <= tiny * abs(r[0])
            assert abs(s[1]) <= tiny * size / decimal_kernel.modulus(det_z)
            assert abs(overlap[1]) <= tiny * size
            assert abs(norm_y - r[0] * norm_z) <= tiny * norm_y
            assert r[0] > 0
            assert s[0] * s[0] < 4 * r[0]

    check()


def elementary_inv_theta(q_l, q2, q3):
    """1/theta of the locus in 50 digits from the elementary closed forms, at q2 = 0 or q3 = 0:
    no spin matrix is formed, so this shares no algebra with the kernel's block formula."""
    assert q2 == 0.0 or q3 == 0.0
    ql, q2, q3 = (Decimal(float(v)) for v in (q_l, q2, q3))
    with localcontext() as ctx:
        ctx.prec = 2 * decimal_kernel.DIGITS
        e = (1 + q2 * q2 + q3 * q3 + ql * ql).sqrt()
        if q2 == 0:
            x = 1 - q3 * q3 + ql * ql / (e + 1)
            v = ql * q3 * (e + 2) / (e + 1)
            tan2 = ql * ql * (1 + q3 * q3) / (x * x + v * v)
        else:
            h = 1 / ((1 + q2 * q2) * (e + 1))
            tan2 = ql * ql / ((1 + q2 * q2) * ((1 + ql * ql * h) ** 2 + (ql * q2 * e * h) ** 2))
        return float(1 / decimal_kernel.atan(tan2.sqrt()))


def test_minimum_locus_matches_elementary_closed_forms():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    wide = (1.0, 1e10)  # 1/theta runs from 4/pi to about sqrt(1 + q2^2) / q_l: nothing is filtered out

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.floats(-8.0, -1.0), st.floats(0.0, 1.0), st.floats(-2.0, 2.0))
    def check(log_ql, q3, q2):
        q_l = 10.0**log_ql
        for q2, q3 in ((0.0, q3), (q2, 0.0)):
            (point,) = minimum_locus([q3], inv_theta_range=wide, fixed=FixedParams(q_l=q_l, q2=q2))
            expected = elementary_inv_theta(q_l, q2, q3)
            assert point.bracketed
            assert abs(point.inv_theta - expected) <= 1e-15 * expected

    check()


def oracle_locus(q_l, q2, q3, inv_theta_range=(1.0, 100.0)):
    """(bracketed, 1/theta) of the locus point at q3 in 50 digits: bracketed exactly when r > 0,
    s^2 < 4 r and 1/theta = 1/atan(sqrt(r)) lies inside the range."""
    r, s, *_ = decimal_kernel.locus_invariants(q_l, q2, q3)
    if not (r[0] > 0 and s[0] * s[0] < 4 * r[0]):
        return False, math.nan
    inv_theta = 1 / decimal_kernel.atan(r[0].sqrt())
    return inv_theta_range[0] < inv_theta < inv_theta_range[1], float(inv_theta)


@pytest.mark.parametrize("q2", [0.0, 0.01, 0.05, 0.3])
@pytest.mark.parametrize("q_l", [0.02, 1e-4, 1e-8, 1e-12])
def test_minimum_locus_matches_50_digit_oracle(q_l, q2):
    for p in minimum_locus(np.linspace(0.0, 1.0, 41), fixed=FixedParams(q_l=q_l, q2=q2)):
        bracketed, inv_theta = oracle_locus(q_l, q2, p.q3)
        assert p.bracketed == bracketed, p.q3
        if bracketed:
            assert abs(p.inv_theta - inv_theta) <= 1e-15 * inv_theta


#: a 1/theta range that holds every minimum of the tested domains: 1/theta runs from 2/pi
#: to about sqrt(1 + q2^2) / q_l
WIDE = (0.5, 1e30)


def test_minimum_locus_brackets_no_rounding_minimum():
    # at these q_l the valley at q2 != 0 is ~q_l^2 deep, far below rounding of the spin matrix,
    # yet the closed form keeps its digits: a point is bracketed exactly where the 110-digit
    # elementary locus lies inside the range, and is within 1e-15 of it there
    q3 = np.linspace(0.0, 1.0, 41)
    for q_l in (1e-16, 1e-20):
        bracketed = 0
        for q2 in (0.0, 0.01, 0.05, 0.3):
            for p in minimum_locus(q3, fixed=FixedParams(q_l=q_l, q2=q2)):
                inv_theta = decimal_kernel.locus_inv_theta(q_l, q2, p.q3)
                assert p.bracketed == (1 < inv_theta < 100), (q_l, q2, p.q3)
                if p.bracketed:
                    assert abs(Decimal(p.inv_theta) - inv_theta) <= Decimal(1e-15) * inv_theta, (q_l, q2, p.q3)
                    bracketed += 1
        assert bracketed >= 60, q_l  # most of the q2 != 0 rows, and q3 = 1


def test_minimum_locus_matches_elementary_oracle():
    # the closed form against itself in 110 digits over the whole domain, and against the
    # 50-digit spin matrices' 1/atan(sqrt(det M_y / det M_z)) where 50 digits suffice
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.floats(-20.0, -1.0), st.floats(-2.0, 2.0), st.floats(0.0, 2.0))
    def check(log_ql, q2, q3):
        q_l = 10.0**log_ql
        (point,) = minimum_locus([q3], inv_theta_range=WIDE, fixed=FixedParams(q_l=q_l, q2=q2))
        expected = decimal_kernel.locus_inv_theta(q_l, q2, q3)
        assert point.bracketed
        assert abs(Decimal(point.inv_theta) - expected) <= Decimal(1e-15) * expected
        if q_l >= 1e-12:
            r = decimal_kernel.locus_invariants(q_l, q2, q3)[0][0]
            assert abs(point.inv_theta - float(1 / decimal_kernel.atan(r.sqrt()))) <= 1e-15 * point.inv_theta

    check()


def test_minimum_locus_takes_root_at_zero_q2():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # the range holds every root of this domain (1/theta from 4/pi to ~1/q_l)
    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.floats(1e-3, 0.05), st.floats(0.0, 1.05))
    def check(q_l, q3):
        fixed = FixedParams(q_l=q_l)
        (point,) = minimum_locus([q3], inv_theta_range=(1.0, 1e4), fixed=fixed)
        assert point.bracketed
        assert oracle_contrast(fixed, q3, point.inv_theta) <= 1e-20

    check()


@pytest.mark.parametrize("q_l", [0.02, 1e-4])
@pytest.mark.parametrize("q2", [0.01, 0.05, 0.3])
def test_minimum_locus_beats_grid_where_cross_term_survives(q2, q_l):
    # no 1/theta of a fine log-spaced grid has a lower contrast than a bracketed point, and the
    # contrast of an unbracketed point falls toward an end of the range
    fixed = FixedParams(q_l=q_l, q2=q2)
    grid = np.geomspace(1.0, 100.0, 2001)
    for p in minimum_locus(np.linspace(0.0, 1.0, 201), fixed=fixed):
        values = direct_minima(fixed, p.q3, grid).value
        if not p.bracketed:
            assert np.argmin(values) in (0, len(grid) - 1), p.q3
            continue
        direct = direct_minima(fixed, p.q3, [p.inv_theta])
        assert direct.value[0] <= values.min() * (1.0 + 1e-12), p.q3
        # the locus point is the kernel's at the reported 1/theta
        assert abs(p.alpha - direct.alpha[0]) <= 1e-12 and abs(p.phi - direct.phi[0]) <= 1e-12
        assert abs(p.prob_a - direct.prob_a[0]) <= 1e-12 * direct.prob_b[0]
        assert abs(p.prob_b - direct.prob_b[0]) <= 1e-12 * direct.prob_b[0]


def test_minimum_locus_names_q3_whose_matrices_overflow():
    # the kernel overflows at q3 = 1e160; the error names that q3 among finite ones
    q3 = np.linspace(0.0, 1.0, 41).tolist()
    with pytest.raises(ValueError, match=r"q3=1e\+160"):
        minimum_locus(q3[:13] + [1e160] + q3[13:], fixed=FixedParams(q2=0.01))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q_l, q3", [(1e100, 0.5), (1e150, 0.5), (1e-160, 1.0)])
def test_minimum_locus_extreme_momentum_keeps_its_minimum(q_l, q3):
    # M_y and M_z are scaled by powers of two before any product, so none overflows or underflows
    (point,) = minimum_locus([q3], fixed=FixedParams(q_l=q_l))
    assert point.bracketed
    assert abs(point.inv_theta - 4.0 / math.pi) <= 1e-15 * 4.0 / math.pi


@pytest.mark.parametrize("q_l", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_minimum_locus_is_four_over_pi_at_unit_q3(q_l):
    # exact at every q_l > 0: at q2 = 0, q3 = 1, tan^2(theta*) = 2 (E + 1)^2 / ((E + 2)^2 + q_l^2) with
    # E^2 = 2 + q_l^2, and both sides are 6 + 2 q_l^2 + 4 E, so tan(theta*) = 1; on one q3's float path
    # and on q3 = 1 inside a batch's array path
    (alone,) = minimum_locus([1.0], fixed=FixedParams(q_l=q_l))
    in_batch = minimum_locus([0.0, 0.5, 1.0, 1.5], fixed=FixedParams(q_l=q_l))[2]
    for point in (alone, in_batch):
        assert point.q3 == 1.0 and point.bracketed
        assert abs(point.inv_theta - 4.0 / math.pi) <= 1e-15 * 4.0 / math.pi, point


def _locus_both_paths(q3, q_l):
    """``minimum_locus`` at q2 = 0 over a 1/theta range that holds every minimum: the array path on all of
    ``q3``, then the float path on each q3 alone."""
    bounds, fixed = (1e-3, 1e300), FixedParams(q_l=q_l)
    return [*minimum_locus(q3, inv_theta_range=bounds, fixed=fixed),
            *(minimum_locus([v], inv_theta_range=bounds, fixed=fixed)[0] for v in q3)]


@pytest.mark.parametrize("q_l", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_minimum_locus_small_q_l_limits(q_l):
    # at q2 = 0, tan^2(theta*) = q_l^2 (1 + q3^2) / (x^2 + v^2), x = 1 - q3^2 + q_l^2 / (E + 1), v = q_l q3
    # (E + 2) / (E + 1) (``_locus_inv_theta``), so
    # - outer, q3 away from 1: q_l / tan(theta*) -> |1 - q3^2| / sqrt(1 + q3^2), relative gap about
    #   x's shift over 1 - q3^2 plus v^2 / (2 (1 - q3^2)^2): at most 2.5 q_l^2 / (1 - q3^2)^2, measured;
    # - inner, |q3 - 1| <= 5 q_l: tan(theta*) -> q_l / (sqrt(2) sqrt((q3 - 1)^2 + q_l^2 / 2)), the right
    #   branch's hyperbola in cot(theta*), relative gap at most 3.2 q_l^2, measured.
    # Bounds: 4 q_l^2 / (1 - q3^2)^2 and 5 q_l^2, plus rounding (at most 12 eps measured, at q_l = 1e-8)
    outer = np.concatenate([np.linspace(0.0, 0.9, 10), np.linspace(1.1, 2.0, 10)])
    for p in _locus_both_paths(outer, q_l):
        limit = abs(1.0 - p.q3 * p.q3) / math.sqrt(1.0 + p.q3 * p.q3)
        gap = abs(q_l / math.tan(1.0 / p.inv_theta) / limit - 1.0)
        assert p.bracketed and gap <= 4.0 * q_l**2 / (1.0 - p.q3 * p.q3) ** 2 + 32.0 * EPS, (p, gap)
    for p in _locus_both_paths(1.0 + np.linspace(-5.0, 5.0, 11) * q_l, q_l):
        d = p.q3 - 1.0  # exact: q3 is within a factor 2 of 1
        limit = q_l / (math.sqrt(2.0) * math.sqrt(d * d + q_l * q_l / 2.0))
        gap = abs(math.tan(1.0 / p.inv_theta) / limit - 1.0)
        assert p.bracketed and gap <= 5.0 * q_l**2 + 16.0 * EPS, (p, gap)


@pytest.mark.parametrize("q_l", [1e-2, 1e-3, 1e-4, 1e-6])
def test_left_branch_fit_constants_at_small_q_l(q_l):
    # the left branch of the default 201 q3 scales exactly: fitted to the exact locus (the closed form, which
    # no 1/theta range cuts), q_l a1 -> 1.940, q_l a2 -> -1.709 and a3 -> 0.3017 as q_l -> 0 (measured at
    # most 0.35 % off, at q_l = 1e-2)
    q3 = np.linspace(0.0, 1.0, 201)
    q3 = q3[q3 <= sweep.BRANCH_SPLIT + 1e-12]  # fit_locus's left branch
    inv_theta = sweep._locus_inv_theta(q_l, 0.0, q3)
    a1, a2, a3 = sweep._fit_branch(q3, inv_theta, "left", (0.0, sweep.BRANCH_SPLIT)).params
    ratios = (q_l * a1 / 1.940, q_l * a2 / -1.709, a3 / 0.3017)
    assert max(abs(ratio - 1.0) for ratio in ratios) <= 0.01, ratios


def test_locus_builds_one_matrix_per_q3(monkeypatch):
    # the locus is a closed form in (q_l, q2, q3), so the kernel runs on exactly
    # one matrix per q3, at its 1/theta, also where the cross term survives
    built = []

    def counting_kernel(q_l, q2, q3, *args):
        built.append(np.size(q3))
        return _kernel(q_l, q2, q3, *args)

    monkeypatch.setattr("kdspin.sweep._kernel", counting_kernel)
    fixed = FixedParams(q2=0.01)
    q3 = np.linspace(0.0, 1.0, 41)
    assert all(p.bracketed for p in minimum_locus(q3, fixed=fixed))
    assert sum(built) == len(q3)
    built.clear()
    locus_probabilities(left_model(PAPER_LEFT), right_model(PAPER_RIGHT), q3, fixed=fixed)
    assert sum(built) == len(q3)


def test_minimum_locus_is_even_in_q2():
    # q2 enters 1/theta only as q2 q3 and q2 E inside hypot and as q2^2, and the kernel's q2 -> -q2 mirror
    # keeps each matrix's singular values: at -q2, 1/theta, prob_A and prob_B keep their bits, on the
    # array path and on one q3's float path
    q3 = np.random.default_rng(9).uniform(0.0, 2.0, 60)
    for q_l in (1e-6, 1e-3, 0.02):
        for q2 in (0.01, 0.3, 1.7):
            for grid in (q3, q3[:1]):
                plus, minus = ([tuple(v.hex() for v in (p.inv_theta, p.prob_a, p.prob_b)) + (p.bracketed,)
                                for p in minimum_locus(grid, inv_theta_range=(1e-3, 1e300), fixed=FixedParams(q_l, s))]
                               for s in (q2, -q2))
                assert minus == plus and all(row[-1] for row in plus), (q_l, q2, len(grid))


def test_tiles_mirror_on_symmetric_axes():
    # on these dyadic ranges linspace is exact, so each axis holds -v with every v: contrast, prob_A and
    # prob_B keep their bits cell for cell under q2 -> -q2 and q3 -> -q3 on a q2,q3 tile and under
    # theta -> -theta on a q3,theta tile
    for spec, flips in (
        (GridSpec("q2", "q3", (-0.0625, 0.0625), (-1.5, 1.5), 33, 25, FixedParams(theta=math.pi / 4.0)), (-1, -2)),
        (GridSpec("q3", "theta", (0.25, 1.75), (-1.5, 1.5), 13, 25, FixedParams(q2=0.01)), (-2,)),
    ):
        tile = run_sweep(spec)
        cells = np.array([tile.contrast, tile.prob_a, tile.prob_b])  # (3, ny, nx)
        assert not np.isnan(cells).any()
        for axis in flips:
            values = tile.x if axis == -1 else tile.y
            assert np.array_equal(values, -values[::-1])  # equal bits but at 0, which flips onto itself
            assert np.flip(cells, axis).tobytes() == cells.tobytes(), (spec.x_name, spec.y_name, axis)
        assert np.flip(cells, flips).tobytes() == cells.tobytes()


def test_minimum_locus_root_at_zero_q3_for_any_q2():
    fixed = FixedParams(q2=0.01)
    (point,) = minimum_locus([0.0], fixed=fixed)
    assert point.bracketed
    assert oracle_contrast(fixed, 0.0, point.inv_theta) <= 1e-20


def test_locus_angles_span_kernel_of_spin_matrix():
    # at a zero of the contrast psi_A spans the kernel of M, so the Bloch
    # angles of that kernel vector are an oracle for the minimizer's
    fixed = FixedParams()
    points = minimum_locus(np.linspace(0.0, 1.0, 201), fixed=fixed)
    q3 = np.array([p.q3 for p in points])
    left = elliptic_left(1.0 / np.array([p.inv_theta for p in points]))
    m = spin_matrix_batch(fixed.q_l, np.zeros_like(q3), q3, left, np.array([0.0, 0.0, 1.0]))
    for p, mat in zip(points, m):
        row = mat[0] if np.linalg.norm(mat[0]) >= np.linalg.norm(mat[1]) else mat[1]
        kernel = np.array([-row[1], row[0]])
        alpha, phi = _fold(
            2.0 * math.atan2(abs(kernel[1]), abs(kernel[0])),
            cmath.phase(kernel[1] * kernel[0].conjugate()) % (2.0 * math.pi),
        )
        assert abs(alpha - p.alpha) <= 1e-9 and abs(phi - p.phi) <= 1e-9


def locus_numbers(p):
    return [p.q3, p.inv_theta, p.alpha, p.phi, p.prob_a, p.prob_b]


#: the (q_l, q2) grid on which the locus is checked against the point path
POINT_PATH_GRID = [(q_l, q2) for q_l in (0.02, 1e-4, 1e-8) for q2 in (0.0, 0.01, 0.05, 0.3)]


@pytest.mark.parametrize("q_l, q2", POINT_PATH_GRID)
def test_locus_point_is_the_point_path(q_l, q2):
    # each locus point, on the minimum locus and along a fit, is the point command's result
    # at theta = 1/inv_theta, bit for bit
    fixed = FixedParams(q_l=q_l, q2=q2)
    q3 = np.linspace(0.0, 1.0, 41)
    points = minimum_locus(q3, inv_theta_range=WIDE, fixed=fixed)
    points += locus_probabilities(left_model(PAPER_LEFT), right_model(PAPER_RIGHT), q3, fixed=fixed)
    for p in points:
        assert p.bracketed
        ref = minimize_contrast(spin_matrix(ScatterConfig(q_l, q2, p.q3), elliptic_polarization(1.0 / p.inv_theta)))
        expected = [ref.alpha, ref.phi, ref.prob_a, ref.prob_b]
        assert [x.hex() for x in expected] == [x.hex() for x in locus_numbers(p)[2:]], p.q3


@pytest.mark.parametrize(
    "q_l, q2, count, inv_theta_range",
    [
        pytest.param(0.02, 0.0, 201, (1.0, 100.0), id="0.0-201"),
        pytest.param(0.02, 0.01, 41, (1.0, 100.0), id="0.01-41"),
        # 27 of 41 points unbracketed, and the q3 = 0 root above the range
        pytest.param(0.02, 0.01, 41, (1.0, 20.0), id="0.01-41-unbracketed"),
        *(
            pytest.param(q_l, q2, 41, bounds, id=f"{q_l}-{q2}-{name}")
            for q_l, q2 in POINT_PATH_GRID
            for name, bounds in (("default", (1.0, 100.0)), ("wide", WIDE))
        ),
    ],
)
def test_minimum_locus_point_independent_of_request(q_l, q2, count, inv_theta_range):
    # a one-q3 request, which runs on Python floats, reproduces its row of the whole locus bit
    # for bit; NaN compares equal, because an unbracketed row is all NaN
    fixed = FixedParams(q_l=q_l, q2=q2)
    grid = np.linspace(0.0, 1.0, count)
    whole = minimum_locus(grid, inv_theta_range=inv_theta_range, fixed=fixed)
    for q3, row in zip(grid, whole):
        (one,) = minimum_locus([q3], inv_theta_range=inv_theta_range, fixed=fixed)
        assert np.array_equal(locus_numbers(one), locus_numbers(row), equal_nan=True), q3
        assert (one.bracketed, one.status) == (row.bracketed, row.status)


@pytest.mark.parametrize(
    "inv_theta_range, inv_theta_points",
    [((5.0, 2.0), 400), ((2.0, 2.0), 400), ((0.0, 100.0), 400), ((-1.0, 100.0), 400),
     ((1.0, math.inf), 400), ((math.nan, 100.0), 400), ((1.0, 100.0), 2), ((1.0, 100.0), 0)],
)
def test_minimum_locus_rejects_bad_search_range(inv_theta_range, inv_theta_points):
    with pytest.raises(ValueError):
        minimum_locus([0.5], inv_theta_range=inv_theta_range, inv_theta_points=inv_theta_points)


def test_locus_entry_checks_every_input():
    # minimum_locus and locus_probabilities validate through one entry, before any kernel call
    left, right = left_model(PAPER_LEFT), right_model(PAPER_RIGHT)
    beam = FixedParams(pol=elliptic_polarization(0.3))
    cases = [
        (lambda: minimum_locus([math.nan]), "q3 must be finite, got nan"),
        (lambda: locus_probabilities(left, right, [math.nan]), "q3 must be finite, got nan"),
        (lambda: locus_probabilities(left, right, [0.5], fixed=FixedParams(q2=math.nan)), "q2 must be finite, got nan"),
        (lambda: locus_probabilities(left, right, [0.5], fixed=FixedParams(q2=1e200)),
         r"q3=0\.5: its spin matrices are not finite"),
        (lambda: minimum_locus([0.5], fixed=beam), "elliptic beam: a fixed beam pair would go unread"),
        (lambda: locus_probabilities(left, right, [0.5], fixed=beam), "elliptic beam"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError, match=message):
            call()


def test_locus_rejects_fixed_theta():
    # the locus sets theta itself; only the default, which cannot be told from a given pi/4, passes
    left, right = left_model(PAPER_LEFT), right_model(PAPER_RIGHT)
    for theta in (0.3, math.nan):
        fixed = FixedParams(theta=theta)
        with pytest.raises(ValueError, match="the locus sets theta itself"):
            minimum_locus([0.5], fixed=fixed)
        with pytest.raises(ValueError, match="the locus sets theta itself"):
            locus_probabilities(left, right, [0.5], fixed=fixed)
    assert minimum_locus([0.5], fixed=FixedParams(theta=math.pi / 4.0))[0].bracketed


def test_locus_probabilities_names_point_without_minimum():
    # the left models give 1/theta = 0, -0 and 5e-324, where no angle theta exists (the last one's reciprocal
    # overflows): one q3 raises the ValueError of a batch, not a ZeroDivisionError
    for params, shown in (([0.0, 0.0, 0.0], r"0\.0"), ([-0.0, -0.0, 0.0], r"-0\.0"), ([5e-324, 0.0, 0.0], "5e-324")):
        for q3 in ([0.5], [0.5, 0.7]):
            with pytest.raises(ValueError, match=rf"no contrast minimum at q3=0\.5, 1/theta={shown}$"):
                locus_probabilities(left_model(params), right_model(PAPER_RIGHT), q3)


def test_one_q3_locus_probabilities_is_its_batch_row():
    # one q3 gives the bits of its row of a batch, on both branches and at their split
    left, right = left_model(PAPER_LEFT), right_model(PAPER_RIGHT)
    q3 = [0.0, -0.0, 1e-300, 0.3, 0.9, 0.9 + 1e-13, 0.95, 1.0]
    for fixed in (None, FixedParams(q_l=1e-3), FixedParams(q2=0.3)):
        batch = locus_probabilities(left, right, q3, fixed=fixed)
        for point in batch:
            (alone,) = locus_probabilities(left, right, [point.q3], fixed=fixed)
            assert alone == point and repr(alone) == repr(point)


def test_fit_rejects_empty_locus_and_unknown_branch():
    with pytest.raises(ValueError, match="empty locus"):
        fit_locus([])
    with pytest.raises(ValueError, match="branch must be 'left' or 'right', got 'middle'"):
        FitModel(branch="middle", params=np.asarray(PAPER_LEFT), domain=(0.0, 0.9))


def test_fit_round_trip_left():
    # the split point belongs to both branches, so the synthetic data must be
    # branch-consistent there: keep 0.9 out of the right-model samples
    truth = left_model(PAPER_LEFT)
    data = [(q, evaluate_fit(truth, q)) for q in np.linspace(0.0, 0.9, 60)]
    data += [(q, evaluate_fit(right_model(PAPER_RIGHT), q)) for q in np.linspace(0.92, 1.0, 10)]
    left, _ = fit_locus(data)
    assert np.allclose(left.params, PAPER_LEFT, rtol=1e-8)


def test_fit_round_trip_right():
    truth = right_model(PAPER_RIGHT)
    data = [(q, evaluate_fit(left_model(PAPER_LEFT), q)) for q in np.linspace(0.0, 0.88, 40)]
    data += [(q, evaluate_fit(truth, q)) for q in np.linspace(0.9, 1.0, 30)]
    _, right = fit_locus(data)
    assert np.allclose(right.params, PAPER_RIGHT, rtol=1e-8)


def test_fit_requires_minimum_points():
    data = [(0.0, 50.0), (0.5, 10.0), (1.0, 1.3)]
    with pytest.raises(ValueError):
        fit_locus(data)
    with pytest.raises(ValueError, match="need at least 4 distinct q3 per branch, got 1 left / 1 right"):
        fit_locus([(0.9, 7.0)] * 10)  # ten points, but one q3 on each branch
    # the rejections come in order: an empty locus, the first q3 outside [0, 1] (NaN included),
    # then the count of distinct q3 with a finite inv_theta on each branch
    right = [(q, 2.0) for q in (0.92, 0.94, 0.96, 0.98)]
    count = "need at least 4 distinct q3 per branch, got "
    for locus, message in [
        ([], "empty locus"),
        ([(0.5, 10.0), (math.nan, 5.0)], "q3=nan outside fit domain [0, 1]"),
        ([(0.5, 10.0), (1.5, 1.0), (-0.5, 1.0)], "q3=1.5 outside fit domain [0, 1]"),
        ([(0.0, 9.0), (0.1, math.nan), (0.2, math.inf), (0.3, -math.inf), (0.4, 8.0), *right],
         count + "2 left / 4 right"),
        ([(-0.0, 9.0), (0.0, 9.0), (0.1, 8.0), (0.2, 7.0), *right], count + "3 left / 4 right"),
        ([(0.5, 10.0)], count + "1 left / 0 right"),
        ([(0.9, 7.0)], count + "1 left / 1 right"),
    ]:
        with pytest.raises(ValueError) as info:
            fit_locus(locus)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "right, bound",
    [
        pytest.param(lambda q: 1.0 + 30.0 * abs(q - 1.0), "c3 ran to 1e-08, the lower end", id="V"),
        pytest.param(lambda q: 1.0 + 300.0 * (q - 1.0) ** 2, "c3 ran to 10, the upper end", id="parabola"),
    ],
)
def test_fit_degenerate_branch_raises(right, bound):
    # a V (c3 -> 0) or a parabola (c3 -> infinity) on the right branch is reported, not fitted
    data = [(q, evaluate_fit(left_model(PAPER_LEFT), q)) for q in np.linspace(0.0, 0.88, 40)]
    data += [(q, right(q)) for q in np.linspace(0.9, 1.0, 30)]
    with pytest.raises(FitConvergenceError, match=f"right branch degenerates: {bound}"):
        fit_locus(data)


def default_left_branch():
    """(q3, inv_theta) of the default locus on the left branch of the fit."""
    points = minimum_locus(np.linspace(0.0, 0.9, 91))
    return np.array([p.q3 for p in points]), np.array([p.inv_theta for p in points])


def test_fit_branch_rejects_a_profile_without_a_minimum(monkeypatch):
    # slopes of one sign at the grid neighbours of the smallest sum of squares: no root to refine
    profile = sweep._fit_profile

    def one_sign(x, y, c3):
        c1, c2, ss, slope = profile(x, y, c3)
        return c1, c2, ss, np.abs(slope)

    monkeypatch.setattr(sweep, "_fit_profile", one_sign)
    with pytest.raises(FitConvergenceError, match=r"left branch: the c3 profile has no minimum between \S+ and \S+$"):
        sweep._fit_branch(*default_left_branch(), "left", (0.0, sweep.BRANCH_SPLIT))


def test_fit_branch_stops_at_a_zero_slope(monkeypatch):
    # a slope of exactly 0 is the root: the refinement ends there, with that c3's (c1, c2)
    profile = sweep._fit_profile
    steps = []

    def flat(x, y, c3):
        c1, c2, ss, slope = profile(x, y, c3)
        if len(c3) == 1:  # a regula falsi step, not the grid or its bracket
            steps.append(c3[0])
            slope = np.zeros(1)
        return c1, c2, ss, slope

    monkeypatch.setattr(sweep, "_fit_profile", flat)
    q3, inv_theta = default_left_branch()
    model = sweep._fit_branch(q3, inv_theta, "left", (0.0, sweep.BRANCH_SPLIT))
    assert len(steps) == 1
    c1, c2, _, _ = profile(q3, inv_theta, np.array(steps))
    assert model.params.tolist() == [c1[0], c2[0], steps[0]]


def test_fit_branch_bisects_where_regula_falsi_lands_on_an_end(monkeypatch):
    # an upper slope of 1e-300 against -1 puts the regula falsi point on the upper end in floats,
    # so the step bisects the bracket in log c3 instead; the refinement still converges
    profile = sweep._fit_profile
    brackets, steps = [], []

    def lopsided(x, y, c3):
        c1, c2, ss, slope = profile(x, y, c3)
        if len(c3) == 2:
            brackets.append(np.log(c3))
            slope = np.array([-1.0, 1e-300])
        elif len(c3) == 1:
            steps.append(math.log(c3[0]))
        return c1, c2, ss, slope

    monkeypatch.setattr(sweep, "_fit_profile", lopsided)
    model = sweep._fit_branch(*default_left_branch(), "left", (0.0, sweep.BRANCH_SPLIT))
    (lo, hi), = brackets
    assert abs(steps[0] - 0.5 * (lo + hi)) <= 1e-12 * (hi - lo)
    assert lo < math.log(model.params[2]) < hi


@pytest.mark.parametrize("q3", [-0.2, 1.05, math.nan])
def test_fit_rejects_q3_outside_domain(q3):
    data = [(q, 10.0 - 5.0 * q) for q in np.linspace(0.0, 1.0, 41)] + [(q3, 5.0)]
    with pytest.raises(ValueError, match=r"outside fit domain \[0, 1\]"):
        fit_locus(data)


@pytest.mark.parametrize("q2", [0.0, 0.01])
def test_fit_residual_small_against_branch_range(q2):
    points = minimum_locus(np.linspace(0.0, 1.0, 41), fixed=FixedParams(q2=q2))
    data = [(p.q3, p.inv_theta) for p in points if p.bracketed]
    left, right = fit_locus(data)
    for model, offset in ((left, 0.0), (right, 1.0)):
        lo, hi = model.domain
        branch = [(q, v) for q, v in data if lo - 1e-12 <= q <= hi + 1e-12]
        resid = [evaluate_fit(model, q) - v for q, v in branch]
        rms = math.sqrt(sum(r * r for r in resid) / len(resid))
        dynamic_range = max(v for _, v in branch) - min(v for _, v in branch)
        assert rms <= 0.02 * dynamic_range
        # stationarity of the full 3-parameter problem, whatever the method:
        # each Jacobian column (1, sqrt(s), c2 / (2 sqrt(s))) is orthogonal to the residual
        q3 = np.array([q for q, _ in branch])
        c1, c2, c3 = model.params
        root = np.sqrt((q3 - offset) ** 2 + c3)
        jac = np.stack([np.ones_like(root), root, 0.5 * c2 / root])
        assert np.all(np.abs(jac @ resid) <= 1e-10 * np.linalg.norm(jac, axis=1) * np.linalg.norm(resid))


def test_fit_profile_calls_on_default_locus(monkeypatch):
    # regula falsi (Illinois) finds the c3 root in 20 profile calls on this locus, against 25
    # without the Illinois halving and 105 for a bisection to the last bit of log c3
    points = minimum_locus(np.linspace(0.0, 1.0, 201))
    data = [(p.q3, p.inv_theta) for p in points if p.bracketed]
    calls = []
    profile = sweep._fit_profile
    monkeypatch.setattr(sweep, "_fit_profile", lambda *args: calls.append(args) or profile(*args))
    fit_locus(data)
    assert len(calls) <= 23


def test_evaluate_fit_published_endpoints():
    assert evaluate_fit(left_model(PAPER_LEFT), 0.0) == pytest.approx(50.13, abs=0.01)
    assert evaluate_fit(right_model(PAPER_RIGHT), 1.0) == pytest.approx(
        4.005 / math.pi, abs=1e-3
    )


def test_evaluate_fit_squares_as_the_fit_does():
    # libm pow(x, 2), which x ** 2 calls on a float, is an ulp off x * x at some x
    c1, c2, c3 = params = np.array([50.0, -30.0, 0.01])
    q3 = np.linspace(0.0, 0.9, 10001)
    fitted = c1 + c2 * np.sqrt(np.square(q3 - 0.0) + c3)
    assert [evaluate_fit(left_model(params), q) for q in q3.tolist()] == fitted.tolist()


def test_evaluate_fit_domain_and_degenerate_slope():
    model = left_model([7.0, 0.0, 0.5])
    assert evaluate_fit(model, 0.1) == 7.0
    assert evaluate_fit(model, 0.8) == 7.0
    with pytest.raises(ValueError):
        evaluate_fit(model, 1.0)


def test_probabilities_along_published_fit():
    left, right = left_model(PAPER_LEFT), right_model(PAPER_RIGHT)
    trace = locus_probabilities(left, right, [0.0, 0.25, 0.5, 0.75, 1.0])
    for record in trace:
        assert record.prob_a / record.prob_b < 1e-3
        assert record.phi == 0.0
        assert record.bracketed and record.status == "converged_gradient"
        assert record.inv_theta == evaluate_fit(left if record.q3 <= 0.9 else right, record.q3)
    assert trace[0].alpha == pytest.approx(1.5 * math.pi, abs=1e-2)

import math

import numpy as np
import pytest

from kdspin.compton import (
    PolarizationPair,
    compton_tensor,
    contract_polarization,
    elliptic_polarization,
)
from kdspin.contrast import minimize_contrast
from kdspin.kinematics import ScatterConfig
from kdspin.sweep import (
    LOCUS_TOLERANCE,
    FitModel,
    FixedParams,
    GridSpec,
    _elliptic_minima,
    _golden_section,
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
    def broken(matrix):
        raise TypeError("not a recordable numeric failure")

    monkeypatch.setattr("kdspin.sweep.minimize_contrast_batch", broken)
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


def reference_contrast(fixed, q3):
    """Contrast over 1/theta at one q3 through the tensor path, independent of the kernel."""
    tensor = compton_tensor(ScatterConfig(q_l=fixed.q_l, q2=fixed.q2, q3=q3))

    def value(inv_theta):
        return minimize_contrast(contract_polarization(tensor, elliptic_polarization(1.0 / inv_theta))).value

    return value


def forbid_scan(mp):
    def scan(cfg):
        raise AssertionError(f"scan path taken at q3={cfg.q3!r}")

    mp.setattr("kdspin.sweep.compton_tensor", scan)


def test_minimum_locus_roots_match_reference_path():
    # the default locus-fit grid: each point is a zero of the tensor-built
    # contrast and agrees with a golden-section search on that contrast
    step = 99.0 / 399.0  # the default coarse-scan spacing, so the bracket is the scan's
    fixed = FixedParams()
    for p in minimum_locus(np.linspace(0.0, 1.0, 201)):
        value = reference_contrast(fixed, p.q3)
        assert p.bracketed
        assert value(p.inv_theta) <= 1e-20
        refined = _golden_section(value, p.inv_theta - step, p.inv_theta + step, LOCUS_TOLERANCE)
        assert abs(p.inv_theta - refined) <= LOCUS_TOLERANCE


def test_minimum_locus_takes_root_at_zero_q2():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # the range holds every root of this domain (1/theta from 4/pi to ~1/q_l)
    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.floats(1e-3, 0.05), st.floats(0.0, 1.05))
    def check(q_l, q3):
        fixed = FixedParams(q_l=q_l)
        with pytest.MonkeyPatch.context() as mp:
            forbid_scan(mp)
            (point,) = minimum_locus([q3], inv_theta_range=(1.0, 1e4), fixed=fixed)
        assert point.bracketed
        assert reference_contrast(fixed, q3)(point.inv_theta) <= 1e-20

    check()


def test_minimum_locus_scans_where_cross_term_survives(monkeypatch):
    fixed = FixedParams(q2=0.01)
    q3_values = [0.3, 0.7, 0.95, 1.0]
    scanned = []

    def counting_tensor(cfg):
        scanned.append(cfg.q3)
        return compton_tensor(cfg)

    monkeypatch.setattr("kdspin.sweep.compton_tensor", counting_tensor)
    points = minimum_locus(q3_values, fixed=fixed)
    assert scanned == q3_values
    fine = np.linspace(1.0, 100.0, 19801)
    for p in points:
        assert p.bracketed
        found = _elliptic_minima(fixed, p.q3, [p.inv_theta]).value[0]
        # the golden-section midpoint sits within LOCUS_TOLERANCE of the minimum
        assert found <= _elliptic_minima(fixed, p.q3, fine).value.min() * (1.0 + 1e-9)


def test_minimum_locus_root_at_zero_q3_for_any_q2(monkeypatch):
    fixed = FixedParams(q2=0.01)
    forbid_scan(monkeypatch)
    (point,) = minimum_locus([0.0], fixed=fixed)
    assert point.bracketed
    assert reference_contrast(fixed, 0.0)(point.inv_theta) <= 1e-20


@pytest.mark.parametrize("q2, count", [(0.0, 201), (0.01, 41)])
def test_minimum_locus_point_independent_of_request(q2, count):
    # a one-q3 request reproduces its row of the whole locus, on both paths
    fixed = FixedParams(q2=q2)
    grid = np.linspace(0.0, 1.0, count)
    whole = minimum_locus(grid, fixed=fixed)
    for i in (0, count // 5, count // 2, count - 5, count - 1):
        assert minimum_locus([grid[i]], fixed=fixed)[0] == whole[i]


@pytest.mark.parametrize(
    "inv_theta_range, inv_theta_points",
    [((5.0, 2.0), 400), ((2.0, 2.0), 400), ((0.0, 100.0), 400), ((-1.0, 100.0), 400),
     ((1.0, math.inf), 400), ((math.nan, 100.0), 400), ((1.0, 100.0), 2), ((1.0, 100.0), 0)],
)
def test_minimum_locus_rejects_bad_search_range(inv_theta_range, inv_theta_points):
    with pytest.raises(ValueError):
        minimum_locus([0.5], inv_theta_range=inv_theta_range, inv_theta_points=inv_theta_points)


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


def test_fit_residual_small_against_branch_range():
    points = minimum_locus(np.linspace(0.0, 1.0, 41))
    data = [(p.q3, p.inv_theta) for p in points if p.bracketed]
    left, right = fit_locus(data)
    for model in (left, right):
        lo, hi = model.domain
        branch = [(q, v) for q, v in data if lo - 1e-12 <= q <= hi + 1e-12]
        resid = [evaluate_fit(model, q) - v for q, v in branch]
        rms = math.sqrt(sum(r * r for r in resid) / len(resid))
        dynamic_range = max(v for _, v in branch) - min(v for _, v in branch)
        assert rms <= 0.02 * dynamic_range


def test_evaluate_fit_published_endpoints():
    assert evaluate_fit(left_model(PAPER_LEFT), 0.0) == pytest.approx(50.13, abs=0.01)
    assert evaluate_fit(right_model(PAPER_RIGHT), 1.0) == pytest.approx(
        4.005 / math.pi, abs=1e-3
    )


def test_evaluate_fit_domain_and_degenerate_slope():
    model = left_model([7.0, 0.0, 0.5])
    assert evaluate_fit(model, 0.1) == 7.0
    assert evaluate_fit(model, 0.8) == 7.0
    with pytest.raises(ValueError):
        evaluate_fit(model, 1.0)


def test_probabilities_along_published_fit():
    trace = locus_probabilities(
        left_model(PAPER_LEFT), right_model(PAPER_RIGHT), [0.0, 0.25, 0.5, 0.75, 1.0]
    )
    for record in trace:
        assert record.prob_a / record.prob_b < 1e-3
        assert record.phi == 0.0
    assert trace[0].alpha == pytest.approx(1.5 * math.pi, abs=1e-2)

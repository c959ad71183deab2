"""Acceptance suite: one check per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criterion 1 pins the optimal spin angle at the q3 = 1 reference
point to 7 pi/4 within 1e-3 rad; the computed kernel direction sits a
q_l-linear offset (about 0.293 q_l, i.e. 5.9e-3 rad at q_l = 0.02) below
7 pi/4, so that single sub-check fails by construction and is reported
with the measured offset.
"""

import io
import math
import time

import brute_force
import numpy as np
import pytest

from kdspin.cli import write_tile_csv
from kdspin.compton import PolarizationPair, elliptic_polarization, spin_matrix
from kdspin.contrast import (
    BlochPair,
    contrast_at,
    contrast_derivatives,
    minimize_contrast,
)
from kdspin.dirac import GAMMA_MATRICES, IDENTITY_4, bispinor_u, dirac_adjoint
from kdspin.kinematics import ScatterConfig
from kdspin.sweep import (
    FixedParams,
    GridSpec,
    evaluate_fit,
    fit_locus,
    locus_probabilities,
    minimum_locus,
    run_sweep,
)
from kdspin.taylor import low_momentum_matrix, taylor_error

QL = 0.02
PAPER_LEFT = np.array([96.71, -85.10, 0.2996])
PAPER_RIGHT = np.array([0.02771, 70.41, 3.137e-4])


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def random_matrix(rng):
    return rng.randn(2, 2) + 1j * rng.randn(2, 2)


@pytest.fixture(scope="module")
def locus_and_fit():
    start = time.perf_counter()
    points = minimum_locus(np.linspace(0.0, 1.0, 201))
    good = [(p.q3, p.inv_theta) for p in points if p.bracketed]
    left, right = fit_locus(good)
    elapsed = time.perf_counter() - start
    return points, left, right, elapsed


def test_criterion_1_consistency_point():
    start = time.perf_counter()
    pol = PolarizationPair(
        left=np.array([0.0, 1.0, 1.0j]) / math.sqrt(2.0),
        right=np.array([0.0, 0.0, 1.0]),
    )
    result = minimize_contrast(spin_matrix(ScatterConfig(q_l=QL, q3=1.0), pol))
    elapsed = time.perf_counter() - start
    alpha_err = abs(result.alpha - 7.0 * math.pi / 4.0)
    phi_err = abs(result.phi)
    ok = (
        alpha_err <= 1e-3
        and phi_err <= 1e-3
        and result.value < 1e-3
        and result.prob_b > 0.0
        and elapsed < 1.0
    )
    detail = (
        f"contrast={result.value:.3e} (<1e-3), |phi|={phi_err:.1e} (<=1e-3), "
        f"|alpha-7pi/4|={alpha_err:.3e} (<=1e-3), prob_B={result.prob_b:.3e}, "
        f"t={elapsed:.2f}s; alpha offset is the q_l-linear kernel shift ~0.293*q_l"
    )
    assert report(1, ok, detail)


def test_criterion_2_low_momentum_limit():
    start = time.perf_counter()
    closed = contrast_at(low_momentum_matrix(QL), BlochPair(1.5 * math.pi, 0.0))
    full = minimize_contrast(
        spin_matrix(ScatterConfig(q_l=QL), elliptic_polarization(math.asin(QL)))
    )
    elapsed = time.perf_counter() - start
    alpha_err = abs(full.alpha - 1.5 * math.pi)
    ok = closed <= 1e-28 and alpha_err <= 0.05 and full.value < 1e-2 and elapsed < 1.0
    detail = (
        f"closed-form contrast={closed:.3e} (<=1e-28), pipeline |alpha-3pi/2|="
        f"{alpha_err:.3e} (<=0.05), contrast={full.value:.3e} (<1e-2), t={elapsed:.2f}s"
    )
    assert report(2, ok, detail)


def test_criterion_3_expansion_convergence_order():
    start = time.perf_counter()
    pol = elliptic_polarization(math.pi / 4.0)
    scales, errors = [], []
    for k in range(5):
        h = 1e-2 / 2.0**k
        scales.append(h)
        errors.append(taylor_error(ScatterConfig(q_l=h, q2=h, q3=h), pol))
    order = float(np.polyfit(np.log(scales), np.log(errors), 1)[0])
    elapsed = time.perf_counter() - start
    ok = abs(order - 3.0) <= 0.2 and elapsed < 1.0
    detail = f"fitted order={order:.3f} (3.0 +- 0.2), errors={[f'{e:.2e}' for e in errors]}, t={elapsed:.2f}s"
    assert report(3, ok, detail)


def test_criterion_4_fit_endpoints_and_coefficients(locus_and_fit):
    points, left, right, elapsed = locus_and_fit
    at_zero = evaluate_fit(left, 0.0)
    at_one = evaluate_fit(right, 1.0)
    target_one = 4.005 / math.pi
    rel_left = np.abs(left.params - PAPER_LEFT) / np.abs(PAPER_LEFT)
    rel_right = np.abs(right.params - PAPER_RIGHT) / np.abs(PAPER_RIGHT)
    ok = (
        abs(at_zero - 50.13) <= 1.0
        and abs(at_one - target_one) <= 0.02 * target_one
        and np.all(rel_left <= 0.10)
        and np.all(rel_right <= 0.10)
        and elapsed < 600.0
    )
    detail = (
        f"1/theta(0)={at_zero:.3f} (50.13 +- 1.0), 1/theta(1)={at_one:.5f} "
        f"({target_one:.5f} +- 2%), left rel dev={rel_left.max():.3f}, "
        f"right rel dev={rel_right.max():.3f} (each <= 0.10), t={elapsed:.0f}s"
    )
    assert report(4, ok, detail)


def test_criterion_5_probabilities_along_fit(locus_and_fit):
    points, left, right, _ = locus_and_fit
    sampled = [p.q3 for p in points if p.bracketed]
    trace = locus_probabilities(left, right, sampled)
    ratios = np.array([rec.prob_a / rec.prob_b for rec in trace])
    phis = np.array([abs(rec.phi) for rec in trace])
    ok = bool(np.all(ratios < 1e-3) and np.all(phis <= 1e-6))
    detail = (
        f"{len(trace)} samples, max prob_A/prob_B={ratios.max():.3e} (<1e-3), "
        f"max |phi|={phis.max():.1e} (<=1e-6)"
    )
    assert report(5, ok, detail)


def test_criterion_6_origin_region_sweep():
    spec = GridSpec(
        x_name="q2",
        y_name="q3",
        x_range=(-0.05, 0.05),
        y_range=(-0.05, 0.05),
        nx=41,
        ny=41,
        fixed=FixedParams(q_l=QL, theta=1.0 / 50.0),
    )
    tile = run_sweep(spec)
    center = (np.abs(tile.y).argmin(), np.abs(tile.x).argmin())
    contrast_center = tile.contrast[center]
    prob_center = tile.prob_b[center]
    prob_max = tile.prob_b.max()
    ok = contrast_center < 1e-2 and prob_center > 0.5 * prob_max
    detail = (
        f"contrast(0,0)={contrast_center:.3e} (<1e-2), prob_B(0,0)={prob_center:.3e} "
        f"vs 0.5*max={0.5 * prob_max:.3e}"
    )
    assert report(6, ok, detail)


def test_criterion_7a_clifford_exact():
    metric = np.diag([1.0, -1.0, -1.0, -1.0])
    ok = all(
        np.array_equal(
            GAMMA_MATRICES[mu] @ GAMMA_MATRICES[nu] + GAMMA_MATRICES[nu] @ GAMMA_MATRICES[mu],
            2.0 * metric[mu, nu] * IDENTITY_4,
        )
        for mu in range(4)
        for nu in range(4)
    )
    assert report("7a", ok, "Clifford identities hold exactly for all 16 index pairs")


def test_criterion_7b_spinor_orthonormality():
    rng = np.random.RandomState(101)
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(-2.0, 2.0, size=3)
        p = np.concatenate([[np.sqrt(1.0 + q @ q)], q])
        for s in (1, 2):
            adj = dirac_adjoint(bispinor_u(p, s))
            for sp in (1, 2):
                value = adj @ bispinor_u(p, sp)
                target = 1.0 if s == sp else 0.0
                worst = max(worst, abs(value - target))
    ok = worst <= 1e-12
    assert report("7b", ok, f"100 random momenta, max |ubar u - delta| = {worst:.2e} (<=1e-12)")


def test_criterion_7c_derivatives_vs_finite_differences():
    rng = np.random.RandomState(103)
    worst_g, worst_h = 0.0, 0.0
    for _ in range(50):
        m = random_matrix(rng)
        pair = BlochPair(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, math.pi))
        grad, hess = contrast_derivatives(m, pair)

        def value(da, dp):
            return contrast_at(m, BlochPair(pair.alpha + da, pair.phi + dp))

        h = 1e-6
        fd_grad = np.array(
            [
                (value(h, 0) - value(-h, 0)) / (2 * h),
                (value(0, h) - value(0, -h)) / (2 * h),
            ]
        )
        scale_g = 1.0 + np.max(np.abs(grad))
        worst_g = max(worst_g, float(np.max(np.abs(grad - fd_grad))) / scale_g)

        h2 = 1e-4
        center = value(0.0, 0.0)
        cross = (
            value(h2, h2) - value(h2, -h2) - value(-h2, h2) + value(-h2, -h2)
        ) / (4 * h2**2)
        fd_hess = np.array(
            [
                [(value(h2, 0) - 2 * center + value(-h2, 0)) / h2**2, cross],
                [cross, (value(0, h2) - 2 * center + value(0, -h2)) / h2**2],
            ]
        )
        scale_h = 1.0 + np.max(np.abs(hess))
        worst_h = max(worst_h, float(np.max(np.abs(hess - fd_hess))) / scale_h)
    ok = worst_g <= 1e-6 and worst_h <= 1e-4
    assert report(
        "7c",
        ok,
        f"50 random matrices: gradient dev {worst_g:.2e} (<=1e-6), "
        f"Hessian dev {worst_h:.2e} (<=1e-4)",
    )


@pytest.mark.slow
def test_criterion_7d_newton_beats_brute_force():
    rng = np.random.RandomState(107)
    alphas = np.linspace(0.0, 2.0 * math.pi, 2000, endpoint=False)
    phis = np.linspace(0.0, math.pi, 1000, endpoint=False)
    sample = np.random.default_rng(107)
    worst = -np.inf
    for _ in range(50):
        m = random_matrix(rng)
        brute = brute_force.grid_minimum(m, alphas, phis, sample)
        found = minimize_contrast(m).value
        worst = max(worst, found - brute)
    ok = worst <= 1e-6
    assert report(
        "7d", ok, f"50 matrices vs 2000x1000 grid: max (newton - brute) = {worst:.2e} (<=1e-6)"
    )


def test_criterion_7e_scaling_and_unitary_invariance():
    rng = np.random.RandomState(109)
    worst_scale, worst_unitary = 0.0, 0.0
    for _ in range(50):
        m = random_matrix(rng)
        base = minimize_contrast(m)
        scaled = minimize_contrast((1.7 - 0.6j) * m)
        worst_scale = max(
            worst_scale,
            abs(scaled.value - base.value),
            abs(scaled.alpha - base.alpha),
            abs(scaled.phi - base.phi),
        )
        unitary, _ = np.linalg.qr(random_matrix(rng))
        rotated = minimize_contrast(unitary @ m)
        worst_unitary = max(worst_unitary, abs(rotated.value - base.value))
    ok = worst_scale <= 1e-12 and worst_unitary <= 1e-10
    assert report(
        "7e",
        ok,
        f"50 matrices: scaling dev {worst_scale:.2e} (<=1e-12), "
        f"unitary dev {worst_unitary:.2e} (<=1e-10)",
    )


def test_criterion_7f_sweep_csv_worker_determinism():
    spec = GridSpec(
        x_name="q2",
        y_name="q3",
        x_range=(-0.03, 0.03),
        y_range=(0.97, 1.03),
        nx=5,
        ny=4,
        fixed=FixedParams(theta=math.pi / 4.0),
    )
    buffers = {}
    for workers in (1, 2):
        tile = run_sweep(spec, workers=workers)
        stream = io.StringIO()
        write_tile_csv(tile, stream)
        buffers[workers] = stream.getvalue().encode("ascii")
    ok = buffers[1] == buffers[2]
    assert report("7f", ok, f"CSV identical for 1 vs 2 workers ({len(buffers[1])} bytes)")

import math

import numpy as np
import pytest

from kdspin.compton import elliptic_polarization, spin_matrix
from kdspin.contrast import (
    BlochPair,
    DegenerateDenominatorError,
    NewtonStatus,
    bloch_spinors,
    canonicalize,
    contrast_at,
    contrast_derivatives,
    minimize_contrast,
    minimize_contrast_batch,
)
from kdspin.kinematics import ScatterConfig
from kdspin.taylor import low_momentum_matrix

TWO_PI = 2.0 * math.pi


def random_matrix(rng):
    return rng.randn(2, 2) + 1j * rng.randn(2, 2)


def grid_contrast(m, alphas, phis):
    """Independent vectorized evaluation of the raw functional on a grid."""
    ca = np.cos(alphas / 2.0)[:, None]
    sa = np.sin(alphas / 2.0)[:, None]
    phase = np.exp(1j * phis)[None, :]
    a0 = ca * np.ones_like(phase)
    a1 = sa * phase
    b0 = sa * np.conj(phase)
    b1 = -ca * np.ones_like(phase)
    num = np.abs(m[0, 0] * a0 + m[0, 1] * a1) ** 2 + np.abs(m[1, 0] * a0 + m[1, 1] * a1) ** 2
    den = np.abs(m[0, 0] * b0 + m[0, 1] * b1) ** 2 + np.abs(m[1, 0] * b0 + m[1, 1] * b1) ** 2
    return num / den


def test_bloch_pair_poles():
    psi_a, psi_b = bloch_spinors(BlochPair(0.0, 0.0))
    assert np.array_equal(psi_a, [1, 0])
    assert np.array_equal(psi_b, [0, -1])


def test_bloch_pair_transverse_direction():
    psi_a, psi_b = bloch_spinors(BlochPair(1.5 * math.pi, 0.0))
    assert np.allclose(psi_a, np.array([-1.0, 1.0]) / math.sqrt(2), atol=1e-15)
    # second spinor agrees with (-1,-1)/sqrt(2) up to a global sign
    overlap = np.vdot(np.array([-1.0, -1.0]) / math.sqrt(2), psi_b)
    assert abs(abs(overlap) - 1.0) <= 1e-15


def test_bloch_pair_orthonormal():
    rng = np.random.RandomState(3)
    for _ in range(50):
        pair = BlochPair(rng.uniform(-10, 10), rng.uniform(-10, 10))
        psi_a, psi_b = bloch_spinors(pair)
        assert np.vdot(psi_a, psi_a).real == pytest.approx(1.0, abs=1e-15)
        assert np.vdot(psi_b, psi_b).real == pytest.approx(1.0, abs=1e-15)
        assert abs(np.vdot(psi_a, psi_b)) <= 1e-15


def test_contrast_at_isometry():
    rng = np.random.RandomState(4)
    for _ in range(10):
        pair = BlochPair(rng.uniform(0, TWO_PI), rng.uniform(0, math.pi))
        assert contrast_at(np.eye(2), pair) == pytest.approx(1.0, abs=1e-14)


def test_contrast_at_kernel_direction():
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert contrast_at(m, BlochPair(math.pi, 0.0)) <= 1e-30


def test_contrast_at_degenerate_denominator():
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateDenominatorError):
        contrast_at(m, BlochPair(0.0, 0.0))  # psi_B = (0, -1) is annihilated


def test_contrast_at_low_momentum_zero():
    m = low_momentum_matrix(0.02)
    assert contrast_at(m, BlochPair(1.5 * math.pi, 0.0)) <= 1e-28


def test_gradient_zero_for_constant_functional():
    grad, _ = contrast_derivatives(np.eye(2), BlochPair(1.0, 0.5))
    assert np.array_equal(grad, [0.0, 0.0])


def test_derivatives_match_finite_differences():
    rng = np.random.RandomState(12)
    h_grad = 1e-6
    h_hess = 1e-4
    for _ in range(50):
        m = random_matrix(rng)
        pair = BlochPair(rng.uniform(0, TWO_PI), rng.uniform(0, math.pi))
        grad, hess = contrast_derivatives(m, pair)

        def value(da, dp):
            return contrast_at(m, BlochPair(pair.alpha + da, pair.phi + dp))

        fd_grad = np.array(
            [
                (value(h_grad, 0) - value(-h_grad, 0)) / (2 * h_grad),
                (value(0, h_grad) - value(0, -h_grad)) / (2 * h_grad),
            ]
        )
        scale_g = 1.0 + np.max(np.abs(grad))
        assert np.allclose(grad, fd_grad, rtol=1e-6, atol=1e-9 * scale_g)

        center = value(0, 0)
        fd_hess = np.array(
            [
                [
                    (value(h_hess, 0) - 2 * center + value(-h_hess, 0)) / h_hess**2,
                    (
                        value(h_hess, h_hess)
                        - value(h_hess, -h_hess)
                        - value(-h_hess, h_hess)
                        + value(-h_hess, -h_hess)
                    )
                    / (4 * h_hess**2),
                ],
                [0.0, (value(0, h_hess) - 2 * center + value(0, -h_hess)) / h_hess**2],
            ]
        )
        fd_hess[1, 0] = fd_hess[0, 1]
        scale_h = 1.0 + np.max(np.abs(hess))
        assert np.allclose(hess, fd_hess, rtol=1e-4, atol=1e-6 * scale_h)


def test_canonicalize_periodic_alpha():
    out = canonicalize(BlochPair(2.5 * math.pi, 0.0))
    assert out.alpha == pytest.approx(0.5 * math.pi, rel=1e-15)
    assert out.phi == 0.0


def test_canonicalize_phi_identification():
    out = canonicalize(BlochPair(0.5 * math.pi, 1.5 * math.pi))
    assert out.alpha == pytest.approx(1.5 * math.pi, rel=1e-15)
    assert out.phi == pytest.approx(0.5 * math.pi, rel=1e-15)


def test_canonicalize_in_bounds_unchanged():
    out = canonicalize(BlochPair(math.pi, 0.5 * math.pi))
    assert out == BlochPair(math.pi, 0.5 * math.pi)


def test_canonicalize_preserves_contrast():
    rng = np.random.RandomState(9)
    for _ in range(50):
        m = random_matrix(rng)
        pair = BlochPair(rng.uniform(-15, 15), rng.uniform(-15, 15))
        folded = canonicalize(pair)
        assert 0.0 <= folded.alpha <= TWO_PI
        assert 0.0 <= folded.phi <= math.pi
        assert contrast_at(m, folded) == pytest.approx(contrast_at(m, pair), rel=1e-14)


def test_minimize_low_momentum_matrix():
    result = minimize_contrast(low_momentum_matrix(0.02))
    assert result.value <= 1e-28
    assert result.alpha == pytest.approx(1.5 * math.pi, abs=1e-6)
    assert result.phi == 0.0
    assert result.status is NewtonStatus.CONVERGED_GRADIENT


def test_minimize_reference_scenario():
    from kdspin.compton import PolarizationPair, spin_matrix
    from kdspin.kinematics import ScatterConfig

    pol = PolarizationPair(
        left=np.array([0.0, 1.0, 1.0j]) / math.sqrt(2), right=np.array([0.0, 0.0, 1.0])
    )
    result = minimize_contrast(spin_matrix(ScatterConfig(q_l=0.02, q3=1.0), pol))
    assert result.value < 1e-3
    # the kernel direction sits a q_l-linear offset below 7pi/4
    assert result.alpha == pytest.approx(7.0 * math.pi / 4.0, abs=1e-2)
    assert abs(result.phi) <= 1e-3


def test_minimize_constant_functional():
    result = minimize_contrast(np.eye(2))
    assert result.value == 1.0
    assert result.iterations == 0
    assert result.status is NewtonStatus.CONVERGED_GRADIENT
    # tie-break over the all-equal grid: lowest alpha first, then lowest phi
    assert result.alpha == 0.0 and result.phi == 0.0


def test_minimize_rejects_zero_matrix():
    with pytest.raises(ValueError):
        minimize_contrast(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        minimize_contrast(np.ones((3, 3)))


def test_minimize_range_and_probability_consistency():
    rng = np.random.RandomState(17)
    for _ in range(50):
        result = minimize_contrast(random_matrix(rng))
        assert 0.0 <= result.value <= 1.0
        assert result.value == pytest.approx(result.prob_a / result.prob_b, rel=1e-12)


def test_minimize_dominates_seed_grid():
    # a 126 x 63 angle grid, spacing pi/63 on both axes
    ALPHA_SEED_COUNT = 126
    PHI_SEED_COUNT = 63
    rng = np.random.RandomState(21)
    alphas = np.arange(ALPHA_SEED_COUNT) * (TWO_PI / ALPHA_SEED_COUNT)
    phis = np.arange(PHI_SEED_COUNT) * (math.pi / PHI_SEED_COUNT)
    for _ in range(20):
        m = random_matrix(rng)
        seed_min = float(np.min(grid_contrast(m, alphas, phis)))
        result = minimize_contrast(m)
        assert result.value <= seed_min * (1.0 + 1e-12) + 1e-300


def eigen_contrast(m):
    """Independent oracle: (lambda_min / lambda_max, lambda_min, lambda_max) of M^dag M."""
    low, high = np.linalg.eigvalsh(m.conj().T @ m)
    return low / high, low, high


@pytest.mark.parametrize(
    "q2, q3", [(0.0, 1.014), (-5e-4, 1.0145), (5e-4, 1.0145), (0.0, 1.0145), (0.0, 1.015)]
)
def test_minimize_exact_at_pole_stall_points(q2, q3):
    # optimum near the alpha = 0 pole of the README q2,q3 tile, where a
    # gradient iteration in (alpha, phi) stalls 0.2-0.5 % above the minimum
    m = spin_matrix(ScatterConfig(q_l=0.02, q2=q2, q3=q3), elliptic_polarization(math.pi / 4.0))
    result = minimize_contrast(m)
    assert result.value == pytest.approx(eigen_contrast(m)[0], rel=1e-10)
    alphas = np.linspace(0.0, TWO_PI, 2000, endpoint=False)
    phis = np.linspace(0.0, math.pi, 1000, endpoint=False)
    assert result.value <= float(np.min(grid_contrast(m, alphas, phis)))
    assert result.status is NewtonStatus.CONVERGED_GRADIENT


def test_minimize_matches_eigenvalues_near_poles():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    angle = st.floats(-math.pi, math.pi)
    # a small right rotation makes P nearly diagonal: optimum at alpha ~ 0 or pi,
    # within the pi/63 spacing of the old seed grid around the pole
    tilt = st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6), st.floats(-0.02, 0.02), angle)
    singular = st.floats(0.1, 1.0)

    def unitary(theta, xi, eta):
        return np.array(
            [
                [math.cos(theta) * np.exp(1j * xi), math.sin(theta) * np.exp(1j * eta)],
                [-math.sin(theta) * np.exp(-1j * eta), math.cos(theta) * np.exp(-1j * xi)],
            ]
        )

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(angle, angle, angle, tilt, angle, angle, singular, singular)
    def check(u_theta, u_xi, u_eta, v_theta, v_xi, v_eta, s0, s1):
        # condition number of P is at most 100, so eigvalsh resolves
        # lambda_min to ~1e-14 relative
        m = unitary(u_theta, u_xi, u_eta) @ np.diag([s0, s1]) @ unitary(v_theta, v_xi, v_eta)
        ratio, low, high = eigen_contrast(m)
        result = minimize_contrast(m)
        assert result.value == pytest.approx(ratio, rel=1e-12)
        assert result.prob_a == pytest.approx(low, rel=1e-12)
        assert result.prob_b == pytest.approx(high, rel=1e-12)

    check()


def test_minimize_beats_brute_force_grid():
    rng = np.random.RandomState(29)
    alphas = np.linspace(0.0, TWO_PI, 2000, endpoint=False)
    phis = np.linspace(0.0, math.pi, 1000, endpoint=False)
    for _ in range(50):
        m = random_matrix(rng)
        brute = float(np.min(grid_contrast(m, alphas, phis)))
        result = minimize_contrast(m)
        assert brute >= result.value - 1e-6


def test_minimize_scaling_invariance():
    rng = np.random.RandomState(31)
    for _ in range(10):
        m = random_matrix(rng)
        base = minimize_contrast(m)
        for scale in (2.0, 0.5, 1j, 1.0 + 2.0j, 10.0, 0.1):
            scaled = minimize_contrast(scale * m)
            assert scaled.value == pytest.approx(base.value, abs=1e-12)
            assert scaled.alpha == pytest.approx(base.alpha, abs=1e-12)
            assert scaled.phi == pytest.approx(base.phi, abs=1e-12)


def test_minimize_survives_extreme_scales():
    rng = np.random.RandomState(41)
    m = random_matrix(rng)
    base = minimize_contrast(m)
    for scale in (1e-200, 1e-150, 1e150):
        result = minimize_contrast(scale * m)
        assert result.value == pytest.approx(base.value, abs=1e-12)
        assert result.alpha == pytest.approx(base.alpha, abs=1e-12)
        assert 0.0 <= result.value <= 1.0


def test_minimize_unitary_invariance():
    rng = np.random.RandomState(37)
    for _ in range(20):
        m = random_matrix(rng)
        unitary, _ = np.linalg.qr(random_matrix(rng))
        base = minimize_contrast(m)
        rotated = minimize_contrast(unitary @ m)
        assert rotated.value == pytest.approx(base.value, abs=1e-10)


# output tolerances of the benchmark's closed-form check (bench/oracle.py)
CONTRAST_RTOL = 1e-8
CONTRAST_ATOL = 1e-12
PROB_RTOL = 1e-8


def test_batch_minimizer_matches_scalar():
    rng = np.random.RandomState(43)
    generic = rng.randn(300, 2, 2) + 1j * rng.randn(300, 2, 2)
    singular = generic[:50].copy()
    singular[:, 1] = (0.3 - 0.2j) * singular[:, 0]  # rank one: contrast 0
    pole = generic[50:100].copy()
    pole[:, 0, 1] = pole[:, 1, 0] = 0.0  # diagonal P: optimum on alpha = 0 or pi
    tile = np.array(
        [
            spin_matrix(ScatterConfig(q_l=0.02, q2=q2, q3=q3), elliptic_polarization(math.pi / 4.0))
            for q2 in (-5e-4, 0.0, 0.03)
            for q3 in (0.0, 0.5, 1.0, 1.014, 1.0145)
        ]
    )
    stack = np.concatenate([generic, singular, pole, tile, np.eye(2)[None], 1e-3 * generic[:5]])
    batch = minimize_contrast_batch(stack)
    for i, m in enumerate(stack):
        ref = minimize_contrast(m)
        assert abs(batch.value[i] - ref.value) <= CONTRAST_RTOL * ref.value + CONTRAST_ATOL
        assert abs(batch.prob_a[i] - ref.prob_a) <= PROB_RTOL * ref.prob_b
        assert abs(batch.prob_b[i] - ref.prob_b) <= PROB_RTOL * ref.prob_b
        assert batch.alpha[i] == pytest.approx(ref.alpha, abs=1e-9)
        assert batch.phi[i] == pytest.approx(ref.phi, abs=1e-9)


def test_batch_minimizer_marks_zero_and_nonfinite_matrices():
    # NaN exactly where the scalar form rejects the matrix
    rejected = [np.zeros((2, 2)), 1e-305 * np.eye(2), np.full((2, 2), np.nan)]
    for m in rejected:
        with pytest.raises(ValueError):
            minimize_contrast(m)
    batch = minimize_contrast_batch(np.array(rejected + [np.eye(2)], dtype=complex))
    for field in (batch.value, batch.alpha, batch.phi, batch.prob_a, batch.prob_b):
        assert np.isnan(field[:3]).all() and not np.isnan(field[3])
    with pytest.raises(ValueError):
        minimize_contrast_batch(np.eye(2))

import math
from fractions import Fraction

import brute_force
import numpy as np
import pytest

from kdspin.compton import elliptic_polarization, spin_matrix, spin_matrix_batch
from kdspin.contrast import (
    BlochPair,
    DegenerateDenominatorError,
    NewtonStatus,
    bloch_spinors,
    contrast_at,
    contrast_derivatives,
    minimize_contrast,
    minimize_contrast_batch,
)
from kdspin.contrast import _dot2, _fold
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


def test_derivatives_raise_where_denominator_vanishes():
    # at alpha = 0, psi_B = (0, -1) spans the kernel of diag(1, 0): |M psi_B|^2 = 0
    with pytest.raises(DegenerateDenominatorError):
        contrast_derivatives(np.diag([1.0, 0.0]), BlochPair(0.0, 0.0))


def test_closed_form_minimum_is_stationary():
    # the minimizer's angles and the analytic derivatives share one Bloch form:
    # at the closed-form minimum C' is stationary, with no descent direction
    rng = np.random.RandomState(14)
    for _ in range(500):
        m = random_matrix(rng)
        result = minimize_contrast(m)
        grad, hess = contrast_derivatives(m, BlochPair(result.alpha, result.phi))
        scale = np.max(np.abs(hess))
        assert np.max(np.abs(grad)) <= 1e-12 * (1.0 + scale)
        assert np.min(np.linalg.eigvalsh(hess)) >= -1e-12 * scale


def test_fold_scalar_matches_array():
    # the fold is elementwise: a scalar folds to the bits of its entry in any array
    below_pi = np.nextafter(math.pi, 0.0)
    alphas = [0.0, TWO_PI, 1.0, 0.0, TWO_PI, 2.5, 0.5, math.nan]
    phis = [math.pi, math.pi, math.pi, below_pi, below_pi, math.nan, -0.0, 4.0]
    alpha, phi = _fold(np.array(alphas), np.array(phis))
    for i, pair in enumerate(zip(alphas, phis)):
        one = _fold(*(np.float64(v) for v in pair))
        assert [np.float64(v).tobytes() for v in one] == [alpha[i].tobytes(), phi[i].tobytes()]
    assert alpha[:3].tolist() == [0.0, 0.0, TWO_PI - 1.0] and phi[:3].tolist() == [0.0] * 3
    assert alpha[3:5].tolist() == alphas[3:5] and phi[3:5].tolist() == [below_pi] * 2
    assert math.isnan(phi[5]) and alpha[5] == 2.5 and math.copysign(1.0, phi[6]) == -1.0


def _dot2_reference(x, y):
    """Dot2 as written out in Ogita, Rump and Oishi (2005): TwoProduct of each factor pair,
    with each factor split on its own, and a TwoSum per term."""
    x_hi, y_hi = (134217729.0 * f - (134217729.0 * f - f) for f in (x, y))
    x_lo, y_lo, prods = x - x_hi, y - y_hi, x * y
    errs = x_lo * y_lo - (((prods - x_hi * y_hi) - x_lo * y_hi) - x_hi * y_lo)
    total, err = prods[0], errs[0]
    for prod, prod_err in zip(prods[1:], errs[1:]):
        new = total + prod
        back = new - total
        err = err + (((total - (new - back)) + (prod - back)) + prod_err)
        total = new
    return total + err


def _rank_one_parts(n=12000):
    """(8, n) parts (r00, i00, r01, i01, r10, i10, r11, i11) of rank-one and near-rank-one matrices,
    the inputs that take the error-free path, and their det u by ``_dot2_reference``."""
    rng = np.random.default_rng(20261018)
    u, v, noise = (rng.normal(size=(n, 2, 2)) @ np.array([1.0, 1j]) for _ in range(3))
    m = u[:, :, None] * v[:, None, :] + 10.0 ** rng.uniform(-18, -6, n)[:, None, None] * noise.reshape(n, 1, 2)
    m[: n // 4] = m[: n // 4].real  # real rank-one factors, with exact zeros in the imaginary parts
    parts = np.ascontiguousarray(m).view(float).reshape(n, 8).T
    r00, i00, r01, i01, r10, i10, r11, i11 = parts
    x = np.array([[r00, r00], [-i00, i00], [-r01, -r01], [i01, -i01]])
    y = np.array([[r11, i11], [i11, r11], [r10, i10], [i10, r10]])
    return parts, _dot2_reference(x, y)


def test_dot2_matches_reference_on_rank_one():
    parts, expected = _rank_one_parts()
    assert np.array(_dot2(*parts)).tobytes() == expected.tobytes()


def test_dot2_one_matrix_matches_reference_on_rank_one():
    # one matrix at a time, on its numpy scalars and on the Python floats that _closed_form passes
    parts, expected = _rank_one_parts()
    for column, want in zip(parts.T, expected.T):
        assert np.array(_dot2(*column)).tobytes() == want.tobytes()
        assert np.array(_dot2(*column.tolist())).tobytes() == want.tobytes()


def test_canonicalize_phi_identification():
    alpha, phi = _fold(0.5 * math.pi, 1.5 * math.pi)
    assert alpha == pytest.approx(1.5 * math.pi, rel=1e-15)
    assert phi == pytest.approx(0.5 * math.pi, rel=1e-15)


def test_canonicalize_in_bounds_unchanged():
    assert _fold(math.pi, 0.5 * math.pi) == (math.pi, 0.5 * math.pi)


def test_canonicalize_preserves_contrast():
    rng = np.random.RandomState(9)
    for _ in range(50):
        m = random_matrix(rng)
        pair = BlochPair(rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI))
        folded = BlochPair(*map(float, _fold(*pair)))
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


def test_reference_angle_offset_in_closed_form():
    # criterion 1's offset: alpha = 7pi/4 - (1 - 1/sqrt(2)) q_l + O(q_l^2) at q3 = 1, theta = pi/4
    for q_l in (0.04, 0.02, 0.01, 0.005, 0.0025):
        m = spin_matrix(ScatterConfig(q_l=q_l, q3=1.0), elliptic_polarization(math.pi / 4.0))
        alpha = minimize_contrast(m).alpha
        assert abs(alpha - 7.0 * math.pi / 4.0 + (1.0 - 1.0 / math.sqrt(2.0)) * q_l) <= 0.01 * q_l**2


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


@pytest.mark.slow
def test_minimize_beats_brute_force_grid():
    rng = np.random.RandomState(29)
    alphas = np.linspace(0.0, TWO_PI, 2000, endpoint=False)
    phis = np.linspace(0.0, math.pi, 1000, endpoint=False)
    sample = np.random.default_rng(29)
    for _ in range(50):
        m = random_matrix(rng)
        brute = brute_force.grid_minimum(m, alphas, phis, sample)
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


def minimizer_stacks():
    """Named stacks of 2x2 matrices: random, rank one, diagonal P, README-tile points."""
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
    other = np.concatenate([tile, np.eye(2)[None], 1e-3 * generic[:5]])
    return {"generic": generic, "singular": singular, "pole": pole, "other": other}


def test_batch_minimizer_matches_scalar():
    # one closed form serves both: every field agrees bit for bit
    stack = np.concatenate(list(minimizer_stacks().values()))
    batch = minimize_contrast_batch(stack)
    for i, m in enumerate(stack):
        ref = minimize_contrast(m)
        expected = [x.hex() for x in (ref.value, ref.alpha, ref.phi, ref.prob_a, ref.prob_b)]
        got = [float(f[i]).hex() for f in (batch.value, batch.alpha, batch.phi, batch.prob_a, batch.prob_b)]
        assert got == expected, f"matrix {i}"


def test_batch_of_one_is_its_row():
    # a batch of one runs on numpy scalars: its fields are (1,) arrays with the bits of its row,
    # rank-one (the Dot2 determinant), zero and NaN matrices included
    nan = np.full((2, 2), np.nan)
    stack = np.concatenate(list(minimizer_stacks().values()) + [np.zeros((1, 2, 2)), nan[None]])
    batch = minimize_contrast_batch(stack)
    fields = ("value", "alpha", "phi", "prob_a", "prob_b")
    for i in range(len(stack)):
        one = minimize_contrast_batch(stack[i : i + 1])
        for name in fields:
            got, row = getattr(one, name), getattr(batch, name)[i : i + 1]
            assert got.shape == (1,) and got.tobytes() == row.tobytes(), (i, name)
    assert np.isnan(batch.value[-2:]).all()
    empty = minimize_contrast_batch(np.zeros((0, 2, 2)))
    assert all(getattr(empty, name).shape == (0,) for name in fields)


def exact_ratio(m):
    """|det M|^2 / (tr M^dag M)^2 of a float matrix, in exact rational arithmetic."""
    (m00, m01), (m10, m11) = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in m]

    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    p, q = mul(m00, m11), mul(m01, m10)
    det2 = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
    trace = sum(x * x + y * y for x, y in (m00, m01, m10, m11))
    return det2 / trace**2


def g_errors(stack):
    """(exact |det M|^2/(tr M^dag M)^2, |g(c) - exact|) of each matrix, g(c) = c/(1+c)^2."""
    out = []
    for m, c in zip(stack, minimize_contrast_batch(stack).value):
        exact, c = exact_ratio(m), Fraction(float(c))
        out.append((exact, abs(c / (1 + c) ** 2 - exact)))
    return out


def test_contrast_matches_exact_rational_oracle():
    # with c = lambda_min/lambda_max, c/(1+c)^2 = det P/(tr P)^2 = |det M|^2/(tr M^dag M)^2
    # holds exactly for the float matrix, so the float contrast is checked
    # without trusting any floating-point eigensolver
    q2 = np.linspace(-0.05, 0.05, 201)[::20]
    q3 = np.linspace(0.95, 1.05, 201)[::10]  # README tile columns and rows, q3 = 1 among them
    assert 1.0 in q3
    x, y = np.meshgrid(q2, q3)
    pol = elliptic_polarization(math.pi / 4.0)
    stacks = minimizer_stacks()
    tile = spin_matrix_batch(0.02, x.ravel(), y.ravel(), pol.left, pol.right)
    checked = g_errors(np.concatenate([tile, stacks["generic"], stacks["pole"]]))
    floor = [err / exact for exact, err in checked if exact <= Fraction(1e-20)]
    assert len(floor) >= 1  # the README tile's noise floor, contrast ~3e-26, at q2 = 0, q3 = 1
    assert max(floor) <= 1e-4
    assert all(err <= Fraction(1e-12) * exact for exact, err in checked if exact > Fraction(1e-20))
    # a rank-one matrix rounded to floats keeps |det M|^2/(tr P)^2 ~ 1e-37; the
    # determinant of O(1) entries is only good to a few eps, so check absolutely
    eps = np.finfo(float).eps
    singular = g_errors(stacks["singular"])
    assert all(exact <= Fraction(1e-20) and err <= Fraction((16 * eps) ** 2) for exact, err in singular)


def test_batch_minimizer_marks_zero_and_nonfinite_matrices():
    # NaN exactly where the scalar form rejects the matrix
    rejected = [
        np.zeros((2, 2)),
        1e-305 * np.eye(2),
        np.full((2, 2), np.nan),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [0.0, complex(0.0, -np.inf)]]),
        np.array([[1e200, 0.0], [0.0, 1.0]]),
        np.array([[1.2e154, 1.2e154], [0.0, 0.0]]),  # finite scale^2, but |M|_F^2 overflows
    ]
    for m in rejected:
        with pytest.raises(ValueError):
            minimize_contrast(m)
    batch = minimize_contrast_batch(np.array(rejected + [np.eye(2)], dtype=complex))
    for field in (batch.value, batch.alpha, batch.phi, batch.prob_a, batch.prob_b):
        assert np.isnan(field[:-1]).all() and not np.isnan(field[-1])
    with pytest.raises(ValueError):
        minimize_contrast_batch(np.eye(2))


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_minimize_contrast_names_nonfinite_matrix(entry):
    with pytest.raises(ValueError, match="non-finite"):
        minimize_contrast(np.array([[entry, 0.0], [0.0, 1.0]]))


@pytest.mark.filterwarnings("error")
def test_minimize_contrast_rejects_overflowing_probability():
    # the true prob_A of diag(1e200, 1) is 1, but prob_A + prob_B = |M|_F^2 has no float
    for m in (np.array([[1e200, 0.0], [0.0, 1.0]]), np.array([[1.2e154, 1.2e154], [0.0, 0.0]])):
        with pytest.raises(ValueError, match="overflows"):
            minimize_contrast(m)
        assert np.isnan(minimize_contrast_batch(m[None]).prob_b).all()
    m = 1e150 * random_matrix(np.random.RandomState(47))
    low, high = np.linalg.eigvalsh(m.conj().T @ m)
    scalar, batch = minimize_contrast(m), minimize_contrast_batch(m[None])
    for value, prob_a, prob_b in ((scalar.value, scalar.prob_a, scalar.prob_b), (batch.value[0], batch.prob_a[0], batch.prob_b[0])):
        assert value == pytest.approx(low / high, rel=1e-10)
        assert prob_a == pytest.approx(low, rel=1e-10) and prob_b == pytest.approx(high, rel=1e-10)

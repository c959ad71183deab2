import math

import decimal_kernel
import numpy as np
import pytest

from kdspin.compton import (
    PolarizationPair,
    _elliptic_parts,
    compton_tensor,
    contract_polarization,
    elliptic_left,
    elliptic_polarization,
    spin_matrix,
    spin_matrix_batch,
)
from kdspin.contrast import minimize_contrast, minimize_contrast_batch
from kdspin.dirac import PAULI_MATRICES
from kdspin.kinematics import ScatterConfig

E3 = np.array([0.0, 0.0, 1.0 + 0.0j])
CIRCULAR = np.array([0.0, 1.0, 1.0j]) / math.sqrt(2.0)
ID2 = np.eye(2)
EPS = np.finfo(float).eps


def pauli_coefficients(block):
    """Decompose a 2x2 matrix into (identity, sigma_1, sigma_2, sigma_3) weights."""
    coeffs = [np.trace(block) / 2.0]
    coeffs += [np.trace(PAULI_MATRICES[i] @ block) / 2.0 for i in range(3)]
    return np.array(coeffs)


def test_elliptic_polarization_quarter():
    pol = elliptic_polarization(math.pi / 4.0)
    assert np.allclose(pol.left, [0.0, 1.0 / math.sqrt(2), 1j / math.sqrt(2)], atol=1e-15)
    assert np.array_equal(pol.right, E3)


def test_elliptic_polarization_linear():
    pol = elliptic_polarization(0.0)
    assert np.array_equal(pol.left, [0.0, 1.0, 0.0])


def test_elliptic_polarization_squeezed():
    pol = elliptic_polarization(math.asin(0.02))
    assert pol.left[1].real == pytest.approx(math.sqrt(1.0 - 0.02**2), rel=1e-15)
    assert pol.left[2] == pytest.approx(0.02j, rel=1e-15)


@np.errstate(invalid="ignore")
def test_elliptic_left_matches_stack_bits():
    # the (0, cos, i sin) rows bit for bit as np.stack builds them, on seeded and special angles
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e-320, math.pi / 2.0, -math.pi]
    angles = np.concatenate([np.random.default_rng(24).uniform(-10.0, 10.0, 1000), special])
    for theta in (angles, angles.reshape(-1, 1), angles[:1004].reshape(4, 251), *map(np.float64, special), 0.5):
        theta = np.asarray(theta, dtype=float)
        stacked = np.stack([np.zeros_like(theta), np.cos(theta), 1j * np.sin(theta)], axis=-1)
        left = elliptic_left(theta)
        assert left.shape == stacked.shape and left.dtype == stacked.dtype
        assert left.tobytes() == stacked.tobytes()
    # one angle's parts on Python floats, as the one-q3 locus takes them, and its beam pair
    for theta in angles.tolist():
        parts = _elliptic_parts(theta)
        assert all(type(part) is float for part in parts)
        assert np.array(parts).tobytes() == elliptic_left(theta).view(float)[2:].tobytes(), theta
        if math.isfinite(theta):
            assert elliptic_polarization(theta).left.tobytes() == elliptic_left(theta).tobytes(), theta


def test_polarization_validation():
    nan, inf = math.nan, math.inf
    cases = [
        ({"left": np.zeros(2)}, "left amplitude must be a 3-vector"),
        ({"right": np.zeros((3, 1))}, "right amplitude must be a 3-vector"),
        ({"left": np.array([0, nan, 0])}, "left amplitude must be finite"),
        ({"left": np.array([0, 0, complex(0, inf)])}, "left amplitude must be finite"),
        ({"right": np.array([0, -inf, 1])}, "right amplitude must be finite"),
        ({"right": np.array([0, complex(0, nan), 1])}, "right amplitude must be finite"),
        ({"left": np.array([0.1, 0, 0])}, "left amplitude must have zero x-component"),
        ({"right": np.array([0.1j, 0, 1])}, "right amplitude must have zero x-component"),
        ({"left": np.zeros(3), "right": np.array([-0.0, 0, -0.0])}, "at least one beam amplitude must be nonzero"),
    ]
    for beams, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            PolarizationPair(**{"left": CIRCULAR, "right": E3, **beams})
    # one imaginary part lights a beam
    assert PolarizationPair(left=np.zeros(3), right=np.array([0, 0, 1e-300j])).right[2] == 1e-300j


def test_polarization_accepts_any_array_like_beam():
    columns = np.zeros((3, 2), dtype=complex)
    columns[1:, 0] = CIRCULAR[1:]
    reversed_e3 = np.array([1.0, 0.0, 0.0j])[::-1]
    strided = PolarizationPair(left=columns[:, 0], right=reversed_e3)
    beams = [columns[:, 0], reversed_e3, [0, 0, 1], (0, 1j, 0.5), np.array([0.0, 2.0, 0.0])]
    for beam in beams:
        pol = PolarizationPair(left=beam, right=beam)
        assert pol.left.dtype == complex and pol.left.flags.c_contiguous
        assert np.array_equal(pol.left, np.asarray(beam, dtype=complex))
    contiguous = PolarizationPair(left=CIRCULAR, right=E3)
    cfg = ScatterConfig(q_l=0.02, q2=0.013, q3=0.4)
    assert spin_matrix(cfg, strided).tobytes() == spin_matrix(cfg, contiguous).tobytes()
    # the pair holds its own copy: writing to the caller's array leaves it valid
    columns[0, 0] = 1.0
    assert strided.left[0] == 0


def test_polarization_beams_are_read_only_and_keep_their_bits():
    pol = PolarizationPair(left=CIRCULAR, right=E3)
    for beam in (pol.left, pol.right, pol.left.view(float), np.asarray(pol.right)[1:]):
        with pytest.raises(ValueError, match="read-only"):
            beam[-1] = 0.5
    cfg = ScatterConfig(q_l=0.02, q2=0.013, q3=0.4)
    assert spin_matrix(cfg, pol).tobytes() == spin_matrix(cfg, PolarizationPair(CIRCULAR, E3)).tobytes()
    # the floats the pair keeps are its beams' parts: spin_matrix has the bits of its batch row
    columns = np.zeros((3, 2), dtype=complex)
    columns[1:, 1] = [complex(-0.0, 0.3), complex(0.7, -0.0)]
    pairs = [
        ([0, 1, 2], [0, 0, 1]),  # ints
        (columns[:, 1], np.array([1.0, 0.0, 0.0j])[::-1]),  # strided and reversed views
        ([0, complex(-0.0, -0.0), complex(0.0, -1.0)], [-0.0, complex(-0.0, 1.0), -0.0]),  # signed zeros
        (CIRCULAR, [0, complex(0.6, -0.8), complex(-0.3, 1e-300)]),  # complex right beams
        ([0, complex(1e300, -1e-300), 1e-320], [0, complex(-5e-324, 2.0), 1e300]),  # extreme parts
    ]
    q2, q3 = np.array([0.0, -0.013, 2.0, 1e160]), np.array([1.0, 0.4, -0.0, 3.0])
    for left, right in pairs:
        pol = PolarizationPair(left=left, right=right)
        assert list(pol._parts) == pol.left.view(float).tolist()[2:] + pol.right.view(float).tolist()[2:]
        batch = spin_matrix_batch(0.02, q2, q3, pol.left, pol.right)
        for i in range(len(q2)):
            point = spin_matrix(ScatterConfig(0.02, q2[i], q3[i]), pol)
            nan = np.isnan(point.view(float))
            assert np.array_equal(nan, np.isnan(batch[i].view(float))), (left, right, i)
            assert point.view(float)[~nan].tobytes() == batch[i].view(float)[~nan].tobytes(), (left, right, i)


def test_polarization_validation_matches_reference_order():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    part = st.sampled_from([0.0, -0.0, 1.0, 1e-300, math.nan, math.inf, -math.inf])
    beam = st.lists(st.builds(complex, part, part), min_size=3, max_size=3)

    def first_failure(left, right):
        for name, vec in (("left", left), ("right", right)):
            if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in vec):
                return f"{name} amplitude must be finite"
            if vec[0].real != 0.0 or vec[0].imag != 0.0:
                return f"{name} amplitude must have zero x-component"
        if all(v.real == 0.0 and v.imag == 0.0 for v in left + right):
            return "at least one beam amplitude must be nonzero"
        return None

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(beam, beam)
    def check(left, right):
        message = first_failure(left, right)
        if message is None:
            pol = PolarizationPair(left=np.array(left), right=np.array(right))
            assert pol.left.tolist() == left and pol.right.tolist() == right
        else:
            with pytest.raises(ValueError, match=f"^{message}$"):
                PolarizationPair(left=np.array(left), right=np.array(right))

    check()


def test_dark_left_beam_gives_zero_matrix():
    # antilinearity in the left amplitude: zero amplitude, zero matrix
    pol = PolarizationPair(left=np.zeros(3), right=E3)
    m = spin_matrix(ScatterConfig(q_l=0.02, q3=1.0), pol)
    assert np.array_equal(m, np.zeros((2, 2)))


def test_tensor_block_22_approaches_identity():
    # deviation from the limit is (q_l^2)/2 plus the 1/q_l cancellation floor
    tensor = compton_tensor(ScatterConfig(q_l=1e-4))
    assert np.allclose(tensor[:, :, 2, 2], ID2, rtol=0, atol=1e-8)


def test_tensor_block_23_leading_term():
    tensor = compton_tensor(ScatterConfig(q_l=0.02))
    target = -1j * 0.02 * PAULI_MATRICES[0]
    assert np.max(np.abs(tensor[:, :, 2, 3] - target)) <= 5.0 * 0.02**3


def test_tensor_matches_expansion_third_order():
    from kdspin.taylor import taylor_tensor

    cfg = ScatterConfig(q_l=0.02, q2=0.01, q3=0.01)
    tensor = compton_tensor(cfg)
    blocks = taylor_tensor(cfg)
    bound = 5.0 * 0.02**3
    for (i, j), block in (
        ((2, 2), blocks.m22),
        ((2, 3), blocks.m23),
        ((3, 2), blocks.m32),
        ((3, 3), blocks.m33),
    ):
        assert np.max(np.abs(tensor[:, :, i, j] - block)) <= bound


def test_swap_structure_flips_sigma1_only():
    tensor = compton_tensor(ScatterConfig(q_l=0.01, q2=0.005, q3=0.005))
    fwd = pauli_coefficients(tensor[:, :, 2, 3])
    rev = pauli_coefficients(tensor[:, :, 3, 2])
    bound = 5.0 * 0.01**3
    assert abs(fwd[1] + rev[1]) <= bound  # sigma_1 weight flips sign
    assert abs(fwd[0] - rev[0]) <= bound
    assert abs(fwd[2] - rev[2]) <= bound
    assert abs(fwd[3] - rev[3]) <= bound


def test_contraction_linear_in_right_antilinear_in_left():
    cfg = ScatterConfig(q_l=0.02, q2=0.01, q3=0.3)
    tensor = compton_tensor(cfg)
    scale = 0.7 - 1.3j
    base = contract_polarization(tensor, PolarizationPair(left=CIRCULAR, right=E3))
    right_scaled = contract_polarization(
        tensor, PolarizationPair(left=CIRCULAR, right=scale * E3)
    )
    assert np.allclose(right_scaled, scale * base, rtol=1e-14, atol=1e-18)
    left_scaled = contract_polarization(
        tensor, PolarizationPair(left=scale * CIRCULAR, right=E3)
    )
    assert np.allclose(left_scaled, np.conj(scale) * base, rtol=1e-14, atol=1e-18)


def test_contraction_ignores_time_components():
    cfg = ScatterConfig(q_l=0.02, q2=0.01, q3=0.5)
    tensor = compton_tensor(cfg)
    pol = PolarizationPair(left=CIRCULAR, right=E3)
    base = contract_polarization(tensor, pol)
    spoiled = tensor.copy()
    spoiled[:, :, 0, :] = 123.0 + 45.0j
    spoiled[:, :, :, 0] = -67.0 + 8.0j
    assert np.array_equal(contract_polarization(spoiled, pol), base)


def test_contrast_invariant_under_global_polarization_phase():
    cfg = ScatterConfig(q_l=0.02, q2=0.0, q3=0.4)
    tensor = compton_tensor(cfg)
    base = minimize_contrast(contract_polarization(tensor, PolarizationPair(left=CIRCULAR, right=E3)))
    for phase in (np.exp(0.3j), np.exp(-1.1j)):
        left = minimize_contrast(
            contract_polarization(tensor, PolarizationPair(left=phase * CIRCULAR, right=E3))
        )
        right = minimize_contrast(
            contract_polarization(tensor, PolarizationPair(left=CIRCULAR, right=phase * E3))
        )
        assert left.value == pytest.approx(base.value, abs=1e-12)
        assert right.value == pytest.approx(base.value, abs=1e-12)


def test_low_momentum_closed_form_matrix():
    m = spin_matrix(ScatterConfig(q_l=0.02), elliptic_polarization(math.asin(0.02)))
    target = -0.02j * np.ones((2, 2))
    assert np.max(np.abs(m - target)) <= 0.02 * 0.02**2  # relative error O(q_l^2)
    assert np.all(m.real == 0.0)  # exactly anti-Hermitian times i at q2 = 0


def test_reference_point_has_vanishing_contrast():
    pol = PolarizationPair(left=CIRCULAR, right=E3)
    result = minimize_contrast(spin_matrix(ScatterConfig(q_l=0.02, q3=1.0), pol))
    assert result.value < 1e-3
    assert result.prob_b > 0.0


def test_batch_matches_tensor_contraction():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    part = st.floats(-1.0, 1.0)
    amplitude = st.tuples(part, part, part, part).filter(lambda v: max(map(abs, v)) > 1e-3)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.floats(-0.05, 0.05), st.floats(0.0, 1.05), amplitude, amplitude)
    def check(q2, q3, left_parts, right_parts):
        # independent complex y and z amplitudes: elliptic and beyond
        left = np.array([0.0, complex(*left_parts[:2]), complex(*left_parts[2:])])
        right = np.array([0.0, complex(*right_parts[:2]), complex(*right_parts[2:])])
        pol = PolarizationPair(left=left, right=right)
        reference = contract_polarization(compton_tensor(ScatterConfig(q_l=0.02, q2=q2, q3=q3)), pol)
        batch = spin_matrix_batch(0.02, np.array([q2]), np.array([q3]), left[None], right)[0]
        # both paths round the two O(1/q_l) diagrams before they cancel, so the
        # gap scales with |left| |right| (M is bilinear in them), not with |M|
        scale = np.linalg.norm(left) * np.linalg.norm(right)
        assert np.max(np.abs(batch - reference)) <= 1e-13 * scale

    check()


def test_batch_result_independent_of_batch_size():
    # one grid row of the README tile: a point's matrix and contrast fields
    # must not depend on which batch evaluates it
    q2 = np.linspace(-0.05, 0.05, 201)
    q3 = np.full(201, 1.0145)
    left = elliptic_left(np.full(201, math.pi / 4.0))

    def evaluate(index):
        m = spin_matrix_batch(0.02, q2[index], q3[index], left[index], E3)
        res = minimize_contrast_batch(m)
        return m, np.stack([res.value, res.alpha, res.phi, res.prob_a, res.prob_b])

    row_m, row_fields = evaluate(slice(None))
    strip = slice(None, None, 5)  # 41 points
    strip_m, strip_fields = evaluate(strip)
    assert np.array_equal(strip_m, row_m[strip])
    assert np.array_equal(strip_fields, row_fields[:, strip])
    for i in (0, 37, 100, 200):
        alone_m, alone_fields = evaluate(slice(i, i + 1))
        assert np.array_equal(alone_m, row_m[i : i + 1])
        assert np.array_equal(alone_fields, row_fields[:, i : i + 1])


def random_configurations(count, seed):
    """(q_l, q2, q3, left, right) over q_l in [1e-8, 0.1] (log-uniform), |q2| <= 1 and
    q3 in [0, 100], half of them with q3 <= 1.5; complex y and z beam amplitudes."""
    rng = np.random.default_rng(seed)
    q_l = 10.0 ** rng.uniform(-8.0, -1.0, count)
    q2 = rng.uniform(-1.0, 1.0, count)
    q3 = np.where(np.arange(count) % 2, rng.uniform(0.0, 100.0, count), rng.uniform(0.0, 1.5, count))
    beams = np.zeros((2, count, 3), dtype=complex)
    beams[:, :, 1:] = rng.normal(size=(2, count, 2)) + 1j * rng.normal(size=(2, count, 2))
    return q_l, q2, q3, beams[0], beams[1]


def test_spin_matrix_is_batch_of_one():
    cfg = ScatterConfig(q_l=0.02, q2=0.01, q3=0.7)
    pol = PolarizationPair(left=CIRCULAR, right=E3)
    batch = spin_matrix_batch(cfg.q_l, np.array([0.01, cfg.q2]), np.array([0.2, cfg.q3]), CIRCULAR, E3)
    assert spin_matrix(cfg, pol).tobytes() == batch[1].tobytes()
    # spin_matrix runs on Python floats, a batch on arrays: the same bits either way
    q_l, q2, q3, left, right = random_configurations(200, seed=7)
    for i in range(200):
        batch = spin_matrix_batch(q_l[i], q2, q3, left, right)
        cfg = ScatterConfig(q_l=q_l[i], q2=q2[i], q3=q3[i])
        pol = PolarizationPair(left=left[i], right=right[i])
        assert spin_matrix(cfg, pol).tobytes() == batch[i].tobytes()


def test_batch_of_one_is_its_row():
    # scalars and every layout that broadcasts to one point run on arrays: shape (2, 2) or (1, 2, 2),
    # and the bits of the same point in a batch of 200
    q_l, q2, q3, left, right = random_configurations(200, seed=11)
    for i in (0, 1, 57, 198):
        row = spin_matrix_batch(q_l[i], q2, q3, left, right)[i]
        alone = spin_matrix_batch(q_l[i], q2[i], q3[i], left[i], right[i])
        assert alone.shape == (2, 2) and alone.tobytes() == row.tobytes()
        layouts = {
            "q2": (q2[i : i + 1], q3[i], left[i], right[i]),
            "q3": (q2[i], q3[i : i + 1], left[i], right[i]),
            "left": (q2[i], q3[i], left[i : i + 1], right[i]),
            "right": (q2[i], q3[i], left[i], right[i : i + 1]),
            "all": (q2[i : i + 1], q3[i : i + 1], left[i : i + 1], right[i : i + 1]),
        }
        for name, args in layouts.items():
            one = spin_matrix_batch(q_l[i], *args)
            assert one.shape == (1, 2, 2), name
            assert one.tobytes() == row.tobytes(), name
    # a (1, 1) broadcast is no batch of one
    deep = CIRCULAR[None, None]
    for q2_one, left_one in ((np.zeros((1, 1)), CIRCULAR), (0.0, deep), (np.zeros(1), deep)):
        with pytest.raises(ValueError, match=r"must broadcast to shape \(N,\)"):
            spin_matrix_batch(0.02, q2_one, 0.5, left_one, E3)


def test_batch_matches_decimal_block_formula():
    # the closed form against the block formula it was derived from, evaluated
    # with 50 digits to spare: nothing cancels, so the error stays near eps max|M|
    q_l, q2, q3, left, right = random_configurations(300, seed=2026)
    for i in range(300):
        m = spin_matrix_batch(q_l[i], q2[i : i + 1], q3[i : i + 1], left[i], right[i])[0]
        exact = decimal_kernel.spin_matrix(q_l[i], q2[i], q3[i], left[i], right[i])
        assert decimal_kernel.relative_error(m, exact) <= 8.0 * EPS
    for q3 in (1e6, 1e50, 1e150):  # q3^2 overflows only above ~1.3e154
        m = spin_matrix_batch(0.02, 0.01, q3, CIRCULAR, E3)
        exact = decimal_kernel.spin_matrix(0.02, 0.01, q3, CIRCULAR, E3)
        assert decimal_kernel.relative_error(m, exact) <= 8.0 * EPS
    assert np.isnan(spin_matrix_batch(0.02, 0.01, 1e155, CIRCULAR, E3)).all()


def test_batch_rejects_bad_photon_momentum():
    for q_l in (0.0, -0.02, math.inf, math.nan):
        with pytest.raises(ValueError):
            spin_matrix_batch(q_l, np.zeros(1), np.zeros(1), CIRCULAR, E3)


@pytest.mark.parametrize(
    "q2, q3, left",
    [
        # a (1, 5) by (3, 1) grid of momenta: the matrices would come out transposed and reshaped
        pytest.param(np.linspace(-0.05, 0.05, 5)[None, :], np.linspace(0.95, 1.05, 3)[:, None], CIRCULAR, id="grid"),
        # (5,) momenta against a (1, 5, 3) beam broadcast to (5, 5)
        pytest.param(np.zeros(5), np.linspace(0.0, 1.0, 5), np.tile(CIRCULAR, (1, 5, 1)), id="beam-3d"),
    ],
)
def test_batch_rejects_multidimensional_broadcast(q2, q3, left):
    with pytest.raises(ValueError, match=r"must broadcast to shape \(N,\)"):
        spin_matrix_batch(0.02, q2, q3, left, E3)

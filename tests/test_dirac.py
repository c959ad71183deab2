import numpy as np
import pytest

from kdspin.dirac import (
    GAMMA_MATRICES,
    IDENTITY_4,
    PAULI_MATRICES,
    bispinor_u,
    dirac_adjoint,
    slash,
)
from kdspin.kinematics import ScatterConfig, build_kinematics, minkowski_dot

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


def random_onshell_momentum(rng, qmax=2.0):
    q = rng.uniform(-qmax, qmax, size=3)
    return np.concatenate([[np.sqrt(1.0 + q @ q)], q])


def test_pauli_entries():
    assert np.array_equal(PAULI_MATRICES[0], [[0, 1], [1, 0]])
    assert np.array_equal(PAULI_MATRICES[1], [[0, -1j], [1j, 0]])
    assert np.array_equal(PAULI_MATRICES[2], [[1, 0], [0, -1]])


def test_gamma0_squares_to_identity():
    assert np.array_equal(GAMMA_MATRICES[0] @ GAMMA_MATRICES[0], IDENTITY_4)


def test_gamma_12_anticommute():
    g1, g2 = GAMMA_MATRICES[1], GAMMA_MATRICES[2]
    assert np.array_equal(g1 @ g2 + g2 @ g1, np.zeros((4, 4)))


def test_clifford_algebra_exact():
    # {gamma^mu, gamma^nu} = 2 g^{mu nu} with integer entries, so equality is exact
    for mu in range(4):
        for nu in range(4):
            gm, gn = GAMMA_MATRICES[mu], GAMMA_MATRICES[nu]
            assert np.array_equal(gm @ gn + gn @ gm, 2.0 * METRIC[mu, nu] * IDENTITY_4)


def test_rest_frame_bispinors():
    rest = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(bispinor_u(rest, 1), [1, 0, 0, 0])
    assert np.array_equal(bispinor_u(rest, 2), [0, 1, 0, 0])


def test_bispinor_validation():
    with pytest.raises(ValueError):
        bispinor_u(np.array([2.0, 0.0, 0.0, 0.0]), 1)  # off shell
    with pytest.raises(ValueError):
        bispinor_u(np.array([-1.0, 0.0, 0.0, 0.0]), 1)  # negative energy
    rest = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        bispinor_u(rest, 3)


def test_normalization_at_reference_momentum():
    kin = build_kinematics(ScatterConfig(q_l=0.02, q2=0.0, q3=1.0))
    for s in (1, 2):
        u = bispinor_u(kin.p_i, s)
        assert dirac_adjoint(u) @ u == pytest.approx(1.0, abs=1e-14)


def test_orthonormality_random_momenta():
    rng = np.random.RandomState(5)
    for _ in range(100):
        p = random_onshell_momentum(rng)
        for s in (1, 2):
            for sp in (1, 2):
                up = dirac_adjoint(bispinor_u(p, s)) @ bispinor_u(p, sp)
                target = 1.0 if s == sp else 0.0
                assert abs(up - target) <= 1e-12


def test_density_normalization_is_energy():
    rng = np.random.RandomState(6)
    for _ in range(50):
        p = random_onshell_momentum(rng)
        for s in (1, 2):
            u = bispinor_u(p, s)
            assert np.vdot(u, u).real == pytest.approx(p[0], rel=1e-12)


def test_slash_examples():
    assert np.array_equal(slash(np.array([1.0, 0, 0, 0])), GAMMA_MATRICES[0])
    k = np.array([0.7, 0.7, 0.0, 0.0])
    assert np.max(np.abs(slash(k) @ slash(k))) <= 1e-15


def test_slash_square_is_minkowski_norm():
    rng = np.random.RandomState(7)
    for _ in range(50):
        p = rng.uniform(-3, 3, size=4)
        sq = slash(p) @ slash(p)
        assert np.allclose(sq, minkowski_dot(p, p) * IDENTITY_4, rtol=0, atol=1e-12)


def test_adjoint_rows():
    assert np.array_equal(dirac_adjoint(np.array([1, 0, 0, 0], dtype=complex)), [1, 0, 0, 0])
    assert np.array_equal(dirac_adjoint(np.array([0, 0, 1, 0], dtype=complex)), [0, 0, -1, 0])

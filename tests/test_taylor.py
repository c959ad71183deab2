import math

import numpy as np
import pytest

from kdspin.compton import elliptic_polarization
from kdspin.contrast import BlochPair, bloch_spinors
from kdspin.dirac import PAULI_MATRICES
from kdspin.kinematics import ScatterConfig
from kdspin.taylor import low_momentum_matrix, taylor_error, taylor_tensor

ID2 = np.eye(2)


def test_block_23_pure_sigma1_on_axis():
    blocks = taylor_tensor(ScatterConfig(q_l=0.02))
    assert np.array_equal(blocks.m23, -0.02j * PAULI_MATRICES[0])
    assert np.array_equal(blocks.m32, +0.02j * PAULI_MATRICES[0])


def test_block_22_on_axis():
    blocks = taylor_tensor(ScatterConfig(q_l=0.02))
    assert np.allclose(blocks.m22, 1.0002 * ID2, rtol=1e-15, atol=0)


def test_blocks_at_vanishing_momenta():
    blocks = taylor_tensor(ScatterConfig(q_l=1e-30))
    assert np.allclose(blocks.m22, ID2, atol=1e-29)
    assert np.allclose(blocks.m33, ID2, atol=1e-29)
    assert np.allclose(blocks.m23, 0.0, atol=1e-29)
    assert np.allclose(blocks.m32, 0.0, atol=1e-29)


def test_domain_flag():
    assert taylor_tensor(ScatterConfig(q_l=0.2)).outside_domain
    assert not taylor_tensor(ScatterConfig(q_l=0.05, q2=0.05, q3=0.05)).outside_domain


def test_low_momentum_matrix_values():
    assert np.array_equal(low_momentum_matrix(0.02), -0.02j * np.ones((2, 2)))
    assert np.array_equal(low_momentum_matrix(1.0), -1j * np.ones((2, 2)))
    with pytest.raises(ValueError):
        low_momentum_matrix(0.0)


def test_low_momentum_matrix_annihilates_transverse_spinor():
    psi_a, _ = bloch_spinors(BlochPair(1.5 * math.pi, 0.0))
    assert np.max(np.abs(low_momentum_matrix(0.02) @ psi_a)) <= 1e-17


def test_error_third_order_ratio():
    pol = elliptic_polarization(math.pi / 4.0)
    coarse = taylor_error(ScatterConfig(q_l=2e-3, q2=2e-3, q3=2e-3), pol)
    fine = taylor_error(ScatterConfig(q_l=1e-3, q2=1e-3, q3=1e-3), pol)
    assert coarse / fine == pytest.approx(8.0, abs=1.5)


def test_error_bounded_on_axis():
    pol = elliptic_polarization(math.asin(0.02))
    assert taylor_error(ScatterConfig(q_l=0.02), pol) <= 5.0 * 0.02**3


def test_error_vanishes_toward_origin():
    # the amplitude's propagator terms scale as 1/q_l and cancel to O(1), so
    # double precision floors the gap at ~eps/q_l; 1e-4 sits near the optimum
    pol = elliptic_polarization(math.pi / 4.0)
    assert taylor_error(ScatterConfig(q_l=1e-4, q2=1e-4, q3=1e-4), pol) <= 1e-12


def test_error_rejects_nonfinite_spin_matrix():
    pol = elliptic_polarization(math.pi / 4.0)
    with pytest.raises(ValueError, match="not finite"):
        taylor_error(ScatterConfig(q_l=1e-320, q2=1e-320, q3=1e-320), pol)

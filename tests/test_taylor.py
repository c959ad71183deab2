import math
from decimal import Decimal, localcontext

import decimal_kernel
import numpy as np
import pytest

from kdspin.compton import PolarizationPair, elliptic_polarization
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


def decimal_remainder(q, pol):
    """max |M - expansion| at q_l = q2 = q3 = q, with M and the expansion in decimal arithmetic."""
    exact = decimal_kernel.spin_matrix(q, q, q, pol.left, pol.right)
    with localcontext() as ctx:
        ctx.prec = 2 * decimal_kernel.DIGITS
        q, half = Decimal(q), Decimal(1) / 2

        def im(x):
            return (Decimal(0), x)

        def block(diagonal, v1, v2, v3):  # diagonal 1 + sigma . (v1, v2, v3)
            return decimal_kernel.madd(decimal_kernel.mscale(diagonal, decimal_kernel.IDENTITY),
                                       decimal_kernel.pauli(v1, v2, v3))

        blocks = {  # taylor_tensor's m22, m23, m32, m33 at q_l = q2 = q3 = q
            (1, 1): block(1 - 2 * q * q + half * q * q, decimal_kernel.ZERO, im(-half * q * q), im(-3 * half * q * q)),
            (1, 2): block(-2 * q * q, im(-q), im(q * q), im(-q * q)),
            (2, 1): block(-2 * q * q, im(q), im(q * q), im(-q * q)),
            (2, 2): block(1 - 2 * q * q + half * q * q, decimal_kernel.ZERO, im(3 * half * q * q), im(half * q * q)),
        }
        gap = exact
        for (i, j), b in blocks.items():
            left, right = complex(pol.left[i]), complex(pol.right[j])
            weight = decimal_kernel.cmul((Decimal(left.real), -Decimal(left.imag)), (Decimal(right.real), Decimal(right.imag)))
            gap = decimal_kernel.madd(gap, decimal_kernel.mscale((-weight[0], -weight[1]), b))
        return decimal_kernel.max_modulus(gap)


def test_error_vanishes_toward_origin():
    # the gap is the expansion's O(q^3) remainder (~sqrt(2) q^3 here), not rounding:
    # it matches the decimal remainder down to q = 1e-5, where it is ~9 eps of max|M|
    elliptic = elliptic_polarization(math.pi / 4.0)
    # a general pair, with a complex right beam; at q = 1e-5 its rounding reaches ~1e-6 of the remainder
    general = PolarizationPair(left=[0.0, 0.6 - 0.2j, 1.5j], right=[0.0, 1.0, 0.5 + 0.5j])
    for pol, qs in ((elliptic, (1e-3, 1e-4, 1e-5)), (general, (1e-3, 1e-4))):
        for q in qs:
            remainder = float(decimal_remainder(q, pol))
            assert taylor_error(ScatterConfig(q_l=q, q2=q, q3=q), pol) == pytest.approx(remainder, rel=1e-6)


@pytest.mark.filterwarnings("error")
def test_error_rejects_nonfinite_spin_matrix():
    pol = elliptic_polarization(math.pi / 4.0)
    with pytest.raises(ValueError, match="not finite"):
        taylor_error(ScatterConfig(q_l=0.02, q3=1e200), pol)  # q3^2 overflows
    # the spin matrix is finite, but the expanded blocks times the 1e150 beam overflow
    big = PolarizationPair(left=np.array([0.0, 0.0, 1e150]), right=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="expansion is not finite at q_l=1e[+]150, q2=1e[+]150, q3=1e[+]150 with"):
        taylor_error(ScatterConfig(q_l=1e150, q2=1e150, q3=1e150), big)
    # a subnormal scale leaves the matrix finite, and equal to its expansion
    assert taylor_error(ScatterConfig(q_l=1e-320, q2=1e-320, q3=1e-320), pol) == 0.0

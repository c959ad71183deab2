"""The spin matrix from the block formula, in stdlib ``decimal`` arithmetic.

An oracle for ``spin_matrix_batch`` that shares none of its algebra: it
evaluates the 2x2 block formula of that function's docstring, in which the
O(q^2/q_l) diagram terms cancel, with enough digits that 50 survive the
cancellation.  Complex numbers are (re, im) pairs of ``Decimal`` and 2x2
matrices are nested tuples of such pairs.  Float inputs convert exactly, so
the oracle is the exact matrix of the float configuration the kernel sees.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

DIGITS = 50

ZERO = (Decimal(0), Decimal(0))
ONE = (Decimal(1), Decimal(0))


def _pair(z) -> tuple[Decimal, Decimal]:
    z = complex(z)
    return Decimal(z.real), Decimal(z.imag)


def cadd(x, y):
    return x[0] + y[0], x[1] + y[1]


def cmul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def madd(a, b):
    return tuple(tuple(cadd(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mscale(c, a):
    """Complex (pair) or real (Decimal) scalar times a matrix."""
    c = c if isinstance(c, tuple) else (c, Decimal(0))
    return tuple(tuple(cmul(c, x) for x in row) for row in a)


def mmul(*mats):
    out = mats[0]
    for b in mats[1:]:
        out = tuple(
            tuple(cadd(cmul(out[i][0], b[0][j]), cmul(out[i][1], b[1][j])) for j in range(2)) for i in range(2)
        )
    return out


def pauli(v1, v2, v3):
    """sigma . v for complex (pair) components: [[v3, v1 - i v2], [v1 + i v2, -v3]]."""
    return (
        (v3, (v1[0] + v2[1], v1[1] - v2[0])),
        ((v1[0] - v2[1], v1[1] + v2[0]), (-v3[0], -v3[1])),
    )


IDENTITY = ((ONE, ZERO), (ZERO, ONE))


def spin_matrix(q_l: float, q2: float, q3: float, left, right):
    """Decimal spin matrix of one configuration, 50 digits beyond the diagrams' cancellation.

    Returned under the default context; its entries carry the working precision.
    """
    ql, q2, q3 = (Decimal(float(v)) for v in (q_l, q2, q3))
    with localcontext() as ctx:
        ctx.prec = DIGITS + 10
        size = (1 + q2 * q2 + q3 * q3 + ql * ql) / ql  # the diagrams' size relative to M
        ctx.prec = DIGITS + 10 + max(0, size.adjusted())
        e = (1 + ql * ql + q2 * q2 + q3 * q3).sqrt()
        a = pauli(*((x[0], -x[1]) for x in map(_pair, left)))  # sigma . conj(left)
        b = pauli(*map(_pair, right))
        s = pauli(ZERO, (q2, Decimal(0)), (q3, Decimal(0)))
        sigma_1 = mscale(ql, pauli(ONE, ZERO, ZERO))
        s_i, s_f = madd(s, mscale(Decimal(-1), sigma_1)), madd(s, sigma_1)
        d_a = 1 / (2 * ql * (e + ql))
        d_b = 1 / (2 * ql * (e - ql))
        ab, ba = mmul(a, b), mmul(b, a)
        m11 = madd(mscale((1 - e + ql) * d_b, ba), mscale(-(1 - e - ql) * d_a, ab))
        m22 = madd(mscale((e - ql + 1) * d_b, ba), mscale(-(e + ql + 1) * d_a, ab))
        m12 = madd(mscale(d_a, mmul(a, s, b)), mscale(-d_b, mmul(b, s, a)))
        half = Decimal(1) / 2
        out = mscale((e + 1) * half, m11)
        out = madd(out, mscale(half, madd(mmul(m12, s_i), mmul(s_f, m12))))
        return madd(out, mscale(-1 / (2 * (e + 1)), mmul(s_f, m22, s_i)))


def det(m):
    (m00, m01), (m10, m11) = m
    ad, bc = cmul(m00, m11), cmul(m01, m10)
    return ad[0] - bc[0], ad[1] - bc[1]


def cdiv(x, y):
    size = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / size, (x[1] * y[0] - x[0] * y[1]) / size


def atan(x: Decimal, digits: int = DIGITS) -> Decimal:
    """arctan of x >= 0 to ``digits`` digits: atan x = 2 atan(x / (1 + sqrt(1 + x^2))) halves
    the argument until it is below 0.1, then the Taylor series x - x^3/3 + x^5/5 - ...
    converges fast."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        halvings = 0
        while x > Decimal("0.1"):
            x = x / (1 + (1 + x * x).sqrt())
            halvings += 1
        total, power, n, tiny = x, x, 1, Decimal(10) ** -(digits + 5)
        while abs(power) > tiny:
            power *= -x * x
            total += power / (2 * n + 1)
            n += 1
        return total * 2**halvings


def locus_invariants(q_l: float, q2: float, q3: float):
    """Invariants of the spin matrices M_y, M_z of a left beam along y and along z against a
    right beam along z: r = det M_y / det M_z, s = X / det M_z with X = tr(adj M_y . M_z),
    det M_z and tr(M_y^dag M_z) as (re, im) pairs, and ||M_y||_F^2, ||M_z||_F^2."""
    m_y = spin_matrix(q_l, q2, q3, (0, 1, 0), (0, 0, 1))
    m_z = spin_matrix(q_l, q2, q3, (0, 0, 1), (0, 0, 1))
    with localcontext() as ctx:
        ctx.prec = 2 * DIGITS
        (y00, y01), (y10, y11) = m_y
        (z00, z01), (z10, z11) = m_z
        diagonal, off = cadd(cmul(y11, z00), cmul(y00, z11)), cadd(cmul(y01, z10), cmul(y10, z01))
        cross = diagonal[0] - off[0], diagonal[1] - off[1]
        det_z = det(m_z)
        overlap = ZERO
        for y, z in zip((y00, y01, y10, y11), (z00, z01, z10, z11)):
            overlap = cadd(overlap, cmul((y[0], -y[1]), z))
        norm_y, norm_z = (sum(x[0] * x[0] + x[1] * x[1] for row in m for x in row) for m in (m_y, m_z))
        return cdiv(det(m_y), det_z), cdiv(cross, det_z), det_z, overlap, norm_y, norm_z


#: digits of the elementary locus oracle
LOCUS_DIGITS = 110


def locus_inv_theta(q_l: float, q2: float, q3: float) -> Decimal:
    """1/theta of the contrast minimum over the elliptic beam, from the elementary closed form
    tan^2(theta) = det M_y / det M_z with det M_y = k (4 q2^2 q3^2 k + q_l^2) and
    det M_z = c_zz^2 + (q_l h)^2 ((q2 E)^2 + (q3 (E + 2))^2), E = sqrt(1 + q2^2 + q3^2 + q_l^2),
    k = 1/(1 + q2^2 + q3^2), h = k/(E + 1), c_zz = (1 - q3^2 + q2^2) k + q_l^2 h, in
    ``LOCUS_DIGITS`` digits.  Squares rather than hypot: decimal's exponent range has room."""
    ql, q2, q3 = (Decimal(float(v)) for v in (q_l, q2, q3))
    with localcontext() as ctx:
        ctx.prec = LOCUS_DIGITS
        d = 1 + q2 * q2 + q3 * q3
        e, k = (d + ql * ql).sqrt(), 1 / d
        h = k / (e + 1)
        c_zz = (1 - q3 * q3 + q2 * q2) * k + ql * ql * h
        det_y = k * (4 * q2 * q2 * q3 * q3 * k + ql * ql)
        det_z = c_zz * c_zz + (ql * h) ** 2 * ((q2 * e) ** 2 + (q3 * (e + 2)) ** 2)
        return 1 / atan((det_y / det_z).sqrt(), LOCUS_DIGITS)


def modulus(z) -> Decimal:
    return (z[0] * z[0] + z[1] * z[1]).sqrt()


def max_modulus(m) -> Decimal:
    return max(modulus(x) for row in m for x in row)


def relative_error(approx, exact) -> float:
    """max |approx - exact| / max |exact| over the entries, approx a complex 2x2 array."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        gap = max(modulus(cadd(_pair(approx[i][j]), (-x[0], -x[1]))) for i, row in enumerate(exact)
                  for j, x in enumerate(row))
        return float(gap / max_modulus(exact))


def contrast(m) -> Decimal:
    """lambda_min / lambda_max of M^dag M, from |det M|^2 and tr M^dag M."""
    with localcontext() as ctx:
        ctx.prec = 2 * DIGITS
        (m00, m01), (m10, m11) = m
        det = cadd(cmul(m00, m11), cmul((-m01[0], -m01[1]), m10))
        det2 = det[0] * det[0] + det[1] * det[1]
        t = sum(x[0] * x[0] + x[1] * x[1] for row in m for x in row)
        lam_max = (t + (t * t - 4 * det2).sqrt()) / 2
        return det2 / lam_max / lam_max

"""One point runs on Python floats, a batch on arrays: the same bits either way.

``spin_matrix_batch`` of one point, ``minimize_contrast`` of one matrix and a one-q3
``minimum_locus`` take their own path, which returns early where Python would raise and numpy
gives inf or NaN.  These tests hold each point, and a one-q3 ``locus_probabilities`` (a batch
of one), to its row of a batch at that path's edges, and on random points.  NaN entries must
sit in the same places; their sign bits may differ: adding two NaNs, numpy's array loops keep
the first's sign and Python floats (or numpy scalars) the second's.
"""

import math

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from kdspin.compton import elliptic_left, elliptic_polarization, spin_matrix, spin_matrix_batch
from kdspin.contrast import DEGENERATE_FLOOR, minimize_contrast, minimize_contrast_batch
from kdspin.kinematics import ScatterConfig
from kdspin.sweep import FitModel, FixedParams, locus_probabilities, minimum_locus

E3 = np.array([0.0, 0.0, 1.0 + 0.0j])
CIRCULAR = np.array([0.0, 1.0, 1.0j]) / math.sqrt(2.0)
FIELDS = ("value", "alpha", "phi", "prob_a", "prob_b")


def assert_same_bits(one, row, label):
    """Equal bits on every non-NaN entry, and NaN in the same places."""
    one, row = (np.ascontiguousarray(x).view(float).ravel() for x in (one, row))
    nan = np.isnan(row)
    assert np.array_equal(np.isnan(one), nan), label
    assert one[~nan].tobytes() == row[~nan].tobytes(), label


def offsets(n):
    """Indices that hold each of n cases at i and at i + pad, so it meets the vector loop at two
    offsets, and pad."""
    take = np.tile(np.r_[np.arange(n), np.arange(3)], 2)
    return take, n + 3


# (q2, q3, left, right): squares that overflow above ~1.3e154, and inf or NaN momenta and beams
KERNEL_EDGES = {
    "q3=1e154": (0.01, 1e154, CIRCULAR, E3),
    "q3=2e154": (0.01, 2e154, CIRCULAR, E3),
    "q2=1e160": (1e160, 0.3, CIRCULAR, E3),
    "q2=-2e154": (-2e154, 1e154, CIRCULAR, E3),
    "q3=inf": (0.01, math.inf, CIRCULAR, E3),
    "q2=-inf": (-math.inf, 0.3, CIRCULAR, E3),
    "q2=nan": (math.nan, 0.3, elliptic_left(0.4), E3),
    "q3=nan": (0.01, math.nan, CIRCULAR, E3),
    "left-inf": (0.01, 0.3, np.array([0.0, math.inf, 1.0j]), E3),
    "left-nan": (0.01, 0.3, np.array([0.0, 1.0, complex(0.0, math.nan)]), E3),
    "right-inf": (0.01, 0.3, CIRCULAR, np.array([0.0, 0.0, complex(-math.inf, 1.0)])),
    "right-nan": (0.01, 0.3, CIRCULAR, np.array([0.0, math.nan, 1.0])),
    "signed-zeros": (-0.0, -0.0, np.array([0.0, -0.0, complex(-0.0, -0.0)]), np.array([0.0, 1.0, -0.0])),
}


def test_kernel_edges_match_batch_rows():
    names = list(KERNEL_EDGES)
    q2, q3, left, right = (np.array([KERNEL_EDGES[n][k] for n in names]) for k in range(4))
    take, pad = offsets(len(names))
    batch = spin_matrix_batch(0.02, q2[take], q3[take], left[take], right[take])
    for i, name in enumerate(names):
        alone = spin_matrix_batch(0.02, q2[i], q3[i], left[i], right[i])
        one = spin_matrix_batch(0.02, q2[i : i + 1], q3[i], left[i], right[i : i + 1])
        assert alone.shape == (2, 2) and one.shape == (1, 2, 2)
        for j in (i, i + pad):
            assert_same_bits(alone, batch[j], (name, j))
            assert_same_bits(one, batch[j : j + 1], (name, j))
    assert np.isnan(batch[names.index("q3=2e154")]).all()
    assert np.isfinite(batch[names.index("q3=1e154")]).all()


MINIMIZER_EDGES = {
    # scales at and below 2^1023: at exponent 1024 the float path returns before 2^1024 overflows,
    # and at 1023 t 2^1023 2^1023 overflows; both have no minimum
    "exp-1024": 2.0**1023 * np.array([[1.0, 0.5j], [0.25, 1.0 - 1.0j]]),
    "1.7e308": np.array([[1.7e308, 1.0], [1.0j, -1.7e308j]]),
    "diag-2^1023": 2.0**1023 * np.diag([1.0, -1.0]),
    "exp-1023": 2.0**1022 * np.array([[1.0, 0.5j], [0.25, 1.0]]),
    "above-floor": 1.0000001e-300 * np.array([[1.0, -0.5j], [0.25 + 0.5j, 0.75]]),
    "at-floor": DEGENERATE_FLOOR * np.array([[1.0, 0.0], [0.0, 1.0j]]),
    "mixed-tiny": np.array([[1e-295, 1e-320], [3e-320j, -2e-295 + 1e-320j]]),
    # parts that scale to subnormals: 1e-170 / 2^499 is below 2^-1022
    "subnormal-after-ldexp": np.array([[1e150, 1e-170], [3e-172j, complex(2e-171, 1e150)]]),
    "signed-zeros": np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [1.0, complex(-0.0, -0.0)]]),
    "zero": np.zeros((2, 2)),
    "identity": np.eye(2),
    "i-identity": 1j * np.eye(2),
    # a positive real p01 puts phi exactly on pi, with b = +0.0 and with b = -0.0
    "fold-pi": np.array([[1.0, 0.5], [0.0, 1.0]]),
    "fold-pi-negative-zero": np.array([[1.0, complex(0.5, -0.0)], [0.0, complex(1.0, -0.0)]]),
    "fold-below-pi": np.array([[1.0, complex(0.5, 1e-15)], [0.0, 1.0]]),
    "rank-one": np.outer([1.0 + 2.0j, -0.5j], [0.3, 1.0 - 0.7j]),
    "rank-one-real": np.outer([1.5, -0.25], [0.75, 3.0]),
    "rank-one-1e200": 1e200 * np.outer([1.0 + 2.0j, -0.5j], [0.3, 1.0 - 0.7j]),
    "rank-one-1e-200": 1e-200 * np.outer([0.1j, 2.0], [1.0 + 1.0j, -0.25]),
    "nan": np.array([[1.0, math.nan], [0.0, 1.0]]),
    "inf": np.array([[1.0, 0.0], [complex(0.0, -math.inf), 1.0]]),
}


def test_minimizer_edges_match_batch_rows():
    names = list(MINIMIZER_EDGES)
    table = np.array([MINIMIZER_EDGES[n] for n in names], dtype=complex)
    take, pad = offsets(len(names))
    batch = minimize_contrast_batch(table[take])
    for i, name in enumerate(names):
        one = minimize_contrast_batch(table[i : i + 1])
        for j in (i, i + pad):
            for field in FIELDS:
                got, row = getattr(one, field), getattr(batch, field)[j : j + 1]
                assert got.shape == (1,)
                assert_same_bits(got, row, (name, j, field))
        if np.isnan(one.value[0]):
            with pytest.raises(ValueError):
                minimize_contrast(table[i])
        else:
            result = minimize_contrast(table[i])
            assert_same_bits([getattr(result, f) for f in FIELDS], [getattr(one, f)[0] for f in FIELDS], name)
    value = dict(zip(names, batch.value.tolist()))
    for name in ("exp-1024", "1.7e308", "diag-2^1023", "at-floor", "zero", "nan", "inf"):
        assert math.isnan(value[name]), name
    for name in ("above-floor", "mixed-tiny", "subnormal-after-ldexp", "signed-zeros", "identity", "fold-pi"):
        assert not math.isnan(value[name]), name
    # r == 0: every Bloch direction is optimal, and (0, 0) is returned
    for name in ("identity", "i-identity"):
        i = names.index(name)
        assert (batch.value[i], batch.alpha[i], batch.phi[i]) == (1.0, 0.0, 0.0)
    assert batch.phi[names.index("fold-pi")] == 0.0 and batch.phi[names.index("fold-pi-negative-zero")] == 0.0


def test_one_point_is_its_row_of_a_batch_of_64():
    momentum = st.floats(-1e3, 1e3, allow_nan=False)

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.floats(1e-6, 0.5), momentum, momentum, st.floats(-math.pi, math.pi),
                      st.integers(-300, 307), st.integers(0, 2**32 - 1), st.integers(0, 63))
    def check(q_l, q2, q3, theta, exponent, seed, index):
        # the drawn point and matrix among 63 from the seed; each matrix has an exponent across
        # [-300, 307] and eight parts up to 40 decades below it
        rng = np.random.default_rng(seed)
        q2s, q3s, thetas = (np.insert(rng.uniform(-1.5, 1.5, 63), index, v) for v in (q2, q3, theta))
        exponents = np.insert(rng.integers(-300, 308, 63), index, exponent)[:, None] - rng.integers(0, 41, (64, 8))
        matrices = (rng.normal(size=(64, 8)) * 10.0**exponents).view(complex).reshape(64, 2, 2)
        batch = spin_matrix_batch(q_l, q2s, q3s, elliptic_left(thetas), E3)
        for i in range(64):
            cfg = ScatterConfig(q_l=q_l, q2=float(q2s[i]), q3=float(q3s[i]))
            assert_same_bits(spin_matrix(cfg, elliptic_polarization(float(thetas[i]))), batch[i], ("kernel", i))
        for stack in (batch, matrices):
            rows = minimize_contrast_batch(stack)
            for i, m in enumerate(stack):
                want = [getattr(rows, f)[i] for f in FIELDS]
                try:
                    result = minimize_contrast(m)
                except ValueError:
                    assert math.isnan(want[0]), i
                    continue
                assert_same_bits([getattr(result, f) for f in FIELDS], want, ("minimizer", i))

    check()


#: the published fit, whose branches give every q3 in [0, 1] a 1/theta
PAPER_FIT = (FitModel("left", np.array([96.71, -85.10, 0.2996]), (0.0, 0.9)),
             FitModel("right", np.array([0.02771, 70.41, 3.137e-4]), (0.9, 1.0)))


def locus_row(p):
    """A LocusPoint's fields as hex, NaN as one token, so a row compares bit for bit."""
    floats = (p.q3, p.inv_theta, p.alpha, p.phi, p.prob_a, p.prob_b)
    return tuple("nan" if math.isnan(x) else x.hex() for x in floats) + (p.bracketed, p.status)


def outcome(call, q3):
    """The locus rows of ``call(q3)``, or the message it raises."""
    try:
        return [locus_row(p) for p in call(q3)]
    except ValueError as exc:
        return str(exc)


def assert_one_q3_is_its_batch_row(call, values):
    # every value, alone, either equals its row of a batch of all that are left bit for bit, or
    # raises the message the batch raises; a batch raises for one value, which then leaves it
    alone = {v: outcome(call, [v]) for v in values}
    left = list(values)
    while left:
        rows = left + left[:3]  # as in ``offsets``: each value at i and at i + pad
        pad = len(rows)
        batch = outcome(call, rows * 2)
        if isinstance(batch, str):
            failing = [v for v in left if alone[v] == batch]
            assert failing, batch
            left.remove(failing[0])
            continue
        for i, v in enumerate(left):
            assert alone[v] == [batch[i]] == [batch[i + pad]], v
        return
    assert all(isinstance(result, str) for result in alone.values())


LOCUS_EDGES = [(q_l, q2) for q_l in (1e-301, 1e-160, 1e-20, 0.02, 1e150) for q2 in (0.0, -0.3, 1e154, 1e160)]
LOCUS_EDGE_Q3 = (0.0, 0.5, 1.0, 2.0, 1e154, 2e154, 1e160, 1.7e308)


@pytest.mark.parametrize("q_l, q2", LOCUS_EDGES)
def test_one_q3_locus_edges_match_batch_rows(q_l, q2):
    fixed = FixedParams(q_l=q_l, q2=q2)
    assert_one_q3_is_its_batch_row(lambda q3: minimum_locus(q3, fixed=fixed), LOCUS_EDGE_Q3)
    assert_one_q3_is_its_batch_row(lambda q3: locus_probabilities(*PAPER_FIT, q3, fixed=fixed), LOCUS_EDGE_Q3)


def test_one_q3_locus_is_its_row_among_seeded_neighbours():
    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.floats(-20.0, -1.0), st.floats(-2.0, 2.0), st.floats(0.0, 2.0),
                      st.integers(0, 2**32 - 1), st.integers(0, 15))
    def check(log_q_l, q2, q3, seed, index):
        # the drawn q3 among 15 from the seed, at the drawn index; on the minimum locus over the default
        # and a wide 1/theta range, and along the published fit, whose domain is [0, 1]
        fixed = FixedParams(q_l=10.0**log_q_l, q2=q2)
        grid = np.insert(np.random.default_rng(seed).uniform(0.0, 2.0, 15), index, q3)
        for bounds in ((1.0, 100.0), (1e-3, 1e300)):
            batch = minimum_locus(grid, inv_theta_range=bounds, fixed=fixed)
            (one,) = minimum_locus([q3], inv_theta_range=bounds, fixed=fixed)
            assert locus_row(one) == locus_row(batch[index]), bounds
        batch = locus_probabilities(*PAPER_FIT, grid / 2.0, fixed=fixed)
        (one,) = locus_probabilities(*PAPER_FIT, [q3 / 2.0], fixed=fixed)
        assert locus_row(one) == locus_row(batch[index])

    check()


def test_one_q3_locus_unbracketed_without_minimum():
    # at q_l = 1e-301 the minimum of every q3 but 1 lies far above the 1/theta range, where the matrix is
    # too small to have one (at 1e-320 1/theta is inf): the point is unbracketed, alone or in a batch;
    # q3 = 1 is bracketed at 1/theta = 4/pi, and its matrix has no minimum either
    for q_l in (1e-301, 1e-320):
        for q3 in ([0.5], [0.0, 0.5, 2.0]):
            points = minimum_locus(q3, fixed=FixedParams(q_l=q_l))
            assert [(p.bracketed, p.status) for p in points] == [(False, "unbracketed")] * len(q3)
            assert all(math.isnan(v) for p in points for v in (p.inv_theta, p.alpha, p.phi, p.prob_a, p.prob_b))
        for q3 in ([1.0], [0.5, 1.0, 2.0]):
            with pytest.raises(ValueError, match=r"^no contrast minimum at q3=1\.0, 1/theta=1\.2732395447351628$"):
                minimum_locus(q3, fixed=FixedParams(q_l=q_l))
    # a NaN 1/theta, where a momentum's square overflows, still raises, alone or in a batch
    for q3 in ([1e160], [0.5, 1e160]):
        with pytest.raises(ValueError, match=r"^no contrast minimum at q3=1e\+160: its spin matrices are not finite$"):
            minimum_locus(q3, fixed=FixedParams(q2=0.01))

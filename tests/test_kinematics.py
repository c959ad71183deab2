import math

import numpy as np
import pytest

from kdspin.kinematics import (
    ScatterConfig,
    build_kinematics,
    energy,
    minkowski_dot,
)


def test_energy_rest():
    assert energy(0.0, 0.0, 0.0) == 1.0


def test_energy_unit_transverse():
    assert energy(0.0, 1.0, 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_energy_pythagorean():
    assert energy(0.3, 0.4, 0.0) == pytest.approx(math.sqrt(1.25), rel=1e-15)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ScatterConfig(q_l=0.0)
    with pytest.raises(ValueError):
        ScatterConfig(q_l=-0.02)
    with pytest.raises(ValueError):
        ScatterConfig(q_l=math.nan)
    with pytest.raises(ValueError):
        ScatterConfig(q_l=0.02, q2=math.inf)


@pytest.mark.parametrize("args, message", [
    # every field is checked for finiteness, in order, before q_l's sign
    ((math.nan,), "q_l must be finite, got nan"),
    ((math.inf, math.nan), "q_l must be finite, got inf"),
    ((0.02, -math.inf), "q2 must be finite, got -inf"),
    ((-1.0, 0.0, math.inf), "q3 must be finite, got inf"),
    ((0.0, math.nan, math.nan), "q2 must be finite, got nan"),
    ((np.float64(math.nan),), "q_l must be finite, got np.float64(nan)"),
    ((math.nan, "q2"), "q_l must be finite, got nan"),
    ((0.0,), "q_l must be positive, got 0.0"),
    ((-0.0,), "q_l must be positive, got -0.0"),
    ((-0.02, 0.3, -1.0), "q_l must be positive, got -0.02"),
    ((0,), "q_l must be positive, got 0"),
    ((-3, 1, 2), "q_l must be positive, got -3"),
    ((np.float64(-1.0),), "q_l must be positive, got np.float64(-1.0)"),
    ((False, True), "q_l must be positive, got False"),
])
def test_config_messages_name_the_first_bad_value(args, message):
    with pytest.raises(ValueError) as err:
        ScatterConfig(*args)
    assert str(err.value) == message


def test_config_keeps_numbers_and_rejects_non_numbers():
    for args in ((1, 2, 3), (np.float64(0.5), np.float64(-1.0), np.int64(2)), (True, False, True), (5e-324, -1e308)):
        cfg = ScatterConfig(*args)
        assert cfg == args + (0.0,) * (3 - len(args))
        assert [type(v) for v in cfg[:len(args)]] == [type(v) for v in args]
    # a value isfinite cannot read raises its TypeError, unless an earlier field already failed
    for args in (("0.02",), (0.02, None), (0.0, "q2"), (0.02, 0.0, 1j), (-1.0, 0.0, [0.0])):
        with pytest.raises(TypeError):
            ScatterConfig(*args)
    with pytest.raises(ValueError, match="^q3 must be finite, got nan$"):
        ScatterConfig(0.02)._replace(q3=math.nan)


def test_build_kinematics_reference_point():
    kin = build_kinematics(ScatterConfig(q_l=0.02, q2=0.0, q3=1.0))
    e = math.sqrt(1.0 + 1.0 + 0.0004)
    assert np.allclose(kin.p_i, [e, -0.02, 0.0, 1.0], rtol=0, atol=0)
    assert np.allclose(kin.p_f, [e, +0.02, 0.0, 1.0], rtol=0, atol=0)
    assert np.array_equal(kin.k, [0.02, 0.02, 0.0, 0.0])
    assert np.array_equal(kin.k_prime, [0.02, -0.02, 0.0, 0.0])


def test_build_kinematics_forward_energy():
    kin = build_kinematics(ScatterConfig(q_l=0.02))
    assert kin.p_i[0] == pytest.approx(math.sqrt(1.0004), rel=1e-15)


def test_momentum_conservation_identity():
    rng = np.random.RandomState(11)
    for _ in range(20):
        cfg = ScatterConfig(q_l=rng.uniform(1e-3, 0.5), q2=rng.uniform(-2, 2), q3=rng.uniform(-2, 2))
        kin = build_kinematics(cfg)
        transfer = kin.p_f - kin.p_i
        assert np.array_equal(transfer, [0.0, 2.0 * cfg.q_l, 0.0, 0.0])
        assert np.array_equal(transfer, kin.k - kin.k_prime)


def test_minkowski_dot_examples():
    t = np.array([1.0, 0, 0, 0])
    assert minkowski_dot(t, t) == 1.0
    k = np.array([0.02, 0.02, 0.0, 0.0])
    assert minkowski_dot(k, k) == 0.0
    kin = build_kinematics(ScatterConfig(q_l=0.02, q2=0.0, q3=1.0))
    # direct arithmetic: E*q_l - (-q_l)*q_l
    expected = math.sqrt(2.0004) * 0.02 + 0.02**2
    assert minkowski_dot(kin.p_i, kin.k) == pytest.approx(expected, rel=1e-15)


def test_mass_shell_and_lightlike_invariants():
    rng = np.random.RandomState(23)
    for _ in range(100):
        cfg = ScatterConfig(
            q_l=rng.uniform(1e-4, 1.0), q2=rng.uniform(-2, 2), q3=rng.uniform(-2, 2)
        )
        kin = build_kinematics(cfg)
        assert abs(minkowski_dot(kin.p_i, kin.p_i) - 1.0) <= 1e-14
        assert abs(minkowski_dot(kin.p_f, kin.p_f) - 1.0) <= 1e-14
        assert minkowski_dot(kin.k, kin.k) == 0.0
        assert minkowski_dot(kin.k_prime, kin.k_prime) == 0.0
        # the amplitude denominators never vanish in this geometry
        assert minkowski_dot(kin.p_i, kin.k) > 0.0
        assert minkowski_dot(kin.p_i, kin.k_prime) > 0.0

"""Scattering geometry for two-photon Bragg diffraction at a standing light wave.

Natural units hbar = c = m = 1 throughout: momenta and energies are stored
divided by the electron rest mass.  Four-vectors are plain length-4 numpy
arrays ordered (t, x, y, z) with metric signature (+, -, -, -).  The laser
beams counterpropagate along the x-axis; the electron carries transverse
momentum (q2, q3) along (y, z) and is Bragg-reflected from -q_l to +q_l
along the beam axis, absorbing one photon from the right-moving beam and
emitting one into the left-moving beam.
"""

from __future__ import annotations

import math
from collections import namedtuple
from math import isfinite
from typing import NamedTuple

import numpy as np

#: diag of the Minkowski metric g = diag(1, -1, -1, -1)
METRIC_DIAG = np.array([1.0, -1.0, -1.0, -1.0])


class ScatterConfig(namedtuple("ScatterConfig", "q_l q2 q3")):
    """Dimensionless parameters of one Bragg scattering configuration.

    q_l is the photon momentum k_L/m of the standing wave, q2 and q3 the
    transverse electron momentum components p_2/m and p_3/m.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace, which calls it, validates too

    def __new__(cls, q_l: float, q2: float = 0.0, q3: float = 0.0):
        if not (isfinite(q_l) and isfinite(q2) and isfinite(q3) and q_l > 0.0):  # one test; the loop names the value
            for name, value in (("q_l", q_l), ("q2", q2), ("q3", q3)):
                if not isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value!r}")
            raise ValueError(f"q_l must be positive, got {q_l!r}")
        return tuple.__new__(cls, (q_l, q2, q3))


class KinematicSet(NamedTuple):
    """On-shell four-momenta of one scattering event (units of m)."""

    p_i: np.ndarray
    p_f: np.ndarray
    k: np.ndarray
    k_prime: np.ndarray


def energy(q2: float, q3: float, qx: float = 0.0) -> float:
    """Relativistic energy sqrt(1 + qx^2 + q2^2 + q3^2) of an on-shell electron."""
    return math.sqrt(1.0 + qx * qx + q2 * q2 + q3 * q3)


def minkowski_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Metric contraction a^0 b^0 - a^1 b^1 - a^2 b^2 - a^3 b^3."""
    return a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]


def build_kinematics(cfg: ScatterConfig) -> KinematicSet:
    """Assemble the four-momenta of the two-photon Bragg event.

    The electron enters with spatial momentum (-q_l, q2, q3) and leaves with
    (+q_l, q2, q3); the absorbed photon k and the emitted photon k' run along
    +x and -x respectively, so p_f = p_i + k - k' with equal initial and
    final energies.
    """
    e = energy(cfg.q2, cfg.q3, cfg.q_l)
    p_i = np.array([e, -cfg.q_l, cfg.q2, cfg.q3])
    p_f = np.array([e, +cfg.q_l, cfg.q2, cfg.q3])
    k = np.array([cfg.q_l, +cfg.q_l, 0.0, 0.0])
    k_prime = np.array([cfg.q_l, -cfg.q_l, 0.0, 0.0])
    return KinematicSet(p_i=p_i, p_f=p_f, k=k, k_prime=k_prime)

"""Brute-force minimum of the contrast functional over an angle grid.

The grid is evaluated separably.  With n0 = |M e0|^2, n1 = |M e1|^2, p = <M e0, M e1>
and c, s = cos(alpha/2), sin(alpha/2),

    |M psi_A|^2 = c^2 n0 + s^2 n1 + 2 c s Re(e^{i phi} p),
    |M psi_B|^2 = n0 + n1 - |M psi_A|^2,

so the whole grid is real outer products of an alpha column and a phi row.  That is
the algebra of the minimizer's Bloch form, so each minimum is returned only after the
grid has matched the direct ratio |M psi_A|^2 / |M psi_B|^2, evaluated from the spinors
themselves, at its argmin and at a seeded sample of grid points.
"""

from __future__ import annotations

import numpy as np

SAMPLES = 20000
RTOL = 1e-12


def separable_grid(m, alphas, phis):
    """|M psi_A|^2 / |M psi_B|^2 on the grid alphas x phis, shape (len(alphas), len(phis))."""
    n0, n1 = np.sum(np.abs(m) ** 2, axis=0)
    p = np.vdot(m[:, 0], m[:, 1])
    c, s = np.cos(alphas / 2.0)[:, None], np.sin(alphas / 2.0)[:, None]
    num = (c * c * n0 + s * s * n1) + (2.0 * c * s) * (np.cos(phis) * p.real - np.sin(phis) * p.imag)
    return num / ((n0 + n1) - num)


def direct_ratio(m, alphas, phis):
    """|M psi_A|^2 / |M psi_B|^2 at the angle pairs (alphas[k], phis[k]), from the spinors."""
    c, s, phase = np.cos(alphas / 2.0), np.sin(alphas / 2.0), np.exp(1j * phis)
    psi_a = np.array([c, s * phase])
    psi_b = np.array([s * np.conj(phase), -c])
    return np.sum(np.abs(m @ psi_a) ** 2, axis=0) / np.sum(np.abs(m @ psi_b) ** 2, axis=0)


def grid_minimum(m, alphas, phis, rng) -> float:
    """Minimum of ``separable_grid``, asserted equal to ``direct_ratio`` to RTOL at the grid's
    argmin and at SAMPLES grid points drawn from the numpy Generator ``rng``."""
    grid = separable_grid(m, alphas, phis)
    rows, cols = np.unravel_index(np.append(rng.integers(grid.size, size=SAMPLES), np.argmin(grid)), grid.shape)
    direct = direct_ratio(m, alphas[rows], phis[cols])
    worst = float(np.max(np.abs(grid[rows, cols] - direct) / direct))
    assert worst <= RTOL, f"separable grid is {worst:.2e} from the direct ratio"
    return float(grid[rows[-1], cols[-1]])

"""Integrator checks against closed-form solutions.

Each test has an independent oracle: exp for linear growth, the logistic-free
pole 1/(1 - s) for y' = y^2, and forward/backward runs for reversibility.
"""
import numpy as np
import pytest

from darbouxflow.errors import BlowupError
from darbouxflow.geometry import SGrid
from darbouxflow.ode import rk4_path


def test_exponential_oracle():
    g = SGrid.from_step(0.0, 1.0, 1e-3)
    out = rk4_path(g.values(), lambda s, y: y, 1.0 + 0j)
    assert abs(out[-1] - np.exp(1.0)) < 1e-13


def test_fourth_order_convergence():
    # y' = y^2, y(0) = 1 has the exact solution 1/(1 - s); compare final-node
    # errors at h and h/2 and expect the ~16x drop of a 4th-order scheme.
    errs = []
    for h in (2e-2, 1e-2):
        g = SGrid.from_step(0.0, 0.9, h)
        out = rk4_path(g.values(), lambda s, y: y * y, 1.0)
        errs.append(abs(out[-1] - 1.0 / (1.0 - 0.9)))
    assert errs[0] / errs[1] > 12.0
    assert errs[1] < 1e-4  # y(0.9) = 10 and y' = 100 there; truncation is large


def test_blowup_raises_with_index():
    g = SGrid.from_step(0.0, 2.0, 1e-3)
    with pytest.raises(BlowupError) as info:
        rk4_path(g.values(), lambda s, y: y * y, 1.0)
    # the pole of 1/(1 - s) sits at s = 1
    assert info.value.index is not None
    assert abs(g.values()[info.value.index] - 1.0) < 0.05


def test_blowup_does_not_warn(recwarn):
    g = SGrid.from_step(0.0, 2.0, 1e-2)
    with pytest.raises(BlowupError):
        rk4_path(g.values(), lambda s, y: y * y, 1.0)
    assert len(recwarn) == 0


def test_reversed_path_returns_to_start():
    g = SGrid.from_step(0.0, 1.0, 1e-3)
    rhs = lambda s, y: 1j * y + np.sin(s)
    fwd = rk4_path(g.values(), rhs, 0.3 + 0.1j)
    back = rk4_path(g.values()[::-1], rhs, fwd[-1])
    assert abs(back[-1] - (0.3 + 0.1j)) < 1e-12


def test_vector_state_matches_scalar_runs():
    g = SGrid.from_step(0.0, 1.0, 1e-2)
    y0 = np.array([1.0 + 0j, 2.0 - 1j])
    vec = rk4_path(g.values(), lambda s, y: -y, y0)
    for k in range(2):
        scal = rk4_path(g.values(), lambda s, y: -y, y0[k])
        assert np.abs(vec[:, k] - scal).max() == 0.0


def test_kahan_summation_keeps_truncation_visible():
    # with thousands of steps the naive sum's round-off would swamp the h^4
    # error; compensated summation keeps the halving ratio near 16
    errs = []
    for h in (1e-3, 5e-4):
        g = SGrid.from_step(0.0, 1.0, h)
        out = rk4_path(g.values(), lambda s, y: y, 1.0)
        errs.append(abs(out[-1] - np.e))
    assert 10.0 < errs[0] / errs[1] < 25.0

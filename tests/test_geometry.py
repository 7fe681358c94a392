"""Grids, curves, sheets, and the small complex-plane helpers."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from darbouxflow.darboux import pair_table
from darbouxflow.errors import CoincidentPointsError, CurveError, SingularTangentError
from darbouxflow.geometry import (
    DiscretePolarizedCurve,
    PolarizedCurve,
    SGrid,
    Sheet,
    cross,
    dot,
    fd_derivative,
    ngon_vertices,
    rotate,
)


# ---------------------------------------------------------------- grids

def test_grid_from_step_snaps_count():
    g = SGrid.from_step(0.0, 1.0, 1e-3)
    assert g.count == 1001
    s = g.values()
    assert s[0] == 0.0
    assert s[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.diff(s), g.h)


def test_grid_from_count():
    g = SGrid.from_count(0.0, 0.5, 5)
    assert g.h == pytest.approx(0.5)
    assert list(g.values()) == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])


def test_grid_halved_doubles_resolution():
    g = SGrid.from_step(0.0, 1.0, 0.1)
    gh = g.halved()
    assert gh.count == 2 * g.count - 1
    assert gh.values()[::2] == pytest.approx(list(g.values()))


def test_refined_values_interleave_midpoints():
    g = SGrid.from_count(0.0, 0.5, 3)
    r = g.refined_values()
    assert list(r) == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_rejects_bad_step():
    with pytest.raises(CurveError):
        SGrid.from_step(0.0, 1.0, -0.1)
    with pytest.raises(CurveError):
        SGrid.from_step(0.0, 1.0, 0.0)


# ------------------------------------------------------- plane helpers

def test_dot_cross_rotate_hand_values():
    assert dot(1 + 0j, 1j) == pytest.approx(0.0)
    assert dot(2 + 1j, 2 + 1j) == pytest.approx(5.0)
    assert cross(1 + 0j, 1j) == pytest.approx(1.0)
    assert cross(1j, 1 + 0j) == pytest.approx(-1.0)
    assert rotate(1 + 0j, math.pi / 2) == pytest.approx(1j)


@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-2 * math.pi, 2 * math.pi))
def test_rotate_preserves_modulus(x, y, ang):
    p = complex(x, y)
    assert abs(rotate(p, ang)) == pytest.approx(abs(p), abs=1e-12)


# -------------------------------------------------- finite differences

def test_fd_derivative_exact_on_quartics():
    # the five-point stencils (central and one-sided) are exact through s^4
    g = SGrid.from_count(0.0, 0.1, 21)
    s = g.values()
    vals = s**4 - 3 * s**2 + 2 * s + 1.0
    want = 4 * s**3 - 6 * s + 2
    assert np.abs(fd_derivative(vals, g.h) - want).max() < 1e-10


def test_fd_derivative_fourth_order_on_exponential():
    errs = []
    for h in (2e-2, 1e-2):
        g = SGrid.from_step(0.0, 1.0, h)
        s = g.values()
        d = fd_derivative(np.exp(1j * s), g.h)
        errs.append(np.abs(d - 1j * np.exp(1j * s)).max())
    assert errs[0] / errs[1] > 12.0  # ~16 for a clean 4th-order method


def test_fd_derivative_axis_argument():
    g = SGrid.from_count(0.0, 0.1, 11)
    s = g.values()
    stacked = np.vstack([s**2, 3 * s])
    d = fd_derivative(stacked, g.h, axis=1)
    assert np.abs(d[0] - 2 * s).max() < 1e-11
    assert np.abs(d[1] - 3.0).max() < 1e-11


# --------------------------------------------------------- smooth curves

def _circle(grid, radius=1.0, m=1.0):
    return PolarizedCurve.from_generator(
        grid, lambda s: radius * np.exp(1j * s),
        lambda s: 1j * radius * np.exp(1j * s), m)


def test_generator_curve_uses_analytic_derivatives():
    g = SGrid.from_count(0.0, math.pi / 16, 33)
    c = _circle(g)
    assert np.abs(c.derivatives - 1j * np.exp(1j * g.values())).max() == 0.0


def test_sampled_curve_falls_back_to_fd():
    g = SGrid.from_count(0.0, 0.025, 41)
    s = g.values()
    c = PolarizedCurve.from_samples(g, s + 1j * s**2)
    assert np.abs(c.derivatives - (1 + 2j * s)).max() < 1e-9


def test_curve_point_shape_mismatch():
    g = SGrid.from_count(0.0, 0.25, 5)
    with pytest.raises(CurveError):
        PolarizedCurve.from_samples(g, np.zeros(4, dtype=complex))


def test_curve_rejects_nonfinite_points():
    g = SGrid.from_count(0.0, 0.25, 5)
    pts = np.ones(5, dtype=complex)
    pts[2] = np.nan
    with pytest.raises(CurveError):
        PolarizedCurve.from_samples(g, pts)


def test_polarization_must_not_change_sign_or_vanish():
    g = SGrid.from_count(0.0, 0.25, 5)
    pts = g.values() + 0j
    with pytest.raises(CurveError):
        PolarizedCurve(g, pts, np.array([1.0, 1, 0, 1, 1]))
    with pytest.raises(CurveError):
        PolarizedCurve(g, pts, np.array([1.0, 1, -1, 1, 1]))


def test_singular_tangent_is_rejected():
    g = SGrid.from_count(-1.0, 0.1, 21)
    s = g.values()
    with pytest.raises(SingularTangentError):
        # x(s) = s^2 has x'(0) = 0
        PolarizedCurve.from_generator(g, lambda t: t**2 + 0j, lambda t: 2 * t + 0j)


def test_tangent_samples_are_used_verbatim():
    g = SGrid.from_count(0.0, 0.1, 7)
    s = g.values()
    xp = np.full(7, 2.0 + 0j)
    c = PolarizedCurve(g, 2 * s + 0j, np.ones(7), xp_samples=xp)
    assert c.derivatives is c.xp_samples
    assert np.all(c.derivatives == 2.0)


def test_tangent_samples_validation():
    g = SGrid.from_count(0.0, 0.1, 7)
    s = g.values()
    with pytest.raises(CurveError):
        PolarizedCurve(g, s + 0j, np.ones(7), xp_samples=np.ones(6, dtype=complex))
    bad = np.ones(7, dtype=complex)
    bad[0] = np.inf
    with pytest.raises(CurveError):
        PolarizedCurve(g, s + 0j, np.ones(7), xp_samples=bad)
    with pytest.raises(CurveError):
        PolarizedCurve(g, s + 0j, np.ones(7),
                       xp_fn=lambda t: np.ones_like(t, dtype=complex),
                       xp_samples=np.ones(7, dtype=complex))


def test_arclength_deviation():
    g = SGrid.from_step(0.0, 2 * math.pi, 0.1)
    assert _circle(g).arclength_deviation() < 1e-12
    fast = PolarizedCurve.from_generator(
        g, lambda s: 2 * s + 0j, lambda s: 2 * np.ones_like(s, dtype=complex), 1.0)
    assert fast.arclength_deviation() == pytest.approx(3.0)


# -------------------------------------------------------- discrete curves

def test_discrete_edge_lengths():
    c = DiscretePolarizedCurve(np.array([0, 2, 2 + 1j]), 1.0)
    assert c.edge_lengths == pytest.approx([2.0, 1.0])


def test_discrete_mu_broadcast_and_shape():
    c = DiscretePolarizedCurve(np.array([0, 1, 2, 3j]), 0.5)
    assert c.mu.shape == (3,)
    assert np.all(c.mu == 0.5)
    with pytest.raises(CurveError):
        DiscretePolarizedCurve(np.array([0, 1, 2]), [0.5, 0.5, 0.5])


def test_ngon_vertices_close_up():
    for n in (3, 4, 6, 12):
        v = ngon_vertices(n, radius=2.0)
        assert len(v) == n + 1
        assert v[-1] == pytest.approx(v[0])
        edge = 2 * 2.0 * math.sin(math.pi / n)
        assert np.abs(np.abs(np.diff(v)) - edge).max() < 1e-12


def test_ngon_rejects_degenerate_input():
    with pytest.raises(CurveError):
        ngon_vertices(2)
    with pytest.raises(CurveError):
        ngon_vertices(5, radius=0.0)


# ----------------------------------------------------------------- sheets

def test_sheet_shape_checks():
    g = SGrid.from_count(0.0, 0.25, 5)
    with pytest.raises(CurveError):
        Sheet(g, np.zeros((2, 4), dtype=complex))
    with pytest.raises(CurveError):
        Sheet(g, np.zeros(5, dtype=complex))


def test_sheet_tangents_shape_and_use():
    g = SGrid.from_count(0.0, 0.25, 5)
    vals = np.vstack([g.values() + 0j, g.values() + 1j])
    tang = np.ones_like(vals)
    sh = Sheet(g, vals, tangents=tang)
    assert sh.row_derivatives is sh.tangents
    with pytest.raises(CurveError):
        Sheet(g, vals, tangents=np.ones((1, 5), dtype=complex))


def test_sheet_row_curve_threads_tangents():
    g = SGrid.from_count(0.0, 0.25, 5)
    vals = np.vstack([2 * g.values() + 0j])
    sh = Sheet(g, vals, tangents=np.full((1, 5), 2.0 + 0j))
    row = sh.row_curve(0)
    assert np.all(row.derivatives == 2.0)


def test_sheet_fd_rows_when_no_tangents():
    g = SGrid.from_count(0.0, 0.1, 11)
    s = g.values()
    sh = Sheet(g, np.vstack([s**2 + 0j]))
    assert np.abs(sh.row_derivatives[0] - 2 * s).max() < 1e-11


def test_sheet_column():
    g = SGrid.from_count(0.0, 0.5, 3)
    sh = Sheet(g, np.array([[0, 1, 2], [10, 11, 12]], dtype=complex))
    assert list(sh.column(1)) == [1, 11]


# ------------------------------------------------------------ cross ratio

def _one_node(x, xp):
    return PolarizedCurve(SGrid.from_count(0.0, 1.0, 1), [x], 1.0, xp_samples=[xp])


def test_tangential_cross_ratio_hand_value():
    # x(s) = s, xh(s) = s + i: d = -i, d^2 = -1, both tangents 1 -> cr = -1
    table = pair_table(_one_node(0j, 1 + 0j), _one_node(1j, 1 + 0j))
    assert table.cr[0] == pytest.approx(-1.0)


def test_tangential_cross_ratio_guards():
    with pytest.raises(CoincidentPointsError):
        pair_table(_one_node(1 + 1j, 1 + 0j), _one_node(1 + 1j, 1 + 0j))
    with pytest.raises(SingularTangentError):
        _one_node(0j, 0j)

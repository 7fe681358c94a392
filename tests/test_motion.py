"""Isoperimetric motions: frames, the w-recursion, and conserved quantities."""
import math

import numpy as np
import pytest

from darbouxflow.errors import BlowupError, CoincidentPointsError, CurveError, NonRegularError
from darbouxflow.geometry import EPS_REG, SGrid, Sheet, ngon_vertices
from darbouxflow.motion import (
    _angles,
    frame_compatibility_check,
    integrate_motion,
    mkdv_residual,
    smooth_curvature,
    tangential_angles,
)
from darbouxflow.verification import HEPTAGON_LENGTHS, HEPTAGON_TURNS, polyline_vertices

SQUARE = np.array([0, 1, 1 + 1j, 1j, 0], dtype=complex)


def _reference_theta(vertices, w0, n0, eps_reg=EPS_REG):
    """Velocity angles of one polygon the long way round: frame (edge angles
    psi, turning angles kappa), then the w-recursion walked outward from n0,
    then theta = psi + w with the last vertex continuing the recursion."""
    v = np.asarray(vertices, dtype=complex)
    edges = np.diff(v)
    a = np.abs(edges)
    if a.min() <= eps_reg:
        n = int(np.argmin(a))
        raise CoincidentPointsError(f"edge ({n}, {n + 1}) has length {a.min():.3e}")
    t = edges / a
    kappa = np.angle(t[1:] / t[:-1])
    bad = math.pi - np.abs(kappa) <= eps_reg
    if bad.any():
        n = int(np.argmax(bad)) + 1
        raise NonRegularError(f"vertex {n} is not regular", vertex=n)
    psi = np.empty(len(t))
    psi[0] = np.angle(t[0])
    psi[1:] = psi[0] + np.cumsum(kappa)
    w = np.empty(len(psi))
    w[n0] = w0
    for k in range(n0, len(psi) - 1):
        w[k + 1] = -w[k] - kappa[k]
    for k in range(n0, 0, -1):
        w[k - 1] = -w[k] - kappa[k - 1]
    theta = np.empty(len(v))
    theta[:-1] = psi + w
    theta[-1] = psi[-1] - w[-1]
    return theta


def _psi_w(theta):
    """Edge and deformation angles recovered from theta, as MotionResult does."""
    return 0.5 * (theta[1:] + theta[:-1]), -0.5 * (theta[1:] - theta[:-1])


def _polygons():
    rng = np.random.default_rng(3)
    heptagon = polyline_vertices(HEPTAGON_TURNS, HEPTAGON_LENGTHS)
    wide = polyline_vertices(rng.uniform(-0.3, 0.3, 62), rng.uniform(0.8, 1.2, 63))
    return [SQUARE, ngon_vertices(6), heptagon, wide]


def test_angles_match_the_reference_on_single_polygons():
    for v in _polygons():
        for n0 in (0, len(v) // 2, len(v) - 2):
            want = _reference_theta(v, 0.3, n0)
            assert np.array_equal(_angles(v, 0.3, n0, EPS_REG), want)


def test_angles_match_the_reference_on_stacked_polygons():
    rng = np.random.default_rng(5)
    for v in _polygons():
        stack = v[None, :] + 0.05 * (rng.standard_normal((40, len(v)))
                                     + 1j * rng.standard_normal((40, len(v))))
        w0 = rng.uniform(-1.0, 1.0, 40)
        for n0 in (0, len(v) // 2):
            got = _angles(stack, w0, n0, EPS_REG)
            want = np.array([_reference_theta(p, w, n0) for p, w in zip(stack, w0)])
            assert np.array_equal(got, want)


def test_stacked_angles_report_the_first_bad_polygon():
    good = ngon_vertices(4)
    folded = np.array([0, 1, 2, 1, 3], dtype=complex)     # turn of pi at vertex 2
    pinched = np.array([0, 1, 1, 2, 3], dtype=complex)    # edge (1, 2) vanishes
    with pytest.raises(NonRegularError) as info:
        _angles(np.stack([good, folded, good]), 0.0, 0, EPS_REG)
    assert info.value.vertex == 2
    with pytest.raises(CoincidentPointsError, match=r"edge \(1, 2\)"):
        _angles(np.stack([good, pinched, good]), 0.0, 0, EPS_REG)


def test_frame_of_unit_square():
    psi, w = _psi_w(_angles(SQUARE, 0.0, 0, EPS_REG))
    assert psi == pytest.approx([0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert np.diff(psi) == pytest.approx([math.pi / 2] * 3)


def test_frame_psi_unwraps_past_pi():
    # two full turns of a 12-gon: psi must keep increasing, not wrap at pi
    v = np.concatenate([ngon_vertices(12), ngon_vertices(12)[1:] ])
    psi, _ = _psi_w(_angles(v, 0.0, 0, EPS_REG))
    assert np.all(np.diff(psi) > 0)
    assert psi[-1] - psi[0] == pytest.approx(2 * math.pi * (len(psi) - 1) / 12)


def test_frame_rejects_coincident_and_folded_vertices():
    with pytest.raises(CoincidentPointsError):
        _angles(np.array([0, 0, 1], dtype=complex), 0.0, 0, EPS_REG)
    with pytest.raises(NonRegularError) as info:
        _angles(np.array([0, 1, 0], dtype=complex), 0.0, 0, EPS_REG)
    assert info.value.vertex == 1


def test_collinear_vertices_are_regular():
    psi, _ = _psi_w(_angles(np.array([0, 1, 2, 3], dtype=complex), 0.0, 0, EPS_REG))
    assert np.diff(psi) == pytest.approx([0.0, 0.0])


def test_seed_w_recursion_by_hand():
    _, w = _psi_w(_angles(SQUARE, 0.3, 0, EPS_REG))
    k = math.pi / 2
    assert w == pytest.approx([0.3, -0.3 - k, 0.3, -0.3 - k])
    # seeding elsewhere reproduces the same solution of the recursion
    _, w2 = _psi_w(_angles(SQUARE, w[2], 2, EPS_REG))
    assert w2 == pytest.approx(w)


def test_theta_assembly_by_hand():
    # psi = (0, pi/2, pi, 3pi/2), w = (0.3, -0.3 - pi/2, 0.3, -0.3 - pi/2)
    th = _angles(SQUARE, 0.3, 0, EPS_REG)
    assert th == pytest.approx([0.3, -0.3, math.pi + 0.3, math.pi - 0.3, 2 * math.pi + 0.3])


def test_motion_rejects_bad_seed_edge_and_shape():
    grid = SGrid.from_step(0.0, 0.1, 1e-2)
    with pytest.raises(CurveError):
        integrate_motion(SQUARE, 0.0, 4, grid)
    with pytest.raises(CurveError):
        integrate_motion(np.stack([SQUARE, SQUARE]), 0.0, 0, grid)


def test_motion_conserves_edge_lengths():
    grid = SGrid.from_step(0.0, 1.0, 1e-3)
    res = integrate_motion(ngon_vertices(5), 0.2, 0, grid)
    spread = res.a.max(axis=1) - res.a.min(axis=1)
    assert spread.max() < 1e-10  # conserved up to accumulated h^4 step error


def test_square_half_turn_rotates_rigidly():
    # w0 = -kappa/2 turns a regular polygon rigidly; pairwise distances hold
    grid = SGrid.from_step(0.0, 2.0, 1e-3)
    res = integrate_motion(ngon_vertices(4), -math.pi / 4, 0, grid)
    v = res.sheet.values
    for i in range(4):
        for j in range(i + 1, 4):
            gap = np.abs(v[i] - v[j])
            assert gap.max() - gap.min() < 1e-11
    # and it genuinely moves: every theta row advances linearly in s
    dth = res.theta[:, -1] - res.theta[:, 0]
    assert np.abs(dth - dth[0]).max() < 1e-10
    assert abs(dth[0]) > 1.0


def test_rotating_square_curvature_matches_circumradius():
    grid = SGrid.from_step(0.0, 1.0, 1e-3)
    res = integrate_motion(ngon_vertices(4), -math.pi / 4, 0, grid)
    k = smooth_curvature(res.sheet)[:, 4:-4]
    assert np.abs(np.abs(k) - 1.0).max() < 1e-8  # circumradius of ngon_vertices(4) is 1


def test_motion_accepts_callable_w0():
    grid = SGrid.from_step(0.0, 0.5, 1e-3)
    res = integrate_motion(ngon_vertices(5), lambda s: 0.2 * math.sin(s), 0, grid)
    spread = res.a.max(axis=1) - res.a.min(axis=1)
    assert spread.max() < 1e-10


def test_mkdv_residual_on_pentagon():
    grid = SGrid.from_step(0.0, 1.0, 1e-3)
    res = integrate_motion(ngon_vertices(5), 0.2, 0, grid)
    a0 = np.abs(np.diff(ngon_vertices(5)))
    assert mkdv_residual(res.theta, a0, grid) < 1e-6


def test_frame_compatibility_on_pentagon():
    grid = SGrid.from_step(0.0, 1.0, 1e-3)
    res = integrate_motion(ngon_vertices(5), 0.2, 0, grid)
    matrix_defect, scalar_defect = frame_compatibility_check(res)
    assert matrix_defect < 1e-8
    assert scalar_defect < 1e-8


def test_coarse_grid_cannot_track_branches():
    grid = SGrid.from_step(0.0, 8.0, 2.0)
    with pytest.raises(BlowupError):
        integrate_motion(ngon_vertices(4), -math.pi / 4, 0, grid)


def test_tangential_angles_reference_pins_branch():
    grid = SGrid.from_step(0.0, 1.0, 0.1)
    s = grid.values()
    vals = np.vstack([np.exp(1j * s), np.exp(1j * s)])
    tang = 1j * vals
    sheet = Sheet(grid, vals, tangents=tang)
    plain = tangential_angles(sheet)
    assert np.abs(plain[1] - plain[0]).max() < 1e-12
    lifted = tangential_angles(sheet, reference=np.array([plain[0, 0],
                                                          plain[0, 0] + 2 * math.pi]))
    assert np.abs(lifted[1] - plain[1] - 2 * math.pi).max() < 1e-12


def test_tangential_angles_reference_shape_guard():
    grid = SGrid.from_step(0.0, 1.0, 0.1)
    s = grid.values()
    sheet = Sheet(grid, np.vstack([np.exp(1j * s)]), tangents=np.vstack([1j * np.exp(1j * s)]))
    with pytest.raises(CurveError):
        tangential_angles(sheet, reference=np.zeros(3))

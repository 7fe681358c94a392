"""Isoperimetric motions: the angle-form engine against the vertex-form
reference, the w-recursion, and conserved quantities."""
import cmath
import math

import numpy as np
import pytest

from darbouxflow.errors import BlowupError, CoincidentPointsError, CurveError, NonRegularError
from darbouxflow.expressions import parse_expression
from darbouxflow.geometry import EPS_REG, SGrid, Sheet, fd_derivative, ngon_vertices
from darbouxflow.motion import (
    frame_compatibility_check,
    integrate_motion,
    mkdv_residual,
    tangential_angles,
)
from darbouxflow.ode import rk4_path
from darbouxflow.verification import (HEPTAGON_LENGTHS, HEPTAGON_N0, HEPTAGON_TURNS,
                                      HEPTAGON_W0, polyline_vertices)

SQUARE = np.array([0, 1, 1 + 1j, 1j, 0], dtype=complex)

#: A grid of one node: the motion only reads and checks its input polygon.
ONE_NODE = SGrid(0.0, 1.0, 1)


def _reference_theta(vertices, w0, n0):
    """Velocity angles of one polygon the long way round: frame (edge angles
    psi, turning angles kappa), then the w-recursion walked outward from n0,
    then theta = psi + w with the last vertex continuing the recursion."""
    v = np.asarray(vertices, dtype=complex)
    edges = np.diff(v)
    a = np.abs(edges)
    if a.min() <= EPS_REG:
        n = int(np.argmin(a))
        raise CoincidentPointsError(f"consecutive vertices {n} and {n + 1} coincide")
    t = edges / a
    kappa = np.angle(t[1:] / t[:-1])
    bad = math.pi - np.abs(kappa) <= EPS_REG
    if bad.any():
        n = int(np.argmax(bad)) + 1
        raise NonRegularError(
            f"vertex {n} is not regular (adjacent edges anti-parallel)", vertex=n)
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
    """Edge and deformation angles recovered from theta, as
    frame_compatibility_check does."""
    return 0.5 * (theta[1:] + theta[:-1]), -0.5 * (theta[1:] - theta[:-1])


def _edge_lengths(res):
    """a_n(s_i), measured on the positions."""
    return np.abs(np.diff(res.sheet.values, axis=0))


def _theta0(vertices, w0, n0):
    """The recorded angles of the input polygon."""
    return integrate_motion(vertices, w0, n0, ONE_NODE).theta[:, 0]


def _polygons():
    rng = np.random.default_rng(3)
    heptagon = polyline_vertices(HEPTAGON_TURNS, HEPTAGON_LENGTHS)
    wide = polyline_vertices(rng.uniform(-0.3, 0.3, 62), rng.uniform(0.8, 1.2, 63))
    return [SQUARE, ngon_vertices(6), heptagon, wide]


def test_angles_match_the_reference_on_single_polygons():
    for v in _polygons():
        for n0 in (0, len(v) // 2, len(v) - 2):
            want = _reference_theta(v, 0.3, n0)
            assert np.abs(_theta0(v, 0.3, n0) - want).max() <= 1e-14


def test_angles_match_the_reference_on_stacked_polygons():
    # every row of a motion: the recorded theta is the reference theta of
    # that row's positions, with w0 taken at the row's s
    grid = SGrid.from_step(0.0, 0.02, 1e-3)
    w0 = lambda s: 0.3 + 2.0 * s
    for v in _polygons():
        for n0 in (0, len(v) // 2):
            res = integrate_motion(v, w0, n0, grid)
            for i, s in enumerate(grid.values()):
                theta = res.theta[:, i]
                want = _reference_theta(res.sheet.values[:, i], w0(s), n0)
                want += 2.0 * math.pi * np.round((theta[0] - want[0]) / (2.0 * math.pi))
                assert np.abs(theta - want).max() <= 1e-13


def test_stacked_angles_report_the_first_bad_polygon():
    # vertex 2 turns by pi - 0.05 and closes towards a fold as the polygon
    # moves: row 0 is regular, a later row is not
    turn = cmath.exp(1j * (math.pi - 0.05))
    v = np.array([0, 1, 2, 2 + turn, 2 + turn + 1j], dtype=complex)
    res = integrate_motion(v, 0.0, 0, SGrid.from_step(0.0, 4.0, 1e-2))
    psi, _ = _psi_w(res.theta)
    gap = math.pi - np.abs(psi[2] - psi[1])
    assert gap[0] == pytest.approx(0.05) and 0.0 < gap[-1] < 0.01 * gap[0]
    with pytest.raises(NonRegularError) as info:
        integrate_motion(v, 0.0, 0, SGrid.from_step(0.0, 12.0, 1e-2))
    assert info.value.vertex == 2


def _numpy_stage(v, w0, n0):
    return np.exp(1j * _reference_theta(v, w0, n0))


def _stage_polygons():
    """Open polylines of 2 to 129 vertices and closed regular polygons."""
    rng = np.random.default_rng(11)
    for nv in (2, 3, 4, 6, 7, 8, 16, 32, 48, 64, 65, 128, 129):
        yield polyline_vertices(rng.uniform(-0.6, 0.6, nv - 2), rng.uniform(0.5, 1.5, nv - 1))
        if nv >= 4:
            yield ngon_vertices(nv - 1)


def _stage_cases():
    for v in _stage_polygons():
        for n0 in sorted({0, (len(v) - 1) // 2, len(v) - 2}):
            for w0 in (0.0, 0.3, -1.2):
                yield v, w0, n0


STAGE_GRID = SGrid.from_step(0.0, 2e-5, 1e-5)


def test_plain_stage_matches_the_numpy_stage():
    """The recorded velocities on every row are the numpy stage's velocities
    of that row's positions."""
    for v, w0, n0 in _stage_cases():
        res = integrate_motion(v, w0, n0, STAGE_GRID)
        got = res.sheet.tangents
        assert got.shape == (len(v), STAGE_GRID.count)
        for i in range(STAGE_GRID.count):
            want = _numpy_stage(res.sheet.values[:, i], w0, n0)
            assert np.abs(got[:, i] - want).max() <= 2e-13


def test_stage_reflects_each_velocity_across_its_edge():
    """Oracle free of the angle path: unit speeds, the seed t_{n0} e^{i w0},
    and Re(conj(t_n) (v_{n+1} - v_n)) = 0, which fixes every edge length,
    with t_n the unit edges of each row's positions."""
    for v, w0, n0 in _stage_cases():
        res = integrate_motion(v, w0, n0, STAGE_GRID)
        x, got = res.sheet.values, res.sheet.tangents
        t = np.diff(x, axis=0) / np.abs(np.diff(x, axis=0))
        assert np.abs(np.abs(got) - 1.0).max() <= 4 * np.finfo(float).eps
        assert abs(got[n0, 0] - t[n0, 0] * np.exp(1j * w0)) <= 1e-14
        assert np.abs((t.conj() * (got[1:] - got[:-1])).real).max() <= 1e-13


@pytest.mark.parametrize("vertices, error", [
    ([0, 0], CoincidentPointsError),
    ([0, 1, 1, 2, 3], CoincidentPointsError),               # edge (1, 2) vanishes
    ([0, 1, 1 + 2e-12, 1 + 3e-12, 3], CoincidentPointsError),  # the shorter one is named
    ([0, 1, 0], NonRegularError),
    ([0, 1, 2, 1, 3], NonRegularError),                      # folds back at vertex 2
    ([0, 1, 2, 1, 2, 3], NonRegularError),                   # two folds: the first is named
])
def test_plain_stage_raises_like_the_numpy_stage(vertices, error):
    v = np.array(vertices, dtype=complex)
    with pytest.raises(error) as numpy_info:
        _numpy_stage(v, 0.2, 0)
    with pytest.raises(error) as plain_info:
        integrate_motion(v, 0.2, 0, ONE_NODE)
    assert str(plain_info.value) == str(numpy_info.value)
    assert getattr(plain_info.value, "vertex", None) == getattr(numpy_info.value, "vertex", None)


@pytest.mark.parametrize("gap", [0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 2.5])
def test_stage_fold_screen_keeps_the_turning_bound(gap):
    """Turns of pi - gap*EPS_REG at vertex 2: the motion refuses exactly the
    input polygons that the turning bound refuses."""
    turn = cmath.exp(1j * (math.pi - gap * EPS_REG))
    v = np.array([0, 1, 2, 2 + turn, 2 + 2 * turn], dtype=complex)
    refused = math.pi - abs(np.angle(turn)) <= EPS_REG
    assert refused == (gap <= 1.0)
    if refused:
        with pytest.raises(NonRegularError) as info:
            integrate_motion(v, 0.2, 0, ONE_NODE)
        assert info.value.vertex == 2
    else:
        got = integrate_motion(v, 0.2, 0, ONE_NODE).sheet.tangents[:, 0]
        assert np.abs(got - _numpy_stage(v, 0.2, 0)).max() <= 1e-14


def _reference_motion(v0, w0, n0, grid):
    """Vertex trajectories stepped with the numpy stage through ``rk4_path``."""
    s = grid.refined_values().tolist()
    w = [w0(sk) for sk in s] if callable(w0) else [w0] * len(s)
    return rk4_path(grid.values(), lambda k, x: _numpy_stage(x, w[k], n0), v0).T


def test_motion_matches_the_numpy_stage_reference():
    # the angle form and the vertex form are both RK4, so they differ at
    # O(h^4): by at most about 4e-12 on these at h = 1e-3
    heptagon = polyline_vertices(HEPTAGON_TURNS, HEPTAGON_LENGTHS)
    for v, w0, n0, length in [(ngon_vertices(6), -math.pi / 6.0, 0, 1.0),
                              (ngon_vertices(4), 0.0, 0, 0.5),
                              (ngon_vertices(5), -math.pi / 5.0, 0, 1.0),
                              (heptagon, parse_expression(HEPTAGON_W0), HEPTAGON_N0, 0.5),
                              (ngon_vertices(5), lambda s: 0.2 * np.sin(s), 0, 0.5),
                              (ngon_vertices(6), lambda s: -math.pi / 6 + 0.1 * np.sin(s), 2,
                               1.0)]:
        grid = SGrid.from_step(0.0, length, 1e-3)
        got = integrate_motion(v, w0, n0, grid).sheet.values
        assert np.abs(got - _reference_motion(v, w0, n0, grid)).max() <= 1e-11


@pytest.mark.parametrize("case", ["heptagon", "wide"])
def test_motion_and_the_numpy_stage_reference_differ_at_fourth_order(case):
    rng = np.random.default_rng(13)
    wide = polyline_vertices(rng.uniform(-0.3, 0.3, 62), rng.uniform(0.8, 1.2, 63))
    v, w0, n0, length = {
        "heptagon": (polyline_vertices(HEPTAGON_TURNS, HEPTAGON_LENGTHS),
                     parse_expression(HEPTAGON_W0), HEPTAGON_N0, 0.5),
        "wide": (wide, 0.1, 3, 0.1)}[case]
    gaps = []
    for h in (1e-3, 5e-4):
        grid = SGrid.from_step(0.0, length, h)
        got = integrate_motion(v, w0, n0, grid).sheet.values
        gaps.append(np.abs(got - _reference_motion(v, w0, n0, grid)).max())
    assert 12.0 <= gaps[0] / gaps[1] <= 20.0


@pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.inf)], ids=["nan", "inf"])
def test_non_finite_vertex_is_bad_input(recwarn, bad):
    v = SQUARE.copy()
    v[2] = bad
    with pytest.raises(CurveError, match="^x is not finite at vertex 2$"):
        integrate_motion(v, 0.0, 0, SGrid.from_step(0.0, 0.1, 1e-2))
    assert not recwarn


def test_frame_of_unit_square():
    psi, w = _psi_w(_theta0(SQUARE, 0.0, 0))
    assert psi == pytest.approx([0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert np.diff(psi) == pytest.approx([math.pi / 2] * 3)


def test_frame_psi_unwraps_past_pi():
    # two full turns of a 12-gon: psi must keep increasing, not wrap at pi
    v = np.concatenate([ngon_vertices(12), ngon_vertices(12)[1:] ])
    psi, _ = _psi_w(_theta0(v, 0.0, 0))
    assert np.all(np.diff(psi) > 0)
    assert psi[-1] - psi[0] == pytest.approx(2 * math.pi * (len(psi) - 1) / 12)


def test_frame_rejects_coincident_and_folded_vertices():
    with pytest.raises(CoincidentPointsError):
        _theta0(np.array([0, 0, 1], dtype=complex), 0.0, 0)
    with pytest.raises(NonRegularError) as info:
        _theta0(np.array([0, 1, 0], dtype=complex), 0.0, 0)
    assert info.value.vertex == 1


def test_collinear_vertices_are_regular():
    psi, _ = _psi_w(_theta0(np.array([0, 1, 2, 3], dtype=complex), 0.0, 0))
    assert np.diff(psi) == pytest.approx([0.0, 0.0])


def test_seed_w_recursion_by_hand():
    _, w = _psi_w(_theta0(SQUARE, 0.3, 0))
    k = math.pi / 2
    assert w == pytest.approx([0.3, -0.3 - k, 0.3, -0.3 - k])
    # seeding elsewhere reproduces the same solution of the recursion
    _, w2 = _psi_w(_theta0(SQUARE, w[2], 2))
    assert w2 == pytest.approx(w)


def test_theta_assembly_by_hand():
    # psi = (0, pi/2, pi, 3pi/2), w = (0.3, -0.3 - pi/2, 0.3, -0.3 - pi/2)
    th = _theta0(SQUARE, 0.3, 0)
    assert th == pytest.approx([0.3, -0.3, math.pi + 0.3, math.pi - 0.3, 2 * math.pi + 0.3])


def test_motion_rejects_bad_seed_edge_and_shape():
    grid = SGrid.from_step(0.0, 0.1, 1e-2)
    with pytest.raises(CurveError):
        integrate_motion(SQUARE, 0.0, 4, grid)
    with pytest.raises(CurveError):
        integrate_motion(np.stack([SQUARE, SQUARE]), 0.0, 0, grid)
    with pytest.raises(CurveError, match="^a motion needs at least two vertices$"):
        integrate_motion(SQUARE[:1], 0.0, 0, grid)


def test_motion_conserves_edge_lengths():
    grid = SGrid.from_step(0.0, 1.0, 1e-3)
    res = integrate_motion(ngon_vertices(5), 0.2, 0, grid)
    spread = np.ptp(_edge_lengths(res), axis=1)
    assert spread.max() < 1e-14  # exact up to the rounding of the cumulative sum


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
    xp = res.sheet.row_derivatives
    xpp = fd_derivative(xp, grid.h)
    k = ((np.conj(xp) * xpp).imag / np.abs(xp) ** 3)[:, 4:-4]   # x'' = i k x'
    assert np.abs(np.abs(k) - 1.0).max() < 1e-8  # circumradius of ngon_vertices(4) is 1


def test_motion_accepts_callable_w0():
    grid = SGrid.from_step(0.0, 0.5, 1e-3)
    res = integrate_motion(ngon_vertices(5), lambda s: 0.2 * np.sin(s), 0, grid)
    spread = np.ptp(_edge_lengths(res), axis=1)
    assert spread.max() < 1e-14


def test_callable_w0_is_called_once_per_stage_abscissa():
    # one call with the 2N - 1 stage abscissas of an N-node grid: the nodes
    # and the step midpoints, with the node values reused for the recorded theta
    grid = SGrid.from_step(-0.37, 0.13, 1e-2)
    calls = []

    def w0(s):
        calls.append(s)
        return 0.2 * np.sin(s)

    res = integrate_motion(ngon_vertices(5), w0, 0, grid)
    assert len(calls) == 1
    assert np.array_equal(calls[0], grid.refined_values())
    # the seed edge's recorded w is w0 at the nodes
    _, w = _psi_w(res.theta)
    assert np.abs(w[0] - 0.2 * np.sin(grid.values())).max() < 1e-12


def test_w0_stage_samples_match_the_callable():
    # samples on the stage abscissas are what the callable is turned into
    grid = SGrid.from_step(0.0, 0.5, 1e-3)
    verts = polyline_vertices(HEPTAGON_TURNS, HEPTAGON_LENGTHS)
    w0 = parse_expression(HEPTAGON_W0)
    called = integrate_motion(verts, w0, HEPTAGON_N0, grid)
    sampled = integrate_motion(verts, w0(grid.refined_values()), HEPTAGON_N0, grid)
    assert np.array_equal(sampled.sheet.values, called.sheet.values)
    assert np.array_equal(sampled.theta, called.theta)
    with pytest.raises(CurveError, match=r"^w0 samples have shape \(501,\), expected "
                                         r"\(1001,\) on the refined grid$"):
        integrate_motion(verts, w0(grid.values()), HEPTAGON_N0, grid)


@pytest.mark.parametrize("w0, where", [
    (lambda s: np.where(s > 0.2, np.inf, -np.pi / 6), "0.2005"),
    (lambda s: 1 / (s - 0.25), "0.25"),      # a pole at a node
    (lambda s: np.exp(4000 * s), "0.1775"),  # overflow at a midpoint
    (math.nan, "0.0"),
], ids=["inf-past-0.2", "pole", "overflow", "nan-constant"])
def test_non_finite_w0_is_bad_input(w0, where):
    # refused before integrating, at the first stage abscissa where it fails
    grid = SGrid.from_step(0.0, 0.5, 1e-3)
    with pytest.raises(CurveError, match=rf"w0 is not finite at s = {where}$"):
        integrate_motion(ngon_vertices(6), w0, 0, grid)


def test_mkdv_residual_on_pentagon():
    grid = SGrid.from_step(0.0, 1.0, 1e-3)
    res = integrate_motion(ngon_vertices(5), 0.2, 0, grid)
    assert mkdv_residual(res) < 1e-6


def test_frame_compatibility_on_pentagon():
    grid = SGrid.from_step(0.0, 1.0, 1e-3)
    res = integrate_motion(ngon_vertices(5), 0.2, 0, grid)
    assert frame_compatibility_check(res) < 1e-8
    # one edge has no interior vertex, so the law holds vacuously
    assert frame_compatibility_check(integrate_motion([0j, 1 + 0j], 0.2, 0, grid)) == 0.0


def test_coarse_grid_cannot_track_branches():
    # the first row whose jump reaches MAX_ANGLE_JUMP is the one reported.  The
    # rotating square's angles advance at rate 1, so by h = 2 in one step; at
    # h = 1 the hexagon grows round-off about tenfold per step, so the digits
    # of its jump follow the rounding of the stage
    for n, w0, s1, h, index, jump in ((4, -math.pi / 4, 8.0, 2.0, 1, "2.000"),
                                      (6, -math.pi / 6, 20.0, 1.0, 14, "2.869")):
        grid = SGrid.from_step(0.0, s1, h)
        with pytest.raises(BlowupError, match=f"angle jump {jump} at grid index {index}:") as info:
            integrate_motion(ngon_vertices(n), w0, 0, grid)
        assert (info.value.index, info.value.s) == (index, index * h)


def test_a_step_that_overflows_blows_up_at_its_node():
    # 2/a = 2e8 times h = 1e300 overflows the angles mid-step, and math.sin
    # refuses the infinite angle before the step's node is recorded
    grid = SGrid.from_step(0.0, 1e300, 1e300)
    with pytest.raises(BlowupError, match="^integration blew up at grid index 1$") as info:
        integrate_motion([0j, 1e-8 + 0j, 2e-8 + 1e-8j], 0.5, 0, grid)
    assert (info.value.index, info.value.s) == (1, 1e300)


def test_motion_theta_unwraps_like_the_row_by_row_loop():
    # the recorded theta against nearest-branch unwrapping one row at a time,
    # on a hexagon that turns more than once
    grid = SGrid.from_step(0.0, 8.0, 1e-2)
    w0 = lambda s: -math.pi / 6 + 0.1 * np.sin(s)
    res = integrate_motion(ngon_vertices(6), w0, 1, grid)
    raw = np.array([_reference_theta(row, w0(s), 1)
                    for row, s in zip(res.sheet.values.T, grid.values())])
    unwrapped = raw.copy()
    for i in range(1, grid.count):
        unwrapped[i] += 2.0 * math.pi * np.round(
            (unwrapped[i - 1] - unwrapped[i]) / (2.0 * math.pi))
    assert np.abs(res.theta - unwrapped.T).max() <= 1e-12
    assert np.abs(unwrapped - raw).max() > 6.0


def test_tangential_angles_reference_pins_branch():
    grid = SGrid.from_step(0.0, 1.0, 0.1)
    s = grid.values()
    vals = np.vstack([np.exp(1j * s), np.exp(1j * s)])
    sheet = Sheet(grid, vals, tangents=1j * vals)
    theta = s + math.pi / 2
    reference = np.vstack([theta, theta + 2 * math.pi])
    assert np.abs(tangential_angles(sheet, reference) - reference).max() < 1e-12
    # only the branch nearest the reference at the first node counts
    shifted = reference + np.array([[3.0], [-3.0]])
    assert np.abs(tangential_angles(sheet, shifted) - reference).max() < 1e-12


def test_tangential_angles_reference_shape_guard():
    grid = SGrid.from_step(0.0, 1.0, 0.1)
    s = grid.values()
    sheet = Sheet(grid, np.vstack([np.exp(1j * s)]), tangents=np.vstack([1j * np.exp(1j * s)]))
    for reference in (np.zeros(3), np.zeros(1), np.zeros((1, 3))):
        with pytest.raises(CurveError):
            tangential_angles(sheet, reference=reference)


def test_row_zero_is_the_polygon_when_an_edge_quotient_overflows():
    # the turning angle of edges 1e-8 and 1e301 is taken over the unit edges
    v = np.array([0, 1e-8, 1e301 + 1e300j])
    row0 = integrate_motion(v, 0.0, 0, ONE_NODE).sheet.values[:, 0]
    assert np.allclose(row0, v, rtol=1e-15, atol=0.0)

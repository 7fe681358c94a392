"""Grids, curves, sheets, and the small complex-plane helpers."""
import math
import re

import numpy as np
import pytest

from darbouxflow import geometry
from darbouxflow.darboux import DarbouxParams, darboux_transform, pair_table, riccati_solve
from darbouxflow.errors import (CoincidentPointsError, CurveError, GridTooShortError,
                                SingularTangentError)
from darbouxflow.expressions import parse_expression
from darbouxflow.geometry import (
    DiscretePolarizedCurve,
    _circle,
    _lagrange_deriv_weights,
    _lagrange_weights,
    PolarizedCurve,
    SGrid,
    Sheet,
    dot,
    fd_derivative,
    ngon_vertices,
)


# ---------------------------------------------------------------- grids

def test_grid_from_step_snaps_count():
    g = SGrid.from_step(0.0, 1.0, 1e-3)
    assert g.count == 1001
    s = g.values()
    assert s[0] == 0.0
    assert s[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.diff(s), g.h)


def test_grid_from_step_refuses_reversed_endpoints():
    # reversed by less than half a step is still reversed; equal endpoints
    # are a one-node grid
    for s0, s1 in ((1.0, 0.9996), (1.0, 0.0)):
        with pytest.raises(CurveError, match=rf"^grid endpoints reversed: {s0!r} > {s1!r}$"):
            SGrid.from_step(s0, s1, 1e-3)
    g = SGrid.from_step(1.0, 1.0, 1e-3)
    assert (g.count, g.s1) == (1, 1.0)


def test_refined_values_interleave_midpoints():
    g = SGrid(0.0, 0.5, 3)
    r = g.refined_values()
    assert list(r) == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_rejects_bad_step():
    with pytest.raises(CurveError):
        SGrid.from_step(0.0, 1.0, -0.1)
    with pytest.raises(CurveError):
        SGrid.from_step(0.0, 1.0, 0.0)
    # non-finite numbers are refused, not passed on to the node count, and
    # so is a node count (s1 - s0)/h that overflows to inf
    for s0, s1, h in ((0.0, 1.0, math.nan), (0.0, 1.0, math.inf),
                      (math.nan, 1.0, 0.1), (0.0, math.inf, 0.1),
                      (-1e308, 1e308, 1e307), (0.0, 2 * math.pi, 1e-320)):
        with pytest.raises(CurveError):
            SGrid.from_step(s0, s1, h)
    # a grid built directly is held to the same rules, its derived s1 included
    for s0, h, count, message in ((0.0, -0.1, 3, "grid step"), (0.0, math.nan, 3, "grid step"),
                                  (0.0, 0.1, 0, "at least one node"),
                                  (math.nan, 0.1, 3, "endpoints"), (1e308, 1e308, 3, "endpoints")):
        with pytest.raises(CurveError, match=message):
            SGrid(s0, h, count)


def test_grid_refuses_a_node_count_numpy_cannot_size():
    # 2*count - 1 complex stages of 16 bytes each must fit numpy's intp;
    # building a grid allocates nothing, so the limit itself is safe to test
    limit = (np.iinfo(np.intp).max // 16 + 1) // 2
    assert SGrid(0.0, 1e-300, limit).count == limit
    for grid in (lambda: SGrid(0.0, 1e-300, limit + 1),
                 lambda: SGrid.from_step(0.0, 2 * math.pi, 1e-300)):
        with pytest.raises(CurveError, match="^grid node count is too large to allocate$"):
            grid()


def test_grid_node_count_must_be_whole():
    # 2.5 nodes would give 4 stage points and an s1 that is not a node
    with pytest.raises(CurveError, match="whole count"):
        SGrid(0.0, 0.1, 2.5)
    assert SGrid(0.0, 0.1, np.int64(3)).s1 == pytest.approx(0.2)


# ------------------------------------------------------- plane helpers

def test_dot_rotate_hand_values():
    assert dot(1 + 0j, 1j) == pytest.approx(0.0)
    assert dot(2 + 1j, 2 + 1j) == pytest.approx(5.0)
    # a rotation is a unit-modulus multiplication, which leaves it unchanged
    u = complex(math.cos(0.7), math.sin(0.7))
    assert dot((2 + 1j) * u, (1 - 3j) * u) == pytest.approx(dot(2 + 1j, 1 - 3j))


# -------------------------------------------------- finite differences

def test_fd_derivative_exact_on_quartics():
    # the five-point stencils (central and one-sided) are exact through s^4
    g = SGrid(0.0, 0.1, 21)
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
    g = SGrid(0.0, 0.1, 11)
    s = g.values()
    stacked = np.vstack([s**2, 3 * s])
    d = fd_derivative(stacked, g.h)
    assert np.abs(d[0] - 2 * s).max() < 1e-11
    assert np.abs(d[1] - 3.0).max() < 1e-11


# --------------------------------------------------------- smooth curves

def test_generator_curve_uses_analytic_derivatives():
    g = SGrid(0.0, math.pi / 16, 33)
    c = _circle(g)
    assert np.abs(c.derivatives - 1j * np.exp(1j * g.values())).max() == 0.0


def test_analytic_tangent_is_evaluated_once_per_grid():
    # once, on the refined grid: the node entries are the derivatives and
    # the whole array feeds the Riccati stages
    sizes = []

    def xp(s):
        sizes.append(np.size(s))
        return 1j * np.exp(1j * s)

    g = SGrid.from_step(0.0, 1.0, 1e-3)
    c = PolarizedCurve.from_generator(g, lambda s: np.exp(1j * s), xp)
    assert np.abs(c.derivatives - 1j * np.exp(1j * g.values())).max() == 0.0
    c._stage_data
    assert sizes == [2001]


def test_x_xp_and_m_are_each_called_once_with_the_stage_abscissas():
    calls = {"x": [], "xp": [], "m": []}

    def counted(name, f):
        return lambda s: calls[name].append(s) or f(s)

    g = SGrid.from_step(0.0, 0.5, 1e-2)
    c = PolarizedCurve.from_generator(g, counted("x", lambda s: np.exp(1j * s)),
                                      counted("xp", lambda s: 1j * np.exp(1j * s)),
                                      counted("m", lambda s: 1.0 + 0.5 * np.sin(s)))
    c._stage_data
    for name, seen in calls.items():
        assert len(seen) == 1, name
        assert np.array_equal(seen[0], g.refined_values()), name
        assert seen[0].size == 2 * g.count - 1


def test_generator_tangent_not_finite_at_a_midpoint_is_refused(recwarn):
    # x' = 0/0 only at the first RK4 midpoint; the nodes alone look regular
    g = SGrid.from_step(0.0, 0.1, 1e-3)
    with pytest.raises(CurveError, match=r"^x' is not finite at s = 0\.0005$"):
        PolarizedCurve.from_generator(g, lambda s: s + 0j,
                                      lambda s: (s - 0.0005) / (s - 0.0005) + 0j)
    with pytest.raises(CurveError, match=r"^x is not finite at s = 0\.0015$"):
        PolarizedCurve.from_generator(g, lambda s: 1 / (s - 0.0015) + 0j, lambda s: 1 + 0j * s)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_lagrange_weights_are_shared_read_only():
    # computed once per (window, t) for every sampled curve, so no caller
    # may write into them; the quintic oracle checks the shared values
    for weights in (_lagrange_weights, _lagrange_deriv_weights):
        w = weights(6, 2.5)
        assert weights(6, 2.5) is w
        with pytest.raises(ValueError):
            w[0] = 0.0
    g = SGrid(0.0, 0.1, 12)
    mids = g.refined_values()[1::2]
    c = PolarizedCurve.from_samples(g, g.values() ** 5 + 0j)
    xs, xps, _ = c._stage_data
    assert np.abs(xs[1::2] - mids**5).max() < 1e-12
    assert np.abs(xps[1::2] - 5 * mids**4).max() < 1e-10


def test_sampled_curve_falls_back_to_fd():
    g = SGrid(0.0, 0.025, 41)
    s = g.values()
    c = PolarizedCurve.from_samples(g, s + 1j * s**2)
    assert np.abs(c.derivatives - (1 + 2j * s)).max() < 1e-9


def test_short_sampled_curve_is_refused_when_built():
    # its tangents come from the 5-point stencil, taken by the constructor
    g = SGrid(0.0, 0.5, 3)
    with pytest.raises(GridTooShortError,
                       match="^need at least 5 nodes for the 4th-order stencil, got 3$"):
        PolarizedCurve.from_samples(g, g.values() + 0j)


def test_fd_derivative_runs_once_per_sampled_curve(monkeypatch):
    # a generator curve and a transform row carry their tangents; a sampled
    # curve differences its points once, when it is built
    sizes = []

    def counted(values, h):
        sizes.append(np.size(values))
        return fd_derivative(values, h)

    monkeypatch.setattr(geometry, "fd_derivative", counted)
    g = SGrid.from_step(0.0, 1.0, 1e-2)
    sampled = PolarizedCurve.from_samples(g, np.exp(1j * g.values()))
    assert sizes == [101]
    circle = _circle(g)
    for curve in (sampled, circle):
        t = darboux_transform(curve, DarbouxParams(0.25, -1.0 + 0j))
        t.derivatives, curve.derivatives, curve.arclength_deviation()
    assert sizes == [101]


def test_curve_point_shape_mismatch():
    g = SGrid(0.0, 0.25, 5)
    with pytest.raises(CurveError):
        PolarizedCurve.from_samples(g, np.zeros(4, dtype=complex))


def test_curve_rejects_nonfinite_points():
    g = SGrid(0.0, 0.25, 5)
    pts = np.ones(5, dtype=complex)
    pts[2] = np.nan
    with pytest.raises(CurveError):
        PolarizedCurve.from_samples(g, pts)


def test_sampled_tangents_that_overflow_are_refused_by_s():
    # the stencil overflows to inf - inf = nan at every node, without a warning
    g = SGrid(0.0, 0.25, 5)
    with pytest.raises(CurveError, match=r"^x' is not finite at s = 0\.0$"):
        PolarizedCurve.from_samples(g, [0, 1e308, -1e308, 1e308, 0])


def test_polarization_must_not_change_sign_or_vanish():
    # m sampled on the refined grid: even entries at the nodes, odd ones at
    # the RK4 midpoints.  Each refusal names the s of the first bad stage,
    # node or midpoint alike.
    g = SGrid(0.0, 0.25, 5)
    pts = g.values() + 0j
    for index, value, message in ((4, 0.0, "polarization vanishes at s = 0.5"),
                                  (4, -1.0, "polarization changes sign at s = 0.5"),
                                  (0, np.nan, "polarization is not finite at s = 0.0"),
                                  (3, 0.0, "polarization vanishes at s = 0.375"),
                                  (7, -1.0, "polarization changes sign at s = 0.875"),
                                  (1, np.inf, "polarization is not finite at s = 0.125")):
        m = np.ones(9)
        m[index] = value
        with pytest.raises(CurveError, match=f"^{message}$"):
            PolarizedCurve(g, pts, m)
    for m, message in ((0.0, "polarization vanishes at s = 0.0"),
                       (np.nan, "polarization is not finite at s = 0.0")):
        with pytest.raises(CurveError, match=f"^{message}$"):
            PolarizedCurve(g, pts, m)


def test_polarization_that_divides_by_zero_is_not_finite():
    # Python's own float division raises rather than giving inf
    g = SGrid(0.0, 0.25, 5)
    for m in (parse_expression("1/0 + s"), lambda s: 1 / 0):
        with pytest.raises(CurveError, match="^polarization is not finite at s = 0.0$"):
            PolarizedCurve.from_generator(g, lambda s: s + 0j, lambda s: 1 + 0 * s, m)


def test_node_length_polarization_is_refused():
    g = SGrid(0.0, 0.25, 5)
    with pytest.raises(CurveError, match=r"polarization samples have shape \(5,\), expected \(9,\)"):
        PolarizedCurve(g, g.values() + 0j, np.ones(5))


def test_singular_tangent_is_rejected():
    g = SGrid(-1.0, 0.1, 21)
    s = g.values()
    with pytest.raises(SingularTangentError):
        # x(s) = s^2 has x'(0) = 0
        PolarizedCurve.from_generator(g, lambda t: t**2 + 0j, lambda t: 2 * t + 0j)


def test_tangent_samples_are_used_verbatim():
    g = SGrid(0.0, 0.1, 7)
    s = g.values()
    xp = np.full(7, 2.0 + 0j)
    c = PolarizedCurve(g, 2 * s + 0j, 1.0, derivatives=xp)
    assert c.derivatives is xp
    assert np.all(c.derivatives == 2.0)


def test_tangent_samples_validation():
    g = SGrid(0.0, 0.1, 7)
    s = g.values()
    with pytest.raises(CurveError):
        PolarizedCurve(g, s + 0j, 1.0, derivatives=np.ones(6, dtype=complex))
    bad = np.ones(7, dtype=complex)
    bad[0] = np.inf
    with pytest.raises(CurveError):
        PolarizedCurve(g, s + 0j, 1.0, derivatives=bad)


def _with(values, index, bad):
    out = np.array(values)
    out[index] = bad
    return out


G5 = SGrid(0.0, 0.25, 5)
LINE5 = G5.values() + 0j


@pytest.mark.parametrize("build, error, message", [
    # finite samples
    (lambda: PolarizedCurve(G5, _with(LINE5, 2, np.nan), 1.0),
     CurveError, "x is not finite at s = 0.5"),
    (lambda: PolarizedCurve(G5, LINE5, 1.0, _with(np.ones(5), 1, np.inf)),
     CurveError, "x' is not finite at s = 0.25"),
    (lambda: Sheet(G5, _with(np.zeros((3, 5)), (1, 2), np.nan)),
     CurveError, "x is not finite at row 1, s = 0.5"),
    (lambda: Sheet(G5, np.zeros((3, 5)), _with(np.ones((3, 5)), (2, 4), np.inf)),
     CurveError, "x' is not finite at row 2, s = 1.0"),
    (lambda: DiscretePolarizedCurve(_with(ngon_vertices(4), 3, np.nan), 1.0),
     CurveError, "x is not finite at vertex 3"),
    (lambda: DiscretePolarizedCurve(ngon_vertices(4), [1.0, np.nan, 1.0, 1.0]),
     CurveError, "mu is not finite at edge (1, 2)"),
    # one-signed polarization: m at the RK4 stages, mu on the edges
    (lambda: PolarizedCurve.from_generator(G5, lambda s: s + 0j, lambda s: 1 + 0j * s,
                                           lambda s: (s - 0.125) ** 2),
     CurveError, "polarization vanishes at s = 0.125"),
    (lambda: PolarizedCurve(G5, LINE5, lambda s: 0.3 - s),
     CurveError, "polarization changes sign at s = 0.375"),
    (lambda: DiscretePolarizedCurve(ngon_vertices(4), [1.0, -1.0, 1.0, 1.0]),
     CurveError, "polarization changes sign at edge (1, 2)"),
    (lambda: DiscretePolarizedCurve(ngon_vertices(4), [-1.0, -1.0, -1.0, 0.0]),
     CurveError, "polarization vanishes at edge (3, 4)"),
    # regular tangent: at the nodes, and at the stages riccati_solve reads
    (lambda: PolarizedCurve(G5, LINE5, 1.0, _with(np.ones(5), 3, 0.0)),
     SingularTangentError, "curve is not regular: |x'| = 0.000e+00 at s = 0.75"),
    (lambda: riccati_solve(PolarizedCurve.from_generator(
        G5, lambda s: 0.5 * (s - 0.125) ** 2 + 0j, lambda s: s - 0.125 + 0j), 0.25, 5 + 0j),
     SingularTangentError, "curve is not regular: |x'| = 0.000e+00 at s = 0.125"),
], ids=["node-x", "node-xp", "sheet-row-1", "sheet-tangent-row-2", "vertex", "mu",
        "m-midpoint-zero", "m-sign", "mu-sign", "mu-zero", "node-tangent", "stage-tangent"])
def test_each_input_rule_names_where_it_fails(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        build()
    assert type(info.value) is error


def test_arclength_polarization_of_an_edge_too_long_to_square_is_refused_by_name():
    # a^2 overflows to inf, so 1/a^2 reads 0 without numpy's warning
    with pytest.raises(CurveError, match=r"^polarization vanishes at edge \(0, 1\)$"):
        DiscretePolarizedCurve.arclength([0.0, 1e200, 2e200])
    v = np.array([0.0, 3.0, 3.0 + 4.0j])
    assert np.array_equal(DiscretePolarizedCurve.arclength(v).mu, [1 / 9, 1 / 16])


def test_arclength_deviation():
    g = SGrid.from_step(0.0, 2 * math.pi, 0.1)
    assert _circle(g).arclength_deviation() < 1e-12
    fast = PolarizedCurve.from_generator(
        g, lambda s: 2 * s + 0j, lambda s: 2 * np.ones_like(s, dtype=complex), 1.0)
    assert fast.arclength_deviation() == pytest.approx(3.0)
    # |x'|^2 overflows: the deviation is inf, without numpy's warning
    assert _circle(g, 1e300).arclength_deviation() == math.inf


# -------------------------------------------------------- discrete curves

def test_discrete_edge_lengths():
    c = DiscretePolarizedCurve(np.array([0, 2, 2 + 1j]), 1.0)
    assert np.abs(np.diff(c.vertices)) == pytest.approx([2.0, 1.0])


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


def test_ngon_side_count_must_be_whole():
    # 3.5 sides would give a polygon whose last vertex misses the first
    with pytest.raises(CurveError, match="whole number of sides"):
        ngon_vertices(3.5)
    assert len(ngon_vertices(np.int64(4))) == 5


# ----------------------------------------------------------------- sheets

def test_sheet_shape_checks():
    g = SGrid(0.0, 0.25, 5)
    with pytest.raises(CurveError):
        Sheet(g, np.zeros((2, 4), dtype=complex))
    with pytest.raises(CurveError):
        Sheet(g, np.zeros(5, dtype=complex))


def test_sheet_tangents_shape_and_use():
    g = SGrid(0.0, 0.25, 5)
    vals = np.vstack([g.values() + 0j, g.values() + 1j])
    tang = np.ones_like(vals)
    sh = Sheet(g, vals, tangents=tang)
    assert sh.row_derivatives is sh.tangents
    with pytest.raises(CurveError):
        Sheet(g, vals, tangents=np.ones((1, 5), dtype=complex))


def test_sheet_fd_rows_when_no_tangents():
    g = SGrid(0.0, 0.1, 11)
    s = g.values()
    sh = Sheet(g, np.vstack([s**2 + 0j]))
    assert np.abs(sh.row_derivatives[0] - 2 * s).max() < 1e-11


# ------------------------------------------------------------ cross ratio

def _one_node(x, xp):
    return PolarizedCurve(SGrid(0.0, 1.0, 1), [x], 1.0, derivatives=[xp])


def test_tangential_cross_ratio_hand_value():
    # x(s) = s, xh(s) = s + i: d = -i, d^2 = -1, both tangents 1 -> cr = -1
    table = pair_table(_one_node(0j, 1 + 0j), _one_node(1j, 1 + 0j))
    assert table.cr[0] == pytest.approx(-1.0)


def test_tangential_cross_ratio_guards():
    with pytest.raises(CoincidentPointsError):
        pair_table(_one_node(1 + 1j, 1 + 0j), _one_node(1 + 1j, 1 + 0j))
    with pytest.raises(SingularTangentError):
        _one_node(0j, 0j)

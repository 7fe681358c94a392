"""Transforms of smooth polarized curves against closed-form solutions.

For the line x(s) = s with m = 1 the pair equation reduces to
u' = 1 - mu u^2 for u = x - xh, so u = (1/sqrt(mu)) tanh(sqrt(mu) s + c)
is an exact oracle; the unit circle with mu = 1/4 and a diametral seed maps
to the antipodal circle -e^{is}.
"""
import cmath
import functools
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from darbouxflow.darboux import (
    DarbouxParams,
    arclength_darboux,
    cross_ratio_defect,
    darboux_transform,
    lambda_evolution_defects,
    lemma_defects,
    pair_table,
    riccati_solve,
)
from darbouxflow.errors import (
    BlowupError,
    CoincidentPointsError,
    CurveError,
    NotArclengthPolarizedError,
)
from darbouxflow.expressions import parse_expression
from darbouxflow.geometry import PolarizedCurve, SGrid, _circle, _line
from darbouxflow.ode import rk4_path
from darbouxflow.semidiscrete import propagate_edge
from darbouxflow.verification import FIGURE_M2, FIGURE_MU, FIGURE_POINT, figure_family


def _tanh_transform(s, u0, mu=0.25):
    c = math.atanh(u0 * math.sqrt(mu))
    return s - np.tanh(math.sqrt(mu) * s + c) / math.sqrt(mu)


def test_line_transform_tanh_oracle():
    g = SGrid.from_step(0.0, 3.0, 1e-3)
    base = _line(g)
    t = darboux_transform(base, DarbouxParams(0.25, -1.0 + 0j))  # u0 = 1
    want = _tanh_transform(g.values(), 1.0)
    assert np.abs(t.points - want).max() < 1e-12


def test_line_transform_fixed_point_is_parallel_line():
    g = SGrid.from_step(0.0, 5.0, 1e-2)
    t = darboux_transform(_line(g), DarbouxParams(0.25, -2.0 + 0j))  # u0 = 1/sqrt(mu)
    assert np.abs(t.points - (g.values() - 2.0)).max() < 1e-12
    assert np.abs(np.abs(t.derivatives) - 1.0).max() < 1e-12


def test_circle_diametral_seed_gives_antipodal_circle():
    g = SGrid.from_step(0.0, 2 * math.pi, 1e-2)
    t = arclength_darboux(_circle(g), 0.25, math.pi)
    assert np.abs(t.points + np.exp(1j * g.values())).max() < 1e-6


@settings(max_examples=20, deadline=None)
@given(mu=st.floats(0.1, 4.0), angle=st.floats(0.0, 2 * math.pi))
@example(mu=3.0, angle=1.875)
@example(mu=4.0, angle=1.8326)
def test_arclength_transform_keeps_separation(mu, angle):
    # At h = 1e-2 the RK4 truncation error alone reaches 2.6e-7 near
    # (mu 4, angle 1.83); at h = 2e-3 the worst case over a (mu, angle) scan
    # is 4.2e-10, far below the bound.
    g = SGrid.from_step(0.0, 1.0, 2e-3)
    base = _circle(g)
    t = arclength_darboux(base, mu, angle)
    sep = np.abs(t.points - base.points)
    assert np.abs(sep - 1.0 / math.sqrt(mu)).max() < 1e-7
    # arc-length preservation: the transform moves at unit speed too
    assert np.abs(np.abs(t.derivatives) - 1.0).max() < 1e-7


def test_cross_ratio_defect_is_rounding_level():
    g = SGrid.from_step(0.0, 2.0, 1e-2)
    base = _line(g)
    t = darboux_transform(base, DarbouxParams(0.25, -1.0 + 0j))
    assert cross_ratio_defect(base, t, 0.25) < 1e-14


def test_lemma_and_lambda_residuals_on_line_pair():
    g = SGrid.from_step(0.0, 2.0, 1e-3)
    base = _line(g)
    t = darboux_transform(base, DarbouxParams(0.25, -1.0 + 0j))
    center, ratio = lemma_defects(base, t, 0.25)
    assert center < 1e-10
    assert ratio < 1e-10
    pair_form, single_form = lambda_evolution_defects(base, t, 0.25)
    assert pair_form < 1e-8
    assert single_form < 1e-8


def _one_node_pair(x, xp, xh, xhp):
    """A pair on a one-node grid, with the tangents given as samples."""
    g = SGrid(0.0, 1.0, 1)
    return (PolarizedCurve(g, [x], 1.0, derivatives=[xp]),
            PolarizedCurve(g, [xh], 1.0, derivatives=[xhp]))


def test_pair_table_hand_values():
    table = pair_table(*_one_node_pair(0j, 1 + 0j, 1 + 1j, 1 + 0j))
    assert table.lam[0] == pytest.approx(2.0)
    assert table.r[0] == pytest.approx(1.0)
    assert table.rhat[0] == pytest.approx(-1.0)
    assert table.cr[0] == pytest.approx(-0.5j)


def test_lemma_defects_count_nodes_where_r_vanishes():
    # d = i is normal to x' = 1, so r = 0 while rhat = -2: the identities
    # read |rhat x'| = 2 and |rhat |x'|^2 m| = 2 instead of skipping the node
    base, transform = _one_node_pair(0j, 1 + 0j, 1j, 1 + 1j)
    table = pair_table(base, transform)
    assert table.r[0] == 0.0
    assert table.rhat[0] == pytest.approx(-2.0)
    assert lemma_defects(base, transform, 0.25) == pytest.approx((2.0, 2.0))


def test_seed_collision_rejected():
    g = SGrid.from_step(0.0, 1.0, 1e-2)
    with pytest.raises(CoincidentPointsError):
        darboux_transform(_line(g), DarbouxParams(0.25, 0j))


def test_polarization_vanishing_between_nodes_is_rejected(recwarn):
    # m > 0 at every node of the h = 1e-3 grid, but m(0.0005) = 0 at the
    # first RK4 midpoint; the curve is refused when it is built
    g = SGrid.from_step(0.0, 1.0, 1e-3)
    with pytest.raises(CurveError, match=r"^polarization vanishes at s = 0\.0005$"):
        _line(g, m=lambda s: (s - 0.0005) ** 2)
    assert len(recwarn) == 0


def test_generator_and_polarization_are_evaluated_once_per_transform():
    # x, x' and m each run once, on the refined grid; the transform row
    # takes its refined m from the source instead of calling m again
    g = SGrid.from_step(0.0, 1.0, 1e-3)
    sizes = {"x": [], "xp": [], "m": []}

    def counted(name, fn):
        def f(s):
            sizes[name].append(np.size(s))
            return fn(s)
        return f

    curve = PolarizedCurve.from_generator(
        g, counted("x", lambda s: np.exp(1j * s)),
        counted("xp", lambda s: 1j * np.exp(1j * s)),
        counted("m", lambda s: 1.0 + 0.3 * np.sin(s)))
    t = darboux_transform(curve, DarbouxParams(0.25, -1.0 + 0j))
    assert sizes == {"x": [2001], "xp": [2001], "m": [2001]}
    assert np.array_equal(t.m, curve.m)
    assert np.array_equal(t._stage_data[2], curve._stage_data[2])


def test_arclength_transform_input_guards():
    g = SGrid.from_step(0.0, 1.0, 1e-2)
    with pytest.raises(CurveError):
        arclength_darboux(_circle(g), -0.25, 0.0)
    with pytest.raises(NotArclengthPolarizedError):
        arclength_darboux(_circle(g, m=2.0), 0.25, 0.0)


def test_pair_table_requires_shared_grid():
    a = _line(SGrid.from_step(0.0, 1.0, 1e-2))
    b = _line(SGrid.from_step(0.0, 1.0, 2e-2))
    shifted = PolarizedCurve.from_generator(
        b.grid, lambda s: s + 1j, lambda s: np.ones_like(s, dtype=complex), 1.0)
    with pytest.raises(CurveError):
        pair_table(a, shifted)


def _reference_riccati(source, mu, y0):
    """riccati_solve as a numpy-scalar closure: the right-hand side
    coef[k] d^2 / x'[k] works on numpy scalars at the stage index k."""
    xs, xps, ms = source._stage_data
    coef = mu / ms

    def rhs(k, y):
        d = xs[k] - y
        return coef[k] * d * d / xps[k]

    return rk4_path(source.grid.values(), rhs, complex(y0))


@pytest.mark.parametrize("kind", ["analytic circle", "sampled circle", "m = 1 + 0.3 sin s"])
def test_riccati_solve_matches_numpy_scalar_reference(kind):
    g = SGrid.from_step(0.0, 2 * math.pi, 1e-3)
    if kind == "analytic circle":
        base = _circle(g)
    elif kind == "sampled circle":
        base = PolarizedCurve.from_samples(g, np.exp(1j * g.values()), 1.0)
    else:
        base = _circle(g, m=lambda s: 1.0 + 0.3 * np.sin(s))
    y0 = -1.2 + 0.3j
    fast = riccati_solve(base, 0.25, y0)
    want = _reference_riccati(base, 0.25, y0)
    assert np.abs(fast - want).max() < 1e-13


def _list_closure_riccati(source, mu, y0):
    """riccati_solve as it was before its step was written out: a closure
    over list-valued stage coefficients, driven by ``rk4_path``."""
    xs, xps, ms = source._stage_data
    a = ((mu / ms) / xps).tolist()
    x = xs.tolist()

    def rhs(k, y):
        d = x[k] - y
        return a[k] * d * d

    return rk4_path(source.grid.values(), rhs, complex(y0))


def _long_double_riccati(source, mu, y0):
    """The RK4 map of ``_list_closure_riccati`` in np.clongdouble, h/2 and
    h/6 included, on the same double stage data: a reference whose own
    round-off sits some thousand times below a double solve's."""
    xs, xps, ms = source._stage_data
    a = ((mu / ms) / xps).astype(np.clongdouble)
    x = xs.astype(np.clongdouble)

    def rhs(k, y):
        d = x[k] - y
        return a[k] * d * d

    y = np.clongdouble(y0)
    comp = 0 * y
    out = [y]
    for i, h in enumerate(np.diff(source.grid.values()).astype(np.longdouble)):
        k1 = rhs(2 * i, y)
        k2 = rhs(2 * i + 1, y + h / 2 * k1)
        k3 = rhs(2 * i + 1, y + h / 2 * k2)
        k4 = rhs(2 * i + 2, y + h * k3)
        d = h / 6 * (k1 + 2 * (k2 + k3) + k4) - comp
        z = y + d
        comp = (z - y) - d
        y = z
        out.append(y)
    return np.asarray(out)


@functools.cache
def _round_off_panel():
    """(curve, mu, seed) of the solves the round-off oracle reads: the four
    stage-data kinds, the verify line pair, the figure's t2 and its reverse
    solve, and edge (2, 3) of the verify line flow."""
    g = SGrid.from_step(0.0, 2 * math.pi, 1e-3)
    line = _line(SGrid.from_step(0.0, 2.0, 1e-3))
    m2 = parse_expression(FIGURE_M2)
    t2 = figure_family(g, FIGURE_MU, FIGURE_POINT)[2]
    # a flow row carries pair-equation tangents at the nodes only, so its
    # stage data come from the Lagrange midpoint interpolation
    flow_row = propagate_edge(line, 1.0, 1j)
    row2 = propagate_edge(propagate_edge(line, 0.25, 2.0 + 0j), 0.25, 4.0 + 0j)
    panel = {
        "analytic circle": _circle(g),
        "sampled circle": PolarizedCurve.from_samples(g, np.exp(1j * g.values()), 1.0),
        "m = 1 + 0.3 sin s": _circle(g, m=lambda s: 1.0 + 0.3 * np.sin(s)),
        "interpolated flow row": flow_row,
    }
    panel = {kind: (base, 0.25, base.points[0] - 1.2 + 0.3j) for kind, base in panel.items()}
    panel["verify line pair"] = (_line(SGrid.from_step(0.0, 5.0, 1e-3)), 0.25, 2.0 + 0j)
    panel["figure t2"] = (_circle(g, m=m2), FIGURE_MU, FIGURE_POINT)
    panel["t2 back to the circle"] = (PolarizedCurve(g, t2.points, m2, t2.derivatives),
                                      FIGURE_MU, 1.0 + 0j)
    panel["line flow edge (2, 3)"] = (row2, 0.25, 6.0 + 0j)
    return panel


ROUND_OFF_KINDS = list(_round_off_panel())


@functools.cache
def _round_off_references():
    """Per kind: (curve, mu, seed, long-double reference, the closure step's error)."""
    refs = {}
    for kind, (curve, mu, y0) in _round_off_panel().items():
        want = _long_double_riccati(curve, mu, y0)
        refs[kind] = curve, mu, y0, want, _round_off(_list_closure_riccati(curve, mu, y0), want)
    return refs


def _round_off(vals, want):
    return float(np.abs(vals - want).max())


@functools.cache
def _round_off_ratios(solve):
    """The round-off of ``solve`` over the closure step's, kind by kind."""
    return {kind: _round_off(solve(curve, mu, y0), want) / closure
            for kind, (curve, mu, y0, want, closure) in _round_off_references().items()}


def _geometric_mean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


long_double = pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                                 reason="long double is no wider than double here")


@long_double
@pytest.mark.parametrize("kind", ROUND_OFF_KINDS)
def test_riccati_solve_round_off_stays_near_the_closure_steps(kind):
    # The table step rounds differently from the closure step, so the two
    # are held to one long-double run of the RK4 map, not to each other.
    # The verify line pair is the worst case: its linearization amplifies
    # round-off by about e^5 over [0, 5], and it reads about 2x there.
    assert _round_off_ratios(riccati_solve)[kind] <= 2.5


@long_double
def test_riccati_solve_round_off_is_no_worse_than_the_closure_steps_on_the_panel():
    assert _geometric_mean(_round_off_ratios(riccati_solve).values()) <= 1.0


@long_double
def test_round_off_oracle_refuses_a_step_multiplied_by_a_rounded_third():
    # fl(1/3) is not 1/3, so multiplying by it biases every increment the
    # same way; the correctly rounded division does not
    source = inspect.getsource(riccati_solve)
    assert source.count("/ 3.0") == 1
    namespace = dict(riccati_solve.__globals__)
    exec(source.replace("/ 3.0", "* (1.0 / 3.0)"), namespace)
    ratios = _round_off_ratios(namespace["riccati_solve"])
    assert ratios["verify line pair"] > 2.5
    assert _geometric_mean(ratios.values()) > 1.0


def test_riccati_blowup_index_matches_reference(recwarn):
    # Edge (1, 2) of the non-unit-speed flow over 0, 2, 4, 6 (mu = 1/4): its
    # source row is the transform of x(s) = 2s, and the Riccati solution
    # has a pole near s = 0.565.
    g = SGrid.from_step(0.0, 1.0, 1e-3)
    line = PolarizedCurve.from_generator(
        g, lambda s: 2.0 * s + 0j, lambda s: 2.0 * np.ones_like(s, dtype=complex), 1.0)
    row1 = propagate_edge(line, 0.25, 2.0 + 0j)
    indices = []
    for solve in (riccati_solve, _reference_riccati, _list_closure_riccati):
        with pytest.raises(BlowupError) as info:
            solve(row1, 0.25, 4.0 + 0j)
        indices.append(info.value.index)
    assert indices == [565, 565, 565]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# -- the circle in closed form --------------------------------------------
# On x = e^{is} with m = 1, write xh = e^{is} z.  The pair equation becomes
# z' = -i (mu z^2 - (2 mu - 1) z + mu), whose roots z+- are constant, so
# (z - z+)/(z - z-) = E(s) runs on a rotating exponential; at mu = 1/4 the
# roots merge at -1 and 1/(z + 1) = 1/(z0 + 1) + i s/4.
HALVINGS = (2e-3, 1e-3, 5e-4)


def _circle_closed_form(s, mu, z0):
    if mu == 0.25:
        return np.exp(1j * s) * (-1.0 + 1.0 / (1.0 / (z0 + 1.0) + 0.25j * s))
    root = cmath.sqrt(1.0 - 4.0 * mu)
    zp, zm = (2.0 * mu - 1.0 + root) / (2.0 * mu), (2.0 * mu - 1.0 - root) / (2.0 * mu)
    e = (z0 - zp) / (z0 - zm) * np.exp(-1j * mu * (zp - zm) * s)
    return np.exp(1j * s) * (zp - e * zm) / (1.0 - e)


def _circle_errors(mu, z0):
    errors = []
    for h in HALVINGS:
        grid = SGrid.from_step(0.0, 2.0 * math.pi, h)
        t = darboux_transform(_circle(grid), DarbouxParams(mu, z0))
        errors.append(float(np.abs(t.points - _circle_closed_form(grid.values(), mu, z0)).max()))
    return errors


@pytest.mark.parametrize("mu, z0, bound", [
    (0.25, -1.2 + 0j, 1e-12),          # the mismatched pair: the double root
    (0.6, -0.5 + 0.2j, 1e-12),
    (-0.4, 2.0 + 1.0j, 1e-8),
    (2.0, 0.2 - 0.3j, 1e-12),
])
def test_circle_transform_matches_its_closed_form_at_fourth_order(mu, z0, bound):
    errors = _circle_errors(mu, z0)
    assert errors[1] < bound
    for coarse, fine in zip(errors, errors[1:]):
        assert 10.0 <= coarse / fine <= 20.0


def test_circle_transform_on_round_off_matches_its_closed_form():
    # (0.1, 0.3+0.5i) is solved to round-off at every step, so no ratio
    assert max(_circle_errors(0.1, 0.3 + 0.5j)) < 1e-14


# -- reciprocity: x is the Darboux transform of xh ------------------------
def _figure_round_trip_errors():
    """|x - transform of t2 back, seeded at x(0)| on the figure's circle
    carrying m = FIGURE_M2, at each step of HALVINGS.  The reverse solve
    takes t2's stored tangents and the polarization's function of s."""
    m2 = parse_expression(FIGURE_M2)
    errors = []
    for h in HALVINGS:
        grid = SGrid.from_step(0.0, 2.0 * math.pi, h)
        t2 = figure_family(grid, FIGURE_MU, FIGURE_POINT)[2]
        back = darboux_transform(PolarizedCurve(grid, t2.points, m2, t2.derivatives),
                                 DarbouxParams(FIGURE_MU, 1.0 + 0j))
        errors.append(float(np.abs(back.points - np.exp(1j * grid.values())).max()))
    return errors


def _assert_round_trip(errors):
    assert errors[1] < 1e-12
    for coarse, fine in zip(errors, errors[1:]):
        assert 10.0 <= coarse / fine <= 20.0


def test_figure_t2_transforms_back_to_the_circle():
    _assert_round_trip(_figure_round_trip_errors())


def test_round_trip_fails_when_the_midpoint_m_is_read_at_the_node(monkeypatch):
    # The Riccati stages are handed the node value of m at every RK4
    # midpoint, which keeps every other check within its bound: the round
    # trip drops to first order.
    stage_data = PolarizedCurve._stage_data.func

    def node_m_at_midpoints(curve):
        xs, xps, ms = stage_data(curve)
        ms = ms.copy()
        ms[1::2] = ms[0:-1:2]
        return xs, xps, ms

    monkeypatch.setattr(PolarizedCurve, "_stage_data", property(node_m_at_midpoints))
    errors = _figure_round_trip_errors()
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.8 <= coarse / fine <= 2.2
    with pytest.raises(AssertionError):
        _assert_round_trip(errors)

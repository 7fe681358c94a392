"""Transforms of smooth polarized curves against closed-form solutions.

For the line x(s) = s with m = 1 the pair equation reduces to
u' = 1 - mu u^2 for u = x - xh, so u = (1/sqrt(mu)) tanh(sqrt(mu) s + c)
is an exact oracle; the unit circle with mu = 1/4 and a diametral seed maps
to the antipodal circle -e^{is}.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from darbouxflow.darboux import (
    DarbouxParams,
    arclength_darboux,
    cross_ratio_defect,
    darboux_transform,
    lambda_evolution_defects,
    lemma_defects,
    pair_table,
)
from darbouxflow.errors import CoincidentPointsError, CurveError, NotArclengthPolarizedError
from darbouxflow.geometry import PolarizedCurve, SGrid


def _line(grid, m=1.0):
    return PolarizedCurve.from_generator(
        grid, lambda s: s + 0j, lambda s: np.ones_like(s, dtype=complex), m)


def _circle(grid, m=1.0):
    return PolarizedCurve.from_generator(
        grid, lambda s: np.exp(1j * s), lambda s: 1j * np.exp(1j * s), m)


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
def test_arclength_transform_keeps_separation(mu, angle):
    g = SGrid.from_step(0.0, 1.0, 1e-2)
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


def test_pair_table_marks_degenerate_nodes():
    g = SGrid.from_step(0.0, 1.0, 1e-2)
    base = _circle(g)
    # a radial seed makes d parallel to the normal at s = 0, so r(0) = 0
    t = darboux_transform(base, DarbouxParams(0.25, -1.2 + 0j))
    table = pair_table(base, t)
    assert table.degenerate[0]
    assert not table.degenerate[20]
    assert np.isnan(table.y[0])


def _one_node_pair(x, xp, xh, xhp):
    """A pair on a one-node grid, with the tangents given as samples."""
    g = SGrid.from_count(0.0, 1.0, 1)
    return (PolarizedCurve(g, [x], 1.0, xp_samples=[xp]),
            PolarizedCurve(g, [xh], 1.0, xp_samples=[xhp]))


def test_pair_table_hand_values():
    table = pair_table(*_one_node_pair(0j, 1 + 0j, 1 + 1j, 1 + 0j))
    assert table.lam[0] == pytest.approx(2.0)
    assert table.r[0] == pytest.approx(1.0)
    assert table.rhat[0] == pytest.approx(-1.0)
    assert table.y[0] == pytest.approx(1.0 + 0j)
    assert table.cr[0] == pytest.approx(-0.5j)
    assert not table.degenerate[0]


def test_seed_collision_rejected():
    g = SGrid.from_step(0.0, 1.0, 1e-2)
    with pytest.raises(CoincidentPointsError):
        darboux_transform(_line(g), DarbouxParams(0.25, 0j))


def test_polarization_vanishing_between_nodes_is_rejected(recwarn):
    # m > 0 at every node of the h = 1e-3 grid, but m(0.0005) = 0 at the
    # first RK4 midpoint
    g = SGrid.from_step(0.0, 1.0, 1e-3)
    base = _line(g, m=lambda s: (s - 0.0005) ** 2)
    with pytest.raises(CurveError, match="polarization .* between grid nodes"):
        darboux_transform(base, DarbouxParams(0.25, -1.0 + 0j))
    assert len(recwarn) == 0


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

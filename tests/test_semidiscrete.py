"""Edge-wise flows of discrete polarized curves.

The collinear base 0, 2, 4, 6 with mu = 1/4 (so 1/mu = edge^2) seeded with
the unit-speed line x0(s) = s stays at every edge's Riccati fixed point:
x_n(s) = s + 2n exactly, which pins both propagation directions.
"""
import math

import numpy as np
import pytest

from darbouxflow.errors import BlowupError, CoincidentPointsError, CurveError
from darbouxflow.geometry import DiscretePolarizedCurve, PolarizedCurve, SGrid, Sheet
from darbouxflow.semidiscrete import (
    FlowSpec,
    arclength_flow_check,
    infinitesimal_darboux,
    propagate_edge,
    sheet_cross_ratio_defect,
)


def _line(grid, speed=1.0):
    return PolarizedCurve.from_generator(
        grid, lambda s: speed * s + 0j,
        lambda s: speed * np.ones_like(s, dtype=complex), 1.0)


def _base():
    return DiscretePolarizedCurve(np.arange(4) * 2.0 + 0j, 0.25)


def test_collinear_base_translates_the_line():
    grid = SGrid.from_step(0.0, 2.0, 1e-3)
    sheet = infinitesimal_darboux(FlowSpec(_base(), 1.0, 0, _line(grid)))
    s = grid.values()
    want = s[None, :] + 2.0 * np.arange(4)[:, None]
    assert np.abs(sheet.values - want).max() < 1e-12
    assert np.abs(sheet.row_derivatives - 1.0).max() < 1e-12


def test_interior_seed_propagates_both_directions():
    grid = SGrid.from_step(0.0, 2.0, 1e-3)
    shifted = PolarizedCurve.from_generator(
        grid, lambda s: s + 4.0 + 0j, lambda s: np.ones_like(s, dtype=complex), 1.0)
    sheet = infinitesimal_darboux(FlowSpec(_base(), 1.0, 2, shifted))
    s = grid.values()
    want = s[None, :] + 2.0 * np.arange(4)[:, None]
    assert np.abs(sheet.values - want).max() < 1e-12


def test_flow_cross_ratio_is_exact_by_construction():
    grid = SGrid.from_step(0.0, 1.0, 1e-2)
    sheet = infinitesimal_darboux(FlowSpec(_base(), 1.0, 0, _line(grid)))
    defect, im_part = sheet_cross_ratio_defect(sheet, _base().mu)
    assert defect < 1e-14


def test_unit_speed_seed_preserves_arclength_polarization():
    grid = SGrid.from_step(0.0, 1.0, 1e-3)
    sheet = infinitesimal_darboux(FlowSpec(_base(), 1.0, 0, _line(grid)))
    columns, smooth = arclength_flow_check(sheet, _base().mu)
    assert columns.shape == (grid.count,)
    assert columns.max() < 1e-10
    assert smooth < 1e-10


def test_nonunit_seed_breaks_arclength_and_grows():
    grid = SGrid.from_step(0.0, 0.4, 1e-3)
    sheet = infinitesimal_darboux(FlowSpec(_base(), 1.0, 0, _line(grid, speed=2.0)))
    dev, smooth = arclength_flow_check(sheet, _base().mu)
    # |1 - |x0'|^2| = |1 - 4| on the seeded row, independent of s; the
    # reported maximum covers all rows and only grows from there
    row0_dev = np.abs(1.0 - np.abs(sheet.row_derivatives[0]) ** 2)
    assert row0_dev.max() == pytest.approx(3.0)
    assert smooth >= 3.0
    assert dev[0] < 1e-12          # the seed column is untouched
    assert dev[-1] > 1e-3          # and the defect grows away from s0
    assert dev[-1] > dev[len(dev) // 2] > dev[1]


def test_nonunit_seed_eventually_blows_up():
    grid = SGrid.from_step(0.0, 2.0, 1e-3)
    with pytest.raises(BlowupError) as info:
        infinitesimal_darboux(FlowSpec(_base(), 1.0, 0, _line(grid, speed=2.0)))
    assert str(info.value) == "edge (1, 2): integration blew up at grid index 565"
    assert info.value.index == 565
    assert info.value.s == pytest.approx(0.565, abs=1e-15)


def test_mid_grid_collision_is_reported_as_such():
    # For x = s the edge row solves u' = 1 - mu u^2 with u = x - xh; from
    # u(0) = -1 at mu = 1/4 it crosses zero at s = ln 3, node 1000 of this grid.
    h = math.log(3.0) / 1000
    grid = SGrid(0.0, h, 1201)
    base = DiscretePolarizedCurve(np.array([0, 1 + 0j]), 0.25)
    with pytest.raises(CoincidentPointsError, match=r"edge \(0, 1\).*node 1000"):
        infinitesimal_darboux(FlowSpec(base, 1.0, 0, _line(grid)))


def test_flow_rows_do_not_evaluate_m_again():
    # the seed row evaluates m once on the refined grid, FlowSpec compares
    # the seed row's own node samples, and the four edge rows reuse its
    # refined m
    grid = SGrid.from_step(0.0, 1.0, 1e-3)
    sizes = []

    def m(s):
        sizes.append(np.size(s))
        return 1.0 + 0.1 * np.sin(s)

    seed = PolarizedCurve.from_generator(
        grid, lambda s: s + 0j, lambda s: np.ones_like(s, dtype=complex), m)
    base = DiscretePolarizedCurve(np.arange(5) * 2.0 + 0j, 0.25)
    sheet = infinitesimal_darboux(FlowSpec(base, seed.m, 0, seed))
    assert sizes == [2001]
    assert sheet.rows == 5


def test_propagate_edge_guards():
    grid = SGrid.from_step(0.0, 1.0, 1e-2)
    row = _line(grid)
    # the rule and its message are DarbouxParams', as for darboux_transform
    with pytest.raises(CurveError, match="^mu must be a nonzero finite real, got 0.0$"):
        propagate_edge(row, 0.0, 2.0 + 0j)
    with pytest.raises(CurveError, match="^mu must be a nonzero finite real, got nan$"):
        propagate_edge(row, float("nan"), 2.0 + 0j)
    with pytest.raises(CoincidentPointsError):
        propagate_edge(row, 0.25, 0j)


def test_flow_spec_seed_must_sit_on_base_vertex():
    grid = SGrid.from_step(0.0, 1.0, 1e-2)
    with pytest.raises(CurveError):
        # row 0 starts at 1.0 but the base vertex there is 0.0
        FlowSpec(_base(), 1.0, 0, PolarizedCurve.from_generator(
            grid, lambda s: s + 1.0 + 0j, lambda s: np.ones_like(s, dtype=complex), 1.0))


def test_flow_spec_m_must_match_the_seed_row():
    grid = SGrid.from_step(0.0, 1.0, 1e-2)
    seed = PolarizedCurve.from_generator(
        grid, lambda s: s + 0j, lambda s: np.ones_like(s, dtype=complex), 2.0)
    for m in (1.0, np.ones(grid.count), float("nan")):
        with pytest.raises(CurveError, match="differs from the flow's m"):
            FlowSpec(_base(), m, 0, seed)
    with pytest.raises(CurveError, match="number or 101 node samples"):
        FlowSpec(_base(), np.full(grid.count + 1, 2.0), 0, seed)
    assert FlowSpec(_base(), 2.0, 0, seed).m == 2.0


def test_flow_spec_refuses_a_callable_m():
    grid = SGrid.from_step(0.0, 1.0, 1e-2)
    with pytest.raises(CurveError, match="number or 101 node samples"):
        FlowSpec(_base(), lambda s: np.ones_like(s), 0, _line(grid))


def test_flow_spec_rejects_bad_seed_row():
    grid = SGrid.from_step(0.0, 1.0, 1e-2)
    with pytest.raises(CurveError):
        FlowSpec(_base(), 1.0, 7, _line(grid))


def test_a_sheet_without_edges_reads_a_vacuous_zero():
    # a one-vertex base gives a one-row flow: no edge, so no defect
    grid = SGrid.from_step(0.0, 1.0, 1e-2)
    base = DiscretePolarizedCurve(np.array([0j]), 0.25)
    sheet = infinitesimal_darboux(FlowSpec(base, 1.0, 0, _line(grid)))
    assert sheet.rows == 1
    assert sheet_cross_ratio_defect(sheet, base.mu) == (0.0, 0.0)
    columns, smooth = arclength_flow_check(sheet, base.mu)
    assert np.array_equal(columns, np.zeros(grid.count))
    assert smooth == 0.0


def test_sheet_edge_collision_names_the_edge_and_the_node():
    grid = SGrid.from_step(0.0, 1.0, 0.1)
    rows = grid.values() + np.array([[0.0], [1j], [2j]])
    rows[2, 6] = rows[1, 6]
    sheet = Sheet(grid, rows, tangents=np.ones_like(rows))
    for check in (sheet_cross_ratio_defect, arclength_flow_check):
        with pytest.raises(CoincidentPointsError, match=r"^edge \(1, 2\) collides at node 6$"):
            check(sheet, 1.0)

"""Both constructions of the sheet — motion and edge-wise flow — must agree."""
import math

import pytest

from darbouxflow.equivalence import (
    frameless_identity_check,
    iso_darboux_check,
    pipelines_agree,
)
from darbouxflow.errors import GridTooShortError
from darbouxflow.geometry import SGrid, Sheet, ngon_vertices
from darbouxflow.motion import MotionResult, integrate_motion, mkdv_residual, tangential_angles


def test_hexagon_pipelines_agree():
    grid = SGrid.from_step(0.0, 0.5, 1e-3)
    sup = pipelines_agree(integrate_motion(ngon_vertices(6), -math.pi / 6, 0, grid))
    assert isinstance(sup, float)
    assert sup < 1e-9


def test_square_pipelines_pass_through_collinear_configuration():
    # w0 = 0 straightens vertex 2 exactly at s = 0.5; the run must not trip
    # the regularity guard on the way through
    grid = SGrid.from_step(0.0, 0.5, 1e-3)
    assert pipelines_agree(integrate_motion(ngon_vertices(4), 0.0, 0, grid)) < 1e-9


def test_flow_seeded_at_row_zero_matches_a_motion_seeded_elsewhere():
    # the flow always starts from the motion's row 0, whichever edge carried
    # the motion's w0
    grid = SGrid.from_step(0.0, 0.25, 1e-3)
    motion = integrate_motion(ngon_vertices(5), 0.2, 2, grid)
    assert pipelines_agree(motion) < 1e-9


def test_pipelines_compare_the_given_motion():
    # a nudged motion row is compared as given, not integrated again
    grid = SGrid.from_step(0.0, 0.25, 1e-3)
    motion = integrate_motion(ngon_vertices(6), -math.pi / 6, 0, grid)
    motion.sheet.values[3, grid.count // 2] += 1e-6
    assert pipelines_agree(motion) > 5e-7


def test_iso_darboux_cross_ratios_real_and_matched():
    grid = SGrid.from_step(0.0, 1.0, 1e-3)
    res = integrate_motion(ngon_vertices(5), 0.25, 0, grid)
    defect, im_part = iso_darboux_check(res)
    assert defect < 1e-9
    assert im_part < 1e-11


def test_frameless_identity_on_motion_sheet():
    grid = SGrid.from_step(0.0, 1.0, 1e-3)
    res = integrate_motion(ngon_vertices(6), -math.pi / 6, 0, grid)
    assert frameless_identity_check(res) < 1e-7


def test_frameless_identity_on_angles_recovered_from_positions():
    # theta read back from the positions alone, through finite differences
    grid = SGrid.from_step(0.0, 1.0, 1e-3)
    res = integrate_motion(ngon_vertices(6), -math.pi / 6, 0, grid)
    bare = Sheet(grid, res.sheet.values.copy())
    theta = tangential_angles(bare, reference=res.theta)
    assert frameless_identity_check(MotionResult(bare, theta)) < 1e-5


def test_frameless_identity_needs_five_nodes_and_reads_six_inside_the_stencil():
    # under 5 nodes there is no 4th-order stencil, for this check or the
    # mKdV residual; with 6 the defect is read two columns in from each end
    v = ngon_vertices(6)
    short = integrate_motion(v, -math.pi / 6, 0, SGrid(0.0, 1e-2, 4))
    with pytest.raises(GridTooShortError):
        frameless_identity_check(short)
    with pytest.raises(GridTooShortError):
        mkdv_residual(short)
    six = integrate_motion(v, -math.pi / 6, 0, SGrid(0.0, 1e-2, 6))
    assert frameless_identity_check(six) < 1e-7

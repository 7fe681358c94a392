"""Both constructions of the sheet — motion and edge-wise flow — must agree."""
import math

import numpy as np

from darbouxflow.equivalence import (
    frameless_identity_check,
    iso_darboux_check,
    pipelines_agree,
)
from darbouxflow.geometry import SGrid, Sheet, ngon_vertices
from darbouxflow.motion import integrate_motion, tangential_angles


def test_hexagon_pipelines_agree():
    grid = SGrid.from_step(0.0, 0.5, 1e-3)
    rep = pipelines_agree(ngon_vertices(6), -math.pi / 6, 0, grid)
    assert rep.sup_distance < 1e-9
    assert rep.cross_ratio_defect < 1e-10
    assert rep.arclength_defect < 1e-10
    assert rep.mkdv_residual < 1e-6
    assert rep.identity_defect < 1e-6


def test_square_pipelines_pass_through_collinear_configuration():
    # w0 = 0 straightens vertex 2 exactly at s = 0.5; the run must not trip
    # the regularity guard on the way through
    grid = SGrid.from_step(0.0, 0.5, 1e-3)
    rep = pipelines_agree(ngon_vertices(4), 0.0, 0, grid)
    assert rep.sup_distance < 1e-9
    assert rep.mkdv_residual < 1e-6


def test_iso_darboux_cross_ratios_real_and_matched():
    grid = SGrid.from_step(0.0, 1.0, 1e-3)
    res = integrate_motion(ngon_vertices(5), 0.25, 0, grid)
    defect, im_part = iso_darboux_check(res.sheet)
    assert defect < 1e-9
    assert im_part < 1e-11


def test_frameless_identity_on_motion_sheet():
    grid = SGrid.from_step(0.0, 1.0, 1e-3)
    res = integrate_motion(ngon_vertices(6), -math.pi / 6, 0, grid)
    a0 = np.abs(np.diff(ngon_vertices(6)))
    assert frameless_identity_check(res.sheet, res.theta, 1.0 / a0**2) < 1e-7


def test_frameless_identity_fd_fallback():
    # rebuilding the sheet from bare values forces the finite-difference path
    grid = SGrid.from_step(0.0, 1.0, 1e-3)
    res = integrate_motion(ngon_vertices(6), -math.pi / 6, 0, grid)
    bare = Sheet(grid, res.sheet.values.copy())
    theta = tangential_angles(bare, reference=res.theta)
    a0 = np.abs(np.diff(ngon_vertices(6)))
    assert frameless_identity_check(bare, theta, 1.0 / a0**2) < 1e-5

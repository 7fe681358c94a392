"""Cross-checks tying the three descriptions of one semi-discrete system together.

An isoperimetric motion of a discrete curve, viewed edge by edge, is an
infinitesimal Darboux transformation with mu = 1/a_n^2; building the same sheet
both ways and comparing — together with identities that avoid frames entirely —
is the package's central verification.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import EPS_REG, DiscretePolarizedCurve, PolarizedCurve, SGrid, Sheet, fd_derivative
from .motion import integrate_motion, mkdv_residual, tangential_angles
from .semidiscrete import FlowSpec, arclength_flow_check, infinitesimal_darboux, sheet_cross_ratio_defect


@dataclass(frozen=True)
class EquivalenceReport:
    """Agreement measures between the motion sheet and the Darboux-flow sheet."""

    sup_distance: float
    cross_ratio_defect: float
    arclength_defect: float
    mkdv_residual: float
    identity_defect: float


def iso_darboux_check(sheet: Sheet, a=None):
    """Edge cross ratios of a motion sheet against the arc-length parameters.

    Returns (max |cr - 1/a_n^2|, max |Im cr|) with cr evaluated from the
    sheet's row derivatives; ``a`` defaults to the edge lengths of the first
    column.
    """
    if a is None:
        a = np.abs(np.diff(sheet.values[:, 0]))
    mu = 1.0 / np.asarray(a, dtype=float) ** 2
    return sheet_cross_ratio_defect(sheet, mu, 1.0)


def frameless_identity_check(sheet: Sheet, theta: np.ndarray, mu) -> float:
    """Max defect of the frame-free derivation of the semi-discrete system.

    (x_n' x_{n+1}')' is compared against its two closed forms
    2 sqrt(mu) (e^{i theta_{n+1}} - e^{i theta_n}) e^{i theta_n/2} e^{i theta_{n+1}/2}
    (sqrt(mu) > 0, matched up to one overall sign) and
    i (theta_{n+1}' + theta_n') e^{i theta_n} e^{i theta_{n+1}}, and the scalar
    equation (theta_{n+1}+theta_n)'/2 = (2/|x_{n+1}-x_n|) sin((theta_{n+1}-theta_n)/2)
    is checked as well; all derivatives by finite differences.

    The direct term differentiates row derivatives that are themselves finite
    differences, so the defect is taken where every ingredient uses a central
    stencil: four columns in from each end.  (Differencing across the one-sided
    to central changeover costs an order of accuracy and would dominate.)
    """
    h = sheet.grid.h
    theta = np.asarray(theta, dtype=float)
    mu_arr = np.asarray(mu, dtype=float).reshape(-1, 1)
    xp = sheet.row_derivatives
    product = xp[:-1] * xp[1:]
    direct = fd_derivative(product, h, axis=1)
    sum_half = np.exp(0.5j * (theta[1:] + theta[:-1]))
    first = 2.0 * np.sqrt(mu_arr) * (np.exp(1j * theta[1:]) - np.exp(1j * theta[:-1])) * sum_half
    theta_p = fd_derivative(theta, h, axis=1)
    second = 1j * (theta_p[1:] + theta_p[:-1]) * sum_half**2
    gaps = np.abs(np.diff(sheet.values, axis=0))
    scalar = fd_derivative(0.5 * (theta[1:] + theta[:-1]), h, axis=1) - (
        2.0 / gaps
    ) * np.sin(0.5 * (theta[1:] - theta[:-1]))
    count = sheet.grid.count
    if count >= 9:
        inner = slice(4, -4)
    elif count >= 5:
        inner = slice(2, -2)
    else:
        inner = slice(None)
    d_first = min(
        float(np.abs(first - direct)[:, inner].max()),
        float(np.abs(-first - direct)[:, inner].max()),
    )
    d_second = float(np.abs(second - direct)[:, inner].max())
    d_scalar = float(np.abs(scalar)[:, inner].max())
    return max(d_first, d_second, d_scalar)


def pipelines_agree(curve0, w0, n0: int, grid: SGrid,
                    eps_reg: float = EPS_REG) -> EquivalenceReport:
    """Run the motion and the equivalent Darboux flow, then compare the sheets.

    Pipeline A integrates the isoperimetric motion of ``curve0``. Pipeline B
    gives the same base curve its arc-length polarization mu_n = 1/a_n(0)^2
    with m = 1, seeds row n0 with the motion's row n0, and propagates every
    other row through the Riccati edge equation. The report holds the sheet
    sup-distance plus the worst cross-ratio, arc-length, mKdV and frame-free
    identity defects over both sheets.
    """
    if isinstance(curve0, DiscretePolarizedCurve):
        curve0 = curve0.vertices
    vertices = np.asarray(curve0, dtype=complex)
    motion = integrate_motion(vertices, w0, n0, grid, eps_reg)
    a0 = np.abs(np.diff(vertices))
    mu = 1.0 / a0**2
    base = DiscretePolarizedCurve(vertices, mu, eps_reg)
    initial = PolarizedCurve.from_samples(grid, motion.sheet.values[n0], 1.0, eps_reg)
    flow_sheet = infinitesimal_darboux(FlowSpec(base, 1.0, n0, initial))
    sup = float(np.abs(motion.sheet.values - flow_sheet.values).max())
    if grid.count < 5:
        # Too short for any stencil: only the direct comparison is measurable.
        return EquivalenceReport(sup, 0.0, 0.0, 0.0, 0.0)
    cr_defect = max(
        sheet_cross_ratio_defect(motion.sheet, mu, 1.0)[0],
        sheet_cross_ratio_defect(flow_sheet, mu, 1.0)[0],
    )
    arc = 0.0
    for sheet in (motion.sheet, flow_sheet):
        report = arclength_flow_check(sheet, mu, 1.0)
        arc = max(arc, report.discrete_deviation, report.smooth_deviation)
    # The two sheets approximate the same motion, so the flow sheet's per-row
    # 2*pi branches are pinned to the recorded motion potential; the chained
    # default is ambiguous when neighbouring velocities are anti-parallel.
    theta_b = tangential_angles(flow_sheet, reference=motion.theta)
    mkdv = max(
        mkdv_residual(motion.theta, a0, grid),
        mkdv_residual(theta_b, np.abs(np.diff(flow_sheet.values[:, 0])), grid),
    )
    identity = max(
        frameless_identity_check(motion.sheet, motion.theta, mu),
        frameless_identity_check(flow_sheet, theta_b, mu),
    )
    return EquivalenceReport(sup, cr_defect, arc, mkdv, identity)

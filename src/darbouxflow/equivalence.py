"""Cross-checks tying the three descriptions of one semi-discrete system together.

An isoperimetric motion of a discrete curve, viewed edge by edge, is an
infinitesimal Darboux transformation with mu = 1/a_n^2; building the same sheet
both ways and comparing — together with identities that avoid frames entirely —
is the package's central verification.
"""
from __future__ import annotations

import numpy as np

from .geometry import PolarizedCurve, fd_derivative
from .motion import MotionResult
from .semidiscrete import FlowSpec, infinitesimal_darboux, sheet_cross_ratio_defect


def iso_darboux_check(motion: MotionResult):
    """Edge cross ratios of a motion sheet against the arc-length parameters.

    Returns (max |cr - 1/a_n^2|, max |Im cr|) with cr evaluated from the
    sheet's row derivatives and 1/a_n^2 the polarization of ``motion.base``.
    """
    return sheet_cross_ratio_defect(motion.sheet, motion.base.mu)


def frameless_identity_check(motion: MotionResult) -> float:
    """Max defect of the frame-free derivation of the semi-discrete system.

    (x_n' x_{n+1}')', with the unit tangents x_n' = e^{i theta_n} read from
    ``motion.theta``, is compared against its two closed forms
    2 sqrt(mu) (e^{i theta_{n+1}} - e^{i theta_n}) e^{i theta_n/2} e^{i theta_{n+1}/2}
    (sqrt(mu) > 0, matched up to one overall sign) and
    i (theta_{n+1}' + theta_n') e^{i theta_n} e^{i theta_{n+1}}, all
    derivatives by finite differences and mu read from ``motion.base``.  The
    scalar mKdV equation these imply is ``motion.mkdv_residual``.

    theta may itself come from finite differences of positions
    (``motion.tangential_angles``), so the defect is taken where every
    ingredient uses a central stencil: four columns in from each end, two
    on grids of 5 to 8 nodes.
    (Differencing across the one-sided to central changeover costs an order
    of accuracy and would dominate.)  Raises GridTooShortError under 5 nodes.
    """
    theta, grid = motion.theta, motion.sheet.grid
    xp = np.exp(1j * theta)
    product = xp[:-1] * xp[1:]
    direct = fd_derivative(product, grid.h)
    sum_half = np.exp(0.5j * (theta[1:] + theta[:-1]))
    first = (2.0 * np.sqrt(motion.base.mu)[:, None]
             * (xp[1:] - xp[:-1]) * sum_half)
    theta_p = fd_derivative(theta, grid.h)
    second = 1j * (theta_p[1:] + theta_p[:-1]) * sum_half**2
    inner = slice(4, -4) if grid.count >= 9 else slice(2, -2)
    # np.minimum/np.maximum, unlike min/max, keep a NaN in either position
    d_first = np.minimum(np.abs(first - direct)[:, inner].max(),
                         np.abs(-first - direct)[:, inner].max())
    d_second = np.abs(second - direct)[:, inner].max()
    return float(np.maximum(d_first, d_second))


def pipelines_agree(motion: MotionResult) -> float:
    """Sup distance between an isoperimetric motion's sheet and the Darboux
    flow it is equivalent to.

    The flow runs on ``motion.base`` (mu_n = 1/a_n(0)^2) with m = 1, seeds
    row 0 with the motion's row 0, and propagates every other row through
    the Riccati edge equation.
    """
    initial = PolarizedCurve.from_samples(motion.sheet.grid, motion.sheet.values[0], 1.0)
    flow_sheet = infinitesimal_darboux(FlowSpec(motion.base, 1.0, 0, initial))
    return float(np.abs(motion.sheet.values - flow_sheet.values).max())

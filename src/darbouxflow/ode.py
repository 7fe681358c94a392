"""Fixed-step classic Runge-Kutta integration on shared parameter grids.

The state may be a complex scalar or any numpy array (curves move a whole
vertex vector at once); the right-hand side is evaluated at the grid nodes and
midpoints only, so deterministic refined-grid lookups stay exact.
"""
from __future__ import annotations

import numpy as np

from .errors import BlowupError


def rk4_path(s_values, rhs, y0):
    """Classic RK4 along an ordered sequence of s values (either direction).

    The state update uses compensated (Kahan) summation so that round-off from
    thousands of tiny increments does not swamp the O(h^4) truncation error.
    Returns the states at every entry of ``s_values``; raises BlowupError
    (carrying the index reached) as soon as a state goes non-finite.
    """
    y = y0
    comp = 0.0 * y0
    out = [y0]
    # Riccati right-hand sides have movable poles; overflow in a stage just
    # means the solution left the grid's window, which the finite check below
    # turns into a BlowupError.  Silence the intermediate warnings.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(len(s_values) - 1):
            s = s_values[i]
            h = s_values[i + 1] - s
            k1 = rhs(s, y)
            k2 = rhs(s + 0.5 * h, y + (0.5 * h) * k1)
            k3 = rhs(s + 0.5 * h, y + (0.5 * h) * k2)
            k4 = rhs(s + h, y + h * k3)
            d = (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4) - comp
            t = y + d
            comp = (t - y) - d
            y = t
            if not np.all(np.isfinite(y)):
                raise BlowupError(
                    f"integration blew up at grid index {i + 1}", index=i + 1)
            out.append(y)
    return np.asarray(out)


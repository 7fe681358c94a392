"""The package's acceptance checks, runnable as a suite.

Every check pairs a computed quantity with an independent oracle (closed
forms, conservation laws, or the defining identities) and a tolerance.
``run_suite`` executes all of them against shared cached artifacts and
returns one result per check; the CLI ``verify`` command prints them and
exits nonzero if any fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .darboux import (DarbouxParams, arclength_darboux, cross_ratio_defect,
                      darboux_transform, lambda_evolution_defects,
                      lemma_defects, pair_table)
from .equivalence import (frameless_identity_check, iso_darboux_check,
                          pipelines_agree)
from .expressions import parse_expression
from .geometry import (DiscretePolarizedCurve, PolarizedCurve, SGrid,
                       ngon_vertices)
from .motion import (frame_compatibility_check, integrate_motion,
                     mkdv_residual)
from .output import svg_text
from .semidiscrete import FlowSpec, arclength_flow_check, infinitesimal_darboux, \
    sheet_cross_ratio_defect

__all__ = [
    "CheckResult", "Artifacts", "run_suite",
    "figure_family", "FIGURE_MU", "FIGURE_POINT", "FIGURE_M2",
    "HEPTAGON_TURNS", "HEPTAGON_LENGTHS", "HEPTAGON_W0", "polyline_vertices",
]

# The non-symmetric 7-vertex test curve: gentle turning angles keep the
# one-sided boundary stencils well inside every tolerance at h = 1e-3.
HEPTAGON_TURNS = (0.3, -0.2, 0.25, 0.35, -0.3)
HEPTAGON_LENGTHS = (1.1, 0.9, 1.0, 1.2, 0.95, 1.05)
HEPTAGON_W0 = -0.15

FIGURE_MU = 0.25
FIGURE_POINT = -1.0 + 0.0j
FIGURE_M2 = "1 + 0.5*sin(s)"


def polyline_vertices(turns, lengths) -> np.ndarray:
    """Open polygon from successive edge lengths and interior turning angles."""
    pts = [0j]
    ang = 0.0
    for i, length in enumerate(lengths):
        pts.append(pts[-1] + length * np.exp(1j * ang))
        if i < len(turns):
            ang += turns[i]
    return np.asarray(pts, dtype=complex)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _circle(grid: SGrid, m=1.0) -> PolarizedCurve:
    return PolarizedCurve.from_generator(
        grid, lambda s: np.exp(1j * s), lambda s: 1j * np.exp(1j * s), m)


def _line(grid: SGrid, m=1.0) -> PolarizedCurve:
    return PolarizedCurve.from_generator(
        grid, lambda s: s + 0j, lambda s: np.ones_like(s, dtype=complex), m)


class Artifacts:
    """Shared lazily-built inputs for the checks, at base step ``h``."""

    def __init__(self, h: float = 1e-3):
        self.h = float(h)

    # -- smooth pairs -----------------------------------------------------
    @cached_property
    def circle_grid(self) -> SGrid:
        return SGrid.from_step(0.0, 2.0 * math.pi, self.h)

    @cached_property
    def circle(self) -> PolarizedCurve:
        return _circle(self.circle_grid)

    @cached_property
    def circle_transform(self) -> PolarizedCurve:
        return darboux_transform(self.circle, DarbouxParams(0.25, -1.0 + 0j))

    @cached_property
    def circle_transform_half(self) -> PolarizedCurve:
        grid = SGrid.from_step(0.0, 2.0 * math.pi, self.h / 2.0)
        return darboux_transform(_circle(grid), DarbouxParams(0.25, -1.0 + 0j))

    @cached_property
    def circle_arclength_pair(self):
        curve = self.circle
        return curve, arclength_darboux(curve, 0.25, math.pi)

    @cached_property
    def line_pair(self):
        grid = SGrid.from_step(0.0, 5.0, self.h)
        curve = _line(grid)
        return curve, darboux_transform(curve, DarbouxParams(0.25, 2.0 + 0j))

    @cached_property
    def mismatched_pair(self):
        # Seed at distance 1.1/sqrt(mu) instead of 1/sqrt(mu): still a Darboux
        # pair, but no longer arc-length preserving, so lam varies.
        curve = self.circle
        return curve, darboux_transform(curve, DarbouxParams(0.25, -1.2 + 0j))

    # -- motions -----------------------------------------------------------
    @cached_property
    def hexagon_motion(self):
        grid = SGrid.from_step(0.0, 1.0, self.h)
        return integrate_motion(ngon_vertices(6), -math.pi / 6.0, 0, grid)

    @cached_property
    def square_motion(self):
        grid = SGrid.from_step(0.0, 0.5, self.h)
        return integrate_motion(ngon_vertices(4), 0.0, 0, grid)

    @cached_property
    def pentagon_motion(self):
        grid = SGrid.from_step(0.0, 1.0, self.h)
        return integrate_motion(ngon_vertices(5), -math.pi / 5.0, 0, grid)

    @cached_property
    def heptagon_motion(self):
        grid = SGrid.from_step(0.0, 0.5, self.h)
        verts = polyline_vertices(HEPTAGON_TURNS, HEPTAGON_LENGTHS)
        return integrate_motion(verts, HEPTAGON_W0, 0, grid)

    def motions(self):
        """All motion results, labeled."""
        return [("hexagon", self.hexagon_motion),
                ("square", self.square_motion),
                ("pentagon", self.pentagon_motion),
                ("heptagon", self.heptagon_motion)]

    # -- pipelines ---------------------------------------------------------
    @cached_property
    def hexagon_pipelines(self):
        return (pipelines_agree(ngon_vertices(6), -math.pi / 6.0, 0,
                                SGrid.from_step(0.0, 1.0, self.h)),
                pipelines_agree(ngon_vertices(6), -math.pi / 6.0, 0,
                                SGrid.from_step(0.0, 1.0, self.h / 2.0)))

    @cached_property
    def square_pipelines(self):
        return (pipelines_agree(ngon_vertices(4), 0.0, 0,
                                SGrid.from_step(0.0, 0.5, self.h)),
                pipelines_agree(ngon_vertices(4), 0.0, 0,
                                SGrid.from_step(0.0, 0.5, self.h / 2.0)))

    # -- flows -------------------------------------------------------------
    @cached_property
    def line_flow(self):
        grid = SGrid.from_step(0.0, 2.0, self.h)
        base = DiscretePolarizedCurve(np.arange(4) * 2.0 + 0j, 0.25)
        sheet = infinitesimal_darboux(FlowSpec(base, 1.0, 0, _line(grid)))
        return base, sheet

    @cached_property
    def nonunit_flow(self):
        # A non-unit-speed seed breaks the arc-length balance, so the Riccati
        # flow on edge (1, 2) has a movable pole near s = 0.565; stop well
        # before it while the column deviations are already O(10).
        grid = SGrid.from_step(0.0, 0.4, self.h)
        base = DiscretePolarizedCurve(np.arange(4) * 2.0 + 0j, 0.25)
        initial = PolarizedCurve.from_generator(
            grid, lambda s: 2.0 * s + 0j,
            lambda s: 2.0 * np.ones_like(s, dtype=complex), 1.0)
        sheet = infinitesimal_darboux(FlowSpec(base, 1.0, 0, initial))
        return base, sheet

    # -- figure ------------------------------------------------------------
    @cached_property
    def figure(self):
        return figure_family(self.circle_grid, FIGURE_MU, FIGURE_POINT)


def figure_family(grid: SGrid, mu: float, initial_point: complex):
    """The figure's three curves: base circle and two transforms that share
    mu and the initial point but carry different polarizations."""
    base1 = _circle(grid, 1.0)
    m2 = parse_expression(FIGURE_M2)
    base2 = _circle(grid, m2)
    t1 = darboux_transform(base1, DarbouxParams(mu, initial_point))
    t2 = darboux_transform(base2, DarbouxParams(mu, initial_point))
    return base1, t1, t2


class _Tol:
    """Named tolerances: defaults scaled by a global multiplier, with
    per-name overrides (from the scenario's [verify] section)."""

    def __init__(self, multiplier: float = 1.0, overrides=None):
        if multiplier <= 0:
            raise ValueError(f"tolerance multiplier must be positive, got {multiplier!r}")
        self.multiplier = multiplier
        self.overrides = dict(overrides or {})

    def __call__(self, name: str, default: float) -> float:
        return self.multiplier * self.overrides.get(name, default)


def _fmt(x: float) -> str:
    return f"{x:.3g}"


# ---------------------------------------------------------------------------
# the checks


def _check_rotated_circle(art: Artifacts, tol: _Tol) -> CheckResult:
    name = "rotated-circle-darboux"
    want = tol(f"{name}.error", 1e-6)
    ratio_min = tol(f"{name}.ratio-min", 10.0)

    def err(t: PolarizedCurve) -> float:
        s = t.grid.values()
        return float(np.abs(t.points - (-np.exp(1j * s))).max())

    e1 = err(art.circle_transform)
    e2 = err(art.circle_transform_half)
    ratio = e1 / e2 if e2 > 0 else math.inf
    ok = e1 < want and ratio >= ratio_min
    return CheckResult(name, ok,
                       f"max error {_fmt(e1)} < {_fmt(want)}; "
                       f"halving ratio {ratio:.1f} >= {_fmt(ratio_min)}")


def _check_cross_ratio(art: Artifacts, tol: _Tol) -> CheckResult:
    name = "cross-ratio-constancy"
    want = tol(name, 1e-6)
    worst = 0.0
    for base, transform, mu in [
        (art.circle, art.circle_transform, 0.25),
        (*art.circle_arclength_pair, 0.25),
        (*art.line_pair, 0.25),
        (*art.mismatched_pair, 0.25),
    ]:
        worst = max(worst, cross_ratio_defect(base, transform, mu))
    _, t1, t2 = art.figure
    worst = max(worst, cross_ratio_defect(art.circle, t1, FIGURE_MU))
    worst = max(worst, cross_ratio_defect(t2_base(art), t2, FIGURE_MU))
    for base, sheet in (art.line_flow, art.nonunit_flow):
        worst = max(worst, sheet_cross_ratio_defect(sheet, base.mu, 1.0)[0])
    return CheckResult(name, worst < want,
                       f"max |m cr - mu| {_fmt(worst)} < {_fmt(want)} over all "
                       f"transforms and flow sheets")


def t2_base(art: Artifacts) -> PolarizedCurve:
    """The circle carrying the figure's second (non-constant) polarization."""
    return _circle(art.circle_grid, parse_expression(FIGURE_M2))


def _check_lambda_laws(art: Artifacts, tol: _Tol) -> CheckResult:
    name = "lambda-laws"
    const_tol = tol(f"{name}.constant", 1e-8)
    evol_tol = tol(f"{name}.evolution", 1e-5)
    worst_const = 0.0
    for base, transform in (art.circle_arclength_pair, art.line_pair):
        lam = pair_table(base, transform).lam
        worst_const = max(worst_const, float(np.abs(lam - 4.0).max()))
    base, transform = art.mismatched_pair
    d_pair, d_rate = lambda_evolution_defects(base, transform, 0.25)
    lam = pair_table(base, transform).lam
    spread = float(lam.max() - lam.min())
    ok = worst_const < const_tol and max(d_pair, d_rate) < evol_tol and spread > 1e-4
    return CheckResult(name, ok,
                       f"|lam - 1/mu| {_fmt(worst_const)} < {_fmt(const_tol)}; "
                       f"mismatched lam' laws {_fmt(max(d_pair, d_rate))} < "
                       f"{_fmt(evol_tol)} (lam spread {_fmt(spread)})")


def _check_lemmas(art: Artifacts, tol: _Tol) -> CheckResult:
    name = "lemma-identities"
    want = tol(name, 1e-8)
    worst = 0.0
    for base, transform in (art.circle_arclength_pair, art.line_pair,
                            art.mismatched_pair,
                            (art.circle, art.circle_transform)):
        center, ratio = lemma_defects(base, transform, 0.25)
        worst = max(worst, center, ratio)
    return CheckResult(name, worst < want,
                       f"center + ratio identities {_fmt(worst)} < {_fmt(want)} "
                       f"relative, on all pairs")


def _check_hexagon(art: Artifacts, tol: _Tol) -> CheckResult:
    name = "rotating-hexagon"
    shape_tol = tol(f"{name}.shape", 1e-8)
    edge_tol = tol(f"{name}.edges", 1e-8)
    mkdv_tol = tol(f"{name}.mkdv", 1e-10)
    res = art.hexagon_motion
    grid = res.sheet.grid
    s = grid.values()
    n = np.arange(res.sheet.rows)[:, None]
    oracle = np.exp(1j * (math.pi * n / 3.0 + s[None, :]))
    shape = float(np.abs(res.sheet.values - oracle).max())
    a0 = np.abs(np.diff(res.sheet.values[:, 0]))
    edges = float(np.abs(np.abs(np.diff(res.sheet.values, axis=0)) - a0[:, None]).max())
    mk = mkdv_residual(res.theta, a0, grid)
    ok = shape < shape_tol and edges < edge_tol and mk < mkdv_tol
    return CheckResult(name, ok,
                       f"vs rigid rotation {_fmt(shape)} < {_fmt(shape_tol)}; "
                       f"edge drift {_fmt(edges)} < {_fmt(edge_tol)}; "
                       f"mkdv {_fmt(mk)} < {_fmt(mkdv_tol)}")


def _check_mkdv_generic(art: Artifacts, tol: _Tol) -> CheckResult:
    name = "mkdv-generic"
    want = tol(name, 1e-6)
    details = []
    ok = True
    for label, res in (("pentagon", art.pentagon_motion),
                       ("heptagon", art.heptagon_motion)):
        a0 = np.abs(np.diff(res.sheet.values[:, 0]))
        mk = mkdv_residual(res.theta, a0, res.sheet.grid)
        ok = ok and mk < want
        details.append(f"{label} {_fmt(mk)}")
    return CheckResult(name, ok, f"residuals {', '.join(details)} < {_fmt(want)}")


def _check_iso_cross_ratio(art: Artifacts, tol: _Tol) -> CheckResult:
    name = "iso-cross-ratio"
    want = tol(name, 1e-6)
    im_tol = tol(f"{name}.imag", 1e-8)
    worst = im_worst = 0.0
    for _, res in art.motions():
        defect, im = iso_darboux_check(res.sheet)
        worst = max(worst, defect)
        im_worst = max(im_worst, im)
    ok = worst < want and im_worst < im_tol
    return CheckResult(name, ok,
                       f"max |cr - 1/a^2| {_fmt(worst)} < {_fmt(want)}; "
                       f"max |Im cr| {_fmt(im_worst)} < {_fmt(im_tol)}")


def _check_pipelines(art: Artifacts, tol: _Tol) -> CheckResult:
    name = "pipelines-agree"
    want = tol(name, 1e-5)
    lo = tol(f"{name}.ratio-min", 10.0)
    hi = tol(f"{name}.ratio-max", 20.0)
    details = []
    ok = True
    for label, (full, half) in (("hexagon", art.hexagon_pipelines),
                                ("square", art.square_pipelines)):
        ratio = full.sup_distance / half.sup_distance if half.sup_distance else math.inf
        ok = ok and full.sup_distance < want and lo <= ratio <= hi
        details.append(f"{label} sup {_fmt(full.sup_distance)} (ratio {ratio:.1f})")
    return CheckResult(name, ok,
                       f"{'; '.join(details)}; sup < {_fmt(want)}, "
                       f"ratio in [{_fmt(lo)}, {_fmt(hi)}]")


def _check_frameless(art: Artifacts, tol: _Tol) -> CheckResult:
    name = "frameless-identity"
    want = tol(name, 1e-5)
    worst = 0.0
    for _, res in art.motions():
        a0 = np.abs(np.diff(res.sheet.values[:, 0]))
        worst = max(worst, frameless_identity_check(res.sheet, res.theta, 1.0 / a0**2))
    return CheckResult(name, worst < want,
                       f"defect {_fmt(worst)} < {_fmt(want)} on all motion sheets")


def _check_compatibility(art: Artifacts, tol: _Tol) -> CheckResult:
    name = "frame-compatibility"
    want = tol(name, 1e-5)
    worst_m = worst_s = 0.0
    for _, res in art.motions():
        m_def, s_def = frame_compatibility_check(res)
        worst_m = max(worst_m, m_def)
        worst_s = max(worst_s, s_def)
    ok = worst_m < want and worst_s < want
    return CheckResult(name, ok,
                       f"matrix {_fmt(worst_m)}, scalar psi' + (2/a) sin w "
                       f"{_fmt(worst_s)} < {_fmt(want)}")


def _check_figure(art: Artifacts, tol: _Tol) -> CheckResult:
    name = "figure-distinct-polarizations"
    cr_tol = tol(f"{name}.cross-ratio", 1e-6)
    dist_min = tol(f"{name}.distance-min", 0.01)
    base1, t1, t2 = art.figure
    d1 = cross_ratio_defect(base1, t1, FIGURE_MU)
    d2 = cross_ratio_defect(t2_base(art), t2, FIGURE_MU)
    dist = float(np.abs(t1.points - t2.points).max())
    text = svg_text([base1.points, t1.points, t2.points],
                    colors=["black", "red", "blue"], markers=[FIGURE_POINT])
    polylines = text.count("<polyline")
    markers = text.count("<circle")
    ok = (max(d1, d2) < cr_tol and dist > dist_min
          and polylines == 3 and markers == 1)
    return CheckResult(name, ok,
                       f"transform cross ratios {_fmt(max(d1, d2))} < {_fmt(cr_tol)}; "
                       f"mutual distance {_fmt(dist)} > {_fmt(dist_min)}; "
                       f"svg has {polylines} polylines + marker")


def _check_discrete_arclength(art: Artifacts, tol: _Tol) -> CheckResult:
    name = "discrete-arclength"
    want = tol(name, 1e-8)
    grow_min = tol(f"{name}.growth-min", 1e-3)
    base, sheet = art.line_flow
    good = arclength_flow_check(sheet, base.mu, 1.0)
    base2, sheet2 = art.nonunit_flow
    bad = arclength_flow_check(sheet2, base2.mu, 1.0)
    far = float(np.abs(bad.column_deviations[-1]))
    ok = (max(good.discrete_deviation, good.smooth_deviation) < want
          and bad.smooth_deviation > 1.0 and far > grow_min)
    return CheckResult(name, ok,
                       f"unit-speed flow deviations {_fmt(max(good.discrete_deviation, good.smooth_deviation))} "
                       f"< {_fmt(want)}; non-unit-speed column deviation "
                       f"{_fmt(far)} > {_fmt(grow_min)} away from s0")


_CHECKS = [
    _check_rotated_circle,
    _check_cross_ratio,
    _check_lambda_laws,
    _check_lemmas,
    _check_hexagon,
    _check_mkdv_generic,
    _check_iso_cross_ratio,
    _check_pipelines,
    _check_frameless,
    _check_compatibility,
    _check_figure,
    _check_discrete_arclength,
]


def run_suite(h: float = 1e-3, tol_multiplier: float = 1.0, overrides=None,
              artifacts: Artifacts | None = None):
    """Run every check; returns one CheckResult per check, in the order of
    the numbered list in README.md."""
    art = artifacts if artifacts is not None else Artifacts(h)
    tol = _Tol(tol_multiplier, overrides)
    return [check(art, tol) for check in _CHECKS]

"""The package's acceptance checks, runnable as a suite.

Every check pairs a computed quantity with an independent oracle (closed
forms, conservation laws, or the defining identities) and a tolerance.
``run_suite`` executes all of them against shared cached artifacts and
returns one result per check; the CLI ``verify`` command prints them and
exits nonzero if any fail.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .darboux import (DarbouxParams, cross_ratio_defect, darboux_transform,
                      lambda_evolution_defects, lemma_defects, pair_table)
from .equivalence import (frameless_identity_check, iso_darboux_check,
                          pipelines_agree)
from .errors import BlowupError, ConfigError, CurveError, GridTooShortError
from .expressions import parse_expression
from .geometry import (DiscretePolarizedCurve, PolarizedCurve, SGrid, _circle, _line,
                       fd_derivative, ngon_vertices)
from .motion import (frame_compatibility_check, integrate_motion,
                     mkdv_residual)
from .output import svg_text
from .semidiscrete import FlowSpec, arclength_flow_check, infinitesimal_darboux, \
    sheet_cross_ratio_defect

__all__ = [
    "CheckResult", "Artifacts", "run_suite",
    "figure_family", "FIGURE_MU", "FIGURE_POINT", "FIGURE_M2",
    "HEPTAGON_TURNS", "HEPTAGON_LENGTHS", "HEPTAGON_N0", "HEPTAGON_W0",
    "polyline_vertices",
]

# The non-symmetric 7-vertex test curve: gentle turning angles keep the
# one-sided boundary stencils well inside every tolerance at h = 1e-3.  Its
# seed edge sits inside, so the w-recursion walks towards vertex 0 too, and
# its w0 varies within every step.
HEPTAGON_TURNS = (0.3, -0.2, 0.25, 0.35, -0.3)
HEPTAGON_LENGTHS = (1.1, 0.9, 1.0, 1.2, 0.95, 1.05)
HEPTAGON_N0 = 2
HEPTAGON_W0 = "-0.15 + 0.1*sin(3*s)"

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


_RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
              ">=": operator.ge, "==": operator.eq}


@dataclass
class CheckResult:
    """One check's resolved ``(label, measured, relation, bound)`` tuples, or
    the error that stopped its artifacts from being built."""
    name: str
    bounds: list
    error: str = ""

    @property
    def passed(self) -> bool:
        """No error and every relation holds; a NaN measured value fails."""
        return not self.error and all(
            _RELATIONS[rel](measured, bound) for _, measured, rel, bound in self.bounds)

    def line(self) -> str:
        return (f"{'PASS' if self.passed else 'FAIL'}  {self.name}: "
                + (self.error or "; ".join(f"{label} {measured:.3g} {rel} {bound:.3g}"
                                           for label, measured, rel, bound in self.bounds)))


def _worst(values) -> float:
    """The largest value, NaN if any is: Python's max keeps its first
    argument against a NaN, so a NaN defect in a later position would pass."""
    return float(np.max(list(values)))


class Artifacts:
    """Shared lazily-built inputs for the checks, at base step ``h``.  A step
    no artifact can be built at is refused here, before any check runs."""

    def __init__(self, h: float = 1e-3):
        self.h = float(h)
        # The grids span [0, 0.4] (nonunit_flow) up to [0, 2 pi] at h/2 (half.circle_transform):
        # SGrid refuses a count that overflows or numpy cannot size; the stencils need 5 nodes.
        SGrid.from_step(0.0, 2.0 * math.pi, self.h / 2.0)
        count = SGrid.from_step(0.0, 0.4, self.h).count
        if count < 5:
            raise GridTooShortError(f"step h = {self.h!r} is too coarse: the shortest check "
                                    f"grid, [0, 0.4], gets {count} of the 5 nodes it needs")

    @cached_property
    def half(self) -> Artifacts:
        """The same artifacts at h/2; __init__ sized their grids, so the twin skips that check."""
        twin = object.__new__(type(self))
        twin.h = self.h / 2.0
        return twin

    # -- smooth pairs -----------------------------------------------------
    @cached_property
    def circle_grid(self) -> SGrid:
        return SGrid.from_step(0.0, 2.0 * math.pi, self.h)

    # FIGURE_MU = 0.25 and FIGURE_POINT = -1 seed the unit circle's transform
    # at distance 1/sqrt(mu) = 2 from x(0) = 1, so the figure's first transform
    # is the arc-length one whose oracle is the rotated circle -e^{is}.
    @cached_property
    def circle(self) -> PolarizedCurve:
        return _circle(self.circle_grid)

    @cached_property
    def circle_transform(self) -> PolarizedCurve:
        return darboux_transform(self.circle, DarbouxParams(FIGURE_MU, FIGURE_POINT))

    @cached_property
    def circle_transform_half(self) -> PolarizedCurve:
        return self.half.circle_transform

    # arclength_darboux(circle, 0.25, pi) seeds at 1 + 2e^{i pi} = -1 + 2.4e-16j,
    # which is the figure's seed to round-off: the same transform.
    @cached_property
    def circle_arclength_pair(self):
        return self.circle, self.circle_transform

    @cached_property
    def line_pair(self):
        curve = _line(SGrid.from_step(0.0, 5.0, self.h))
        return curve, darboux_transform(curve, DarbouxParams(0.25, 2.0 + 0j))

    @cached_property
    def mismatched_pair(self):
        # Seed at distance 1.1/sqrt(mu) instead of 1/sqrt(mu): still a Darboux
        # pair, but no longer arc-length preserving, so lam varies.
        return self.circle, darboux_transform(self.circle, DarbouxParams(0.25, -1.2 + 0j))

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
        return integrate_motion(verts, parse_expression(HEPTAGON_W0), HEPTAGON_N0, grid)

    def motions(self):
        """All motion results, labeled."""
        return [("hexagon", self.hexagon_motion),
                ("square", self.square_motion),
                ("pentagon", self.pentagon_motion),
                ("heptagon", self.heptagon_motion)]

    # -- pipelines ---------------------------------------------------------
    @cached_property
    def hexagon_pipelines(self):
        return pipelines_agree(self.hexagon_motion)

    @cached_property
    def square_pipelines(self):
        return pipelines_agree(self.square_motion)

    @cached_property
    def heptagon_pipelines(self):
        return pipelines_agree(self.heptagon_motion)

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
        base2 = _circle(self.circle_grid, m=parse_expression(FIGURE_M2))
        t2 = darboux_transform(base2, DarbouxParams(FIGURE_MU, FIGURE_POINT))
        return self.circle, self.circle_transform, t2, base2


def figure_family(grid: SGrid, mu: float, initial_point: complex):
    """The figure's curves ``(base1, t1, t2, base2)``: the unit-polarized
    circle, its transform t1, the transform t2 of the same circle carrying the
    polarization FIGURE_M2 (base2), with mu and the initial point shared."""
    base1, base2 = _circle(grid), _circle(grid, m=parse_expression(FIGURE_M2))
    t1, t2 = (darboux_transform(b, DarbouxParams(mu, initial_point)) for b in (base1, base2))
    return base1, t1, t2, base2


# ---------------------------------------------------------------------------
# the checks: each returns (label, measured, relation, key, default) entries.
# The check's name plus ``key`` ("" for the bare name) is the [verify]
# override name; a key of None is a fixed bound that nothing moves.


def _halving(e_h: float, e_half: float) -> float:
    """e(h)/e(h/2), about 16 at fourth order; inf for a zero e(h/2), NaN (a fail) for a NaN."""
    return e_h / e_half if e_half else math.inf


def _check_rotated_circle(art: Artifacts):
    def err(t: PolarizedCurve) -> float:
        s = t.grid.values()
        return float(np.abs(t.points - (-np.exp(1j * s))).max())

    e_h, e_half = err(art.circle_transform), err(art.half.circle_transform)
    return [("max error", e_h, "<", ".error", 1e-6),
            ("halving ratio", _halving(e_h, e_half), ">=", ".ratio-min", 10.0)]


def _check_cross_ratio(art: Artifacts):
    _, _, t2, base2 = art.figure
    defects = [cross_ratio_defect(base, transform, 0.25) for base, transform in (
        art.circle_arclength_pair, art.line_pair, art.mismatched_pair)]
    defects.append(cross_ratio_defect(base2, t2, FIGURE_MU))
    defects += [sheet_cross_ratio_defect(sheet, base.mu)[0]
                for base, sheet in (art.line_flow, art.nonunit_flow)]
    return [("max |m cr - mu| over all transforms and flow sheets", _worst(defects),
             "<", "", 1e-6)]


def _check_lambda_laws(art: Artifacts):
    worst_const = _worst(float(np.abs(pair_table(*pair).lam - 4.0).max())
                         for pair in (art.circle_arclength_pair, art.line_pair))
    base, transform = art.mismatched_pair
    lam = pair_table(base, transform).lam
    return [("|lam - 1/mu|", worst_const, "<", ".constant", 1e-8),
            ("mismatched lam' laws", _worst(lambda_evolution_defects(base, transform, 0.25)),
             "<", ".evolution", 1e-5),
            ("mismatched lam spread", float(lam.max() - lam.min()), ">", None, 1e-4)]


def _check_lemmas(art: Artifacts):
    worst = _worst(_worst(lemma_defects(base, transform, 0.25)) for base, transform in (
        art.circle_arclength_pair, art.line_pair, art.mismatched_pair))
    return [("division-free center + ratio identities on all pairs", worst, "<", "", 1e-8)]


def _check_hexagon(art: Artifacts):
    res = art.hexagon_motion
    grid = res.sheet.grid
    s = grid.values()
    n = np.arange(res.sheet.rows)[:, None]
    oracle = np.exp(1j * (math.pi * n / 3.0 + s[None, :]))
    # edge lengths are exact by construction, the differenced speed is not
    speed = np.abs(fd_derivative(res.sheet.values, grid.h))
    return [("vs rigid rotation", float(np.abs(res.sheet.values - oracle).max()),
             "<", ".shape", 1e-8),
            ("vertex speed", float(np.abs(speed - 1.0).max()), "<", ".edges", 1e-8),
            ("mkdv", mkdv_residual(res), "<", ".mkdv", 1e-10)]


def _check_mkdv_generic(art: Artifacts):
    # motions() lists the hexagon first; rotating-hexagon holds it to 1e-10.
    return [(f"{label} residual", mkdv_residual(res), "<", "", 1e-6)
            for label, res in art.motions()[1:]]


def _check_iso_cross_ratio(art: Artifacts):
    defects, imags = zip(*(iso_darboux_check(res) for _, res in art.motions()))
    return [("max |cr - 1/a^2|", _worst(defects), "<", "", 1e-6),
            ("max |Im cr|", _worst(imags), "<", ".imag", 1e-8)]


def _check_pipelines(art: Artifacts):
    # The hexagon rotates rigidly, so its h/2 sup sits on round-off and a
    # halving ratio there moves with rounding alone: it has its sup only.
    entries = [("hexagon sup", art.hexagon_pipelines, "<", "", 1e-5)]
    for label, full, half in (("square", art.square_pipelines, art.half.square_pipelines),
                              ("heptagon", art.heptagon_pipelines, art.half.heptagon_pipelines)):
        ratio = _halving(full, half)
        entries += [(f"{label} sup", full, "<", "", 1e-5),
                    (f"{label} halving ratio", ratio, ">=", ".ratio-min", 10.0),
                    (f"{label} halving ratio", ratio, "<=", ".ratio-max", 20.0)]
    return entries


def _check_frameless(art: Artifacts):
    worst = _worst(frameless_identity_check(res) for _, res in art.motions())
    return [("defect on all motion sheets", worst, "<", "", 1e-5)]


def _check_compatibility(art: Artifacts):
    worst = _worst(frame_compatibility_check(res) for _, res in art.motions())
    return [("matrix", worst, "<", "", 1e-5)]


def _check_figure(art: Artifacts):
    base1, t1, t2, base2 = art.figure
    d1 = cross_ratio_defect(base1, t1, FIGURE_MU)
    d2 = cross_ratio_defect(base2, t2, FIGURE_MU)
    # the tag count does not depend on the points, so every 64th node will do
    text = svg_text([base1.points[::64], t1.points[::64], t2.points[::64]],
                    colors=["black", "red", "blue"], markers=[FIGURE_POINT])
    return [("transform cross ratios", _worst([d1, d2]), "<", ".cross-ratio", 1e-6),
            ("mutual distance", float(np.abs(t1.points - t2.points).max()),
             ">", ".distance-min", 0.01),
            ("svg polylines", text.count("<polyline"), "==", None, 3),
            ("svg markers", text.count("<circle"), "==", None, 1)]


def _check_discrete_arclength(art: Artifacts):
    base, sheet = art.line_flow
    columns, smooth = arclength_flow_check(sheet, base.mu)
    base2, sheet2 = art.nonunit_flow
    bad_columns, bad_smooth = arclength_flow_check(sheet2, base2.mu)
    return [("unit-speed flow deviations", _worst([columns.max(), smooth]), "<", "", 1e-8),
            ("non-unit-speed smooth deviation", bad_smooth, ">", None, 1.0),
            ("non-unit-speed column deviation away from s0",
             float(bad_columns[-1]), ">", ".growth-min", 1e-3)]


_CHECKS = {
    "rotated-circle-darboux": _check_rotated_circle,
    "cross-ratio-constancy": _check_cross_ratio,
    "lambda-laws": _check_lambda_laws,
    "lemma-identities": _check_lemmas,
    "rotating-hexagon": _check_hexagon,
    "mkdv-generic": _check_mkdv_generic,
    "iso-cross-ratio": _check_iso_cross_ratio,
    "pipelines-agree": _check_pipelines,
    "frameless-identity": _check_frameless,
    "frame-compatibility": _check_compatibility,
    "figure-distinct-polarizations": _check_figure,
    "discrete-arclength": _check_discrete_arclength,
}


def run_suite(h: float | None = None, tol_multiplier: float = 1.0, overrides=None,
              artifacts: Artifacts | None = None):
    """Run every check on ``artifacts``, or on fresh Artifacts(h) (h = 1e-3 by
    default); an ``h`` that is not the artifacts' own step is a ValueError.
    Returns one CheckResult per check, in the order of the numbered list in
    README.md.  A named bound takes its [verify]
    override, and ``tol_multiplier`` then loosens it: upper bounds are
    multiplied, lower bounds divided.  A CurveError or BlowupError raised
    while a check builds its artifacts fails that check with the error's
    text, and the other checks still run.  Raises ConfigError, after the
    checks, for an override name that no check reads."""
    if not (math.isfinite(tol_multiplier) and tol_multiplier > 0):
        raise ValueError(f"tolerance multiplier must be a finite positive number, "
                         f"got {tol_multiplier!r}")
    if artifacts is not None and h is not None and h != artifacts.h:
        raise ValueError(f"h = {h!r} is not the artifacts' step {artifacts.h!r}")
    art = artifacts if artifacts is not None else Artifacts(1e-3 if h is None else h)
    overrides = overrides or {}
    used, results = set(), []
    for name, check in _CHECKS.items():
        try:
            entries = check(art)
        except (CurveError, BlowupError) as exc:
            # The check's own names are unknown without its entries, so no
            # override under its name is reported as unused.
            used |= {key for key in overrides if key.split(".")[0] == name}
            results.append(CheckResult(name, [], f"{type(exc).__name__}: {exc}"))
            continue
        bounds = []
        for label, measured, relation, key, bound in entries:
            if key is not None:
                used.add(name + key)
                bound = overrides.get(name + key, bound)
                bound = bound * tol_multiplier if relation[0] == "<" else bound / tol_multiplier
            bounds.append((label, measured, relation, bound))
        results.append(CheckResult(name, bounds))
    unused = sorted(set(overrides) - used)
    if unused:
        raise ConfigError(f"[verify] {', '.join(unused)}: no check has a tolerance of that name")
    return results

"""Darboux transformations of polarized plane curves and the semi-discrete
curve flows they generate.

The package builds arc-length-preserving Darboux transforms of smooth plane
curves, propagates infinitesimal Darboux transformations of discrete polarized
curves, integrates isoperimetric motions whose potential satisfies the
semi-discrete potential mKdV equation, and verifies numerically that all three
constructions produce the same sheets.

The names below are the documented surface (see README.md); everything else
lives in the submodules.
"""

from .darboux import DarbouxParams, arclength_darboux, cross_ratio_defect, darboux_transform
from .equivalence import frameless_identity_check, iso_darboux_check, pipelines_agree
from .errors import (
    BlowupError,
    CoincidentPointsError,
    CurveError,
    GridTooShortError,
    NonRegularError,
    NotArclengthPolarizedError,
    SingularTangentError,
)
from .geometry import DiscretePolarizedCurve, PolarizedCurve, SGrid, Sheet, ngon_vertices
from .motion import integrate_motion
from .output import sheet_from_csv, write_csv, write_svg
from .semidiscrete import FlowSpec, infinitesimal_darboux
from .verification import Artifacts, CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "arclength_darboux",
    "Artifacts",
    "BlowupError",
    "CheckResult",
    "CoincidentPointsError",
    "cross_ratio_defect",
    "CurveError",
    "darboux_transform",
    "DarbouxParams",
    "DiscretePolarizedCurve",
    "FlowSpec",
    "frameless_identity_check",
    "GridTooShortError",
    "infinitesimal_darboux",
    "integrate_motion",
    "iso_darboux_check",
    "ngon_vertices",
    "NonRegularError",
    "NotArclengthPolarizedError",
    "pipelines_agree",
    "PolarizedCurve",
    "run_suite",
    "SGrid",
    "Sheet",
    "sheet_from_csv",
    "SingularTangentError",
    "write_csv",
    "write_svg",
]

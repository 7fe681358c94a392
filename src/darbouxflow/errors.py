"""Exception types shared across the package: scenario text, curves and flows, blow-ups."""

from contextlib import contextmanager


class ConfigError(ValueError):
    """A problem in the file's text: a missing or unread key, a value that does not
    parse or is out of range, an unknown command; the message names the key."""


class CurveError(ValueError):
    """Base class for invalid curve/grid/flow inputs."""


class GridTooShortError(CurveError):
    """Grid has too few nodes for the requested stencil or integration."""


class CoincidentPointsError(CurveError):
    """Two points that must stay apart have (nearly) collided."""


class SingularTangentError(CurveError):
    """A tangent vector is too close to zero to divide by."""


class NotArclengthPolarizedError(CurveError):
    """Polarization fails the arc-length condition 1/m = |x'|^2."""


class NonRegularError(CurveError):
    """A discrete curve has (nearly) collinear consecutive edges.

    Carries the offending vertex index in ``vertex``.
    """

    def __init__(self, message, vertex=None):
        super().__init__(message)
        self.vertex = vertex


class BlowupError(RuntimeError):
    """Integration went non-finite or lost track at grid ``index``, abscissa ``s``."""

    def __init__(self, message, index=None, s=None):
        super().__init__(message)
        self.index, self.s = index, s


@contextmanager
def labeled(label: str):
    """Prefix ``label: `` to a CurveError or BlowupError raised inside; the same
    object is re-raised, so its type and attributes (``BlowupError.index``) survive."""
    try:
        yield
    except (CurveError, BlowupError) as exc:
        exc.args = (f"{label}: {exc}",) + exc.args[1:]
        raise

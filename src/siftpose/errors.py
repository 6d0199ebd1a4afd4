"""Exception types shared across the toolkit."""


class SolverError(Exception):
    """Base class for model estimation failures."""


class DegenerateSampleError(SolverError):
    """The sample does not constrain the model (coincident/coplanar/collinear input)."""


class IllConditionedSampleError(SolverError):
    """An internal linear system is numerically rank-deficient."""


class NoValidFocalError(SolverError):
    """The semi-calibrated solver found no real solution with a positive focal length."""


class DegenerateConfigurationError(SolverError):
    """Pose disambiguation failed: no candidate places any point in front of both cameras."""


class PointAtInfinityError(ValueError):
    """Projective depth vanished; the mapped point is at infinity."""


class ParseError(ValueError):
    """Malformed input file."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:"
        if line is not None:
            where += f"{line}: "
        elif path is not None:
            where += " "
        super().__init__(where + message)

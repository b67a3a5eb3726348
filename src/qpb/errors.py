"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ToolkitError):
    """Invalid grid, suite, or operator configuration."""


class RepresentationError(ToolkitError):
    """Wavefunction carries the wrong representation tag for the requested operation."""


class IncompatibleOperandsError(ToolkitError):
    """Operands live on different grids or representations, or mix operator registers."""


class DegenerateStateError(ToolkitError):
    """The state has zero norm and cannot be normalized or measured."""


class PreconditionError(ToolkitError):
    """A documented operation precondition was violated (for example an unnormalized input)."""


class BoundaryContaminationError(ToolkitError):
    """Too much mass sits near the grid boundary for the periodic identity to be meaningful."""


class PhaseUndefinedError(ToolkitError):
    """Phase comparison requested where the magnitude vanishes."""


class ResourceBoundError(ToolkitError):
    """An operation or configuration would exceed a configured size, memory or combinatorial bound."""


class ProtectedRangeError(ToolkitError):
    """Requested basis index lies outside the protected block of a truncated system."""


class ExprSyntaxError(ToolkitError):
    """Parse failure, carrying the offending position and the expected token set."""

    def __init__(self, position: int, expected: set[str], found: str):
        self.position = position
        self.expected = frozenset(expected)
        self.found = found
        exp = ", ".join(sorted(expected))
        super().__init__(f"syntax error at position {position}: found {found!r}, expected one of: {exp}")

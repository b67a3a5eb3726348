"""Exception types shared across the toolkit.

`cli.main` catches `ToolkitError` and prints its message as one `error:`
line with exit status 2; nothing tells the subclasses apart. An input the
checks cannot run on (a bad grid, an unnormalized or boundary-contaminated
state, a wrong representation, an unknown operator letter, a value that
leaves the float range, a size above a memory or combinatorial cap) raises
`ConfigurationError`. `ExprSyntaxError` carries the parse position and the
expected token set for callers of the grammar.
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package; never raised itself."""


class ConfigurationError(ToolkitError):
    """An input or configuration that the requested operation cannot run on."""


class ExprSyntaxError(ToolkitError):
    """Parse failure, carrying the offending position and the expected token set."""

    def __init__(self, position: int, expected: set[str], found: str):
        self.position = position
        self.expected = frozenset(expected)
        self.found = found
        exp = ", ".join(sorted(expected))
        super().__init__(f"syntax error at position {position}: found {found!r}, expected one of: {exp}")

"""Exception types shared across the package.

The CLI maps these onto exit codes: input problems exit 2, refused work
(restriction or size guards) exits 3, and broken internal invariants
exit 4.
"""

from __future__ import annotations


class NapError(Exception):
    """Base class for every error raised by this package."""


class InputError(NapError):
    """The caller handed us something malformed (exit code 2)."""


class ParseError(InputError):
    """Syntax error in an instance or solution document.

    Carries a 1-based ``line`` and ``column`` when the position is known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(InputError):
    """Semantic problems with an instance. Collects every violation found."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid instance: " + "; ".join(problems))
        self.problems = list(problems)


class ParameterError(InputError):
    """Algorithm parameters out of range (epsilon, n, h, and friends)."""


class RestrictionError(NapError):
    """The instance violates a solver's restriction (exit code 3)."""


class SizeLimitError(NapError):
    """The instance is too large for the method asked for (exit code 3)."""


class InternalError(NapError):
    """An internal invariant failed; this is a bug, not a user error (exit 4)."""

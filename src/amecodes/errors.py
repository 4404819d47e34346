"""Exception types shared across the package.

The CLI maps these onto exit codes: domain/usage problems exit 2,
exceeded resource budgets exit 3.  A *negative verification verdict*
(a table that fails a check) is a regular return value, not an
exception.
"""


class AmecodesError(Exception):
    """Base class for all package-specific errors."""


class DomainError(AmecodesError, ValueError):
    """Invalid argument or precondition violation."""


class ParseError(DomainError):
    """Malformed input file; carries file name and line number."""

    def __init__(self, message, filename=None, line=None):
        self.filename = filename or "<string>"
        self.line = line
        super().__init__(f"{self.filename}:{line}: {message}" if line else message)


class ReductionError(DomainError):
    """Canonicalization cannot proceed (e.g. no independent pivot on a site)."""


class ResourceBudgetError(AmecodesError):
    """Requested computation exceeds the configured budget."""

"""Exception types shared across the package.

The command line maps these onto exit codes: input problems exit 2,
exhausted budgets exit 3, violated internal invariants exit 4.
"""


class FqlabError(Exception):
    """Base class for all package-specific errors."""


class InputSyntaxError(FqlabError):
    """Malformed user input (presentation text, catalog lines, flags)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{message} ({where})"
        super().__init__(message)


class ResourceBudgetError(FqlabError):
    """A request would exceed the configured memory budget."""


class SearchBudgetError(FqlabError):
    """Backtracking subgroup search exceeded its node budget."""


class GroupTooLargeError(FqlabError):
    """Exhaustive closure exceeded the element cap."""


class InternalInvariantError(FqlabError):
    """A condition the code guarantees internally failed; indicates a bug."""

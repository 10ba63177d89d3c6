"""Exception types shared across the library.

The CLI maps these onto exit codes by type alone, in `cli.main`:
`GraphFormatError` and `UsageError` exit 2, as does `OSError`, and any other
`PreconditionError` exits 3.
"""

__all__ = [
    "GraphFormatError",
    "PreconditionError",
]


class GraphFormatError(ValueError):
    """Malformed edge-list or weight-file input."""


class PreconditionError(ValueError):
    """An operation was called outside its documented domain."""


class UsageError(PreconditionError):
    """A generator or bound formula was given parameters outside its own rules."""

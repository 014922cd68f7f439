"""Exception taxonomy shared across the package, and the one reader of a
JSON integer, which every input file and config goes through.

The CLI maps these onto exit codes: verification failures exit 1, input
problems exit 2, resource caps exit 3.
"""


class FinvariantError(Exception):
    """Base class for all package errors."""


class InputError(FinvariantError):
    """Malformed or inconsistent input data."""


class WeightError(InputError):
    """A weight fails the balance/normalization invariants."""


class WindowError(InputError):
    """An operation ran out of finite window to evaluate on."""


class ConstructionError(InputError):
    """A requested object cannot be built; carries a certificate message."""


class VerificationError(FinvariantError):
    """A property or precondition that should hold was violated."""


class PreconditionError(VerificationError):
    """An operation's precondition failed; names the offending site."""

    def __init__(self, message: str, vertex: int | None = None):
        super().__init__(message)
        self.vertex = vertex


class ResourceCapError(FinvariantError):
    """A configured size cap would be exceeded."""


def as_int(raw, what: str) -> int:
    """A JSON integer read from input; ``what`` names its key."""
    # int() would truncate 3.7 and read "3" or true; only a JSON integer passes
    if type(raw) is not int:
        raise InputError(f"{what} must be an integer, got {raw!r}")
    return raw

"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: usage errors exit 2, resource
errors exit 3, protocol errors and failed checks exit 1.
"""

from __future__ import annotations


class UsageError(ValueError):
    """Caller passed something malformed: bad arity, bad index, bad config."""


class ResourceError(RuntimeError):
    """A size cap would be exceeded (dense objects above the qubit cap)."""


class ProtocolError(RuntimeError):
    """The scheme's rules forbid the requested step (budget, measurement)."""


class UnsupportedGateError(ProtocolError):
    """No column-local realization of the requested logical gate exists
    at this column parity."""

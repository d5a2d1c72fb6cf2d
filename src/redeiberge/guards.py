"""Size guards for the exponential-cost operations.

Every expensive entry point declares a named bound and calls guard()
before doing any work.
"""

from __future__ import annotations


class GuardError(ValueError):
    """Raised when an input exceeds an operation's declared size bound."""


class DisagreementError(RuntimeError):
    """Raised when two routes that must agree produce different values."""


def guard(name: str, value: int, bound: int) -> None:
    """Check value <= bound for the named operation, else raise GuardError."""
    if value > bound:
        raise GuardError(f"{name}: size {value} exceeds bound {bound}")

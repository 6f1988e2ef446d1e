"""Shared exception types."""


class NotCoprime(ValueError):
    """The two generators share a common factor, so the gap set is infinite."""


class DomainError(ValueError):
    """An argument lies outside the validity range of a bound."""


class LimitExceeded(RuntimeError):
    """A computation would exceed a configured resource cap."""


class CheckpointCorrupt(RuntimeError):
    """A checkpoint log contains a complete but invalid line."""


class MethodDisagreement(RuntimeError):
    """Two independent counting methods give different counts for one pair."""

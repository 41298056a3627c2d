"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single except clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Raised for misuse of the simulation kernel (e.g. time travel)."""


class NetworkError(ReproError):
    """Raised for network-substrate misuse (unknown address, bad model)."""


class StorageError(ReproError):
    """Raised when stable storage is used incorrectly."""


class ConsensusError(ReproError):
    """Base class for consensus-layer errors."""


class LogError(ConsensusError):
    """Raised for invalid replicated-log operations."""


class ConfigurationError(ConsensusError):
    """Raised for invalid membership configurations."""


class InvariantViolation(ReproError):
    """Raised by safety checkers when a protocol invariant is broken."""


class ExperimentError(ReproError):
    """Raised by the experiment harness for bad experiment parameters."""


class ModelCheckError(ReproError):
    """Raised by the model checker for invalid exploration requests
    (unknown target, unreplayable schedule)."""

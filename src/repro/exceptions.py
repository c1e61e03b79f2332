"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ShapeError(ReproError):
    """An array argument had an incompatible shape."""


class NotFittedError(ReproError):
    """A model method requiring training was called before training."""


class ConfigurationError(ReproError):
    """A component was configured with inconsistent or invalid options."""


class SerializationError(ReproError):
    """Saving or loading model state failed."""


class ModelIntegrityError(SerializationError):
    """A stored model artifact does not match its manifest digest."""


class StreamingError(ReproError):
    """Base class for data-collection framework errors."""


class AgentError(StreamingError):
    """A collection agent failed to poll or transmit."""


class ControllerError(StreamingError):
    """The centralized controller received inconsistent input."""


class TransportError(StreamingError):
    """A simulated communication channel rejected a message."""


class ReliabilityError(StreamingError):
    """The reliable-transport layer could not honour a delivery guarantee."""


class HealthError(StreamingError):
    """Agent or sensor health supervision detected an unrecoverable fault."""


class ServingError(ReproError):
    """The inference-serving subsystem was asked for something impossible."""


class ShardUnavailableError(ServingError):
    """A serving shard is dead or unreachable (simulated connection refused)."""


class ShardTimeoutError(ServingError):
    """A serving shard accepted a call but never answered (hung executor)."""


class JournalError(ServingError):
    """The durable verdict journal is unusable (corrupt header, bad path)."""


class EdgeError(ReproError):
    """Base class for edge-agent runtime errors."""


class SpoolError(EdgeError):
    """The on-device store-and-forward spool is unusable."""


class OtaError(EdgeError):
    """An over-the-air model rollout step failed (bad manifest, bad bytes)."""

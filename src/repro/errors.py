"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one type to handle any
library-level failure while letting programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised for structurally invalid graphs or graph operations."""


class GraphFormatError(GraphError):
    """Raised when parsing an on-disk graph representation fails."""


class PartitionError(ReproError):
    """Raised when a vertex-cut partitioning is invalid or inconsistent."""


class EngineError(ReproError):
    """Raised for misuse of the simulated cluster engine."""


class ConfigError(ReproError):
    """Raised when an algorithm configuration fails validation."""


class ExperimentError(ReproError):
    """Raised when an experiment description cannot be executed."""


class WorkerCrashError(EngineError):
    """Raised when one shard worker process fails at the OS level.

    Covers the three ways a real worker stops answering: the process
    died (SIGKILL, OOM, segfault), it went silent past the backend's
    per-operation deadline, or its pipes broke.  Carries the ``shard``
    id, the ``epoch`` the worker was serving and a short machine-
    readable ``cause`` (``"died"``, ``"timeout"``, ``"pipe"``,
    ``"respawn"``) so the pool's failure policies can branch without
    parsing the message.
    """

    def __init__(
        self,
        message: str,
        shard: int = -1,
        epoch: int = -1,
        cause: str = "died",
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.epoch = epoch
        self.cause = cause


class ShardFailure(EngineError):
    """Raised when a batch loses one or more shards' frog slices.

    The fail-soft process backend raises this under
    ``on_shard_failure="fail"`` (or when *every* shard is lost) after
    the pool has already been restored — the error reports the loss,
    it never implies a wedged backend.  ``shard``/``epoch``/``cause``
    describe the first failure; ``lost_frogs`` is the total frog share
    the batch would have run on the dead shards.
    """

    def __init__(
        self,
        message: str,
        shard: int = -1,
        epoch: int = -1,
        cause: str = "died",
        lost_frogs: int = 0,
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.epoch = epoch
        self.cause = cause
        self.lost_frogs = lost_frogs


class OverloadError(ReproError):
    """Raised when admission control sheds a query instead of queueing it.

    Carries the queue ``depth`` observed at the admission decision and
    the ``limit`` it exceeded, so callers can reason about how
    overloaded the service was instead of parsing a message.
    """

    def __init__(self, message: str, depth: int = 0, limit: int = 0) -> None:
        super().__init__(message)
        self.depth = depth
        self.limit = limit

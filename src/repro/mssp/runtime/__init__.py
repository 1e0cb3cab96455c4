"""The unified MSSP runtime core.

One episode state machine (:class:`~repro.mssp.runtime.pipeline.TaskPipeline`),
pluggable slave-execution backends
(:mod:`~repro.mssp.runtime.executors`: inline / process), and a
structured event seam (:mod:`~repro.mssp.runtime.events`).
:class:`repro.mssp.engine.MsspEngine` is a thin layer over this
package.
"""

from repro.mssp.runtime.events import (
    ChunkDispatched,
    EpisodeAccepted,
    EpisodeCompleted,
    EpisodeDispatched,
    EpisodeShed,
    EventBus,
    EventLog,
    MasterFailed,
    PoolDegraded,
    RecoveryRun,
    ResultAdopted,
    RuntimeEvent,
    TaskCommitted,
    TaskExecuted,
    TaskForked,
    TaskSquashed,
)
from repro.mssp.runtime.executors import (
    RUNTIME_CHOICES,
    InlineExecutor,
    ProcessExecutor,
    SlaveExecutor,
    create_executor,
    resolve_runtime,
)
from repro.mssp.runtime.pipeline import TaskPipeline

__all__ = [
    "RuntimeEvent",
    "TaskForked",
    "ChunkDispatched",
    "TaskExecuted",
    "ResultAdopted",
    "TaskCommitted",
    "TaskSquashed",
    "MasterFailed",
    "RecoveryRun",
    "PoolDegraded",
    "EpisodeAccepted",
    "EpisodeDispatched",
    "EpisodeCompleted",
    "EpisodeShed",
    "EventBus",
    "EventLog",
    "SlaveExecutor",
    "InlineExecutor",
    "ProcessExecutor",
    "create_executor",
    "resolve_runtime",
    "RUNTIME_CHOICES",
    "TaskPipeline",
]

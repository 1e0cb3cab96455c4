"""The MSSP machine: master, slaves, verify/commit, and the engine.

This package is the functional model of the paper's machine.  The
architectural contract it exports — and that the test suite enforces
property-style — is: for *any* original program and *any* distilled
program + pc map (however wrong), the engine's final architected state
equals sequential execution of the original program.
"""

from repro.mssp.engine import MsspEngine, MsspResult, create_engine, run_mssp
from repro.mssp.master import Master, MasterEvent, MasterEventKind
from repro.mssp.regions import DeviceAccess, ProtectedRegions
from repro.mssp.runtime import (
    EventBus,
    EventLog,
    InlineExecutor,
    ProcessExecutor,
    RuntimeEvent,
    SlaveExecutor,
    TaskPipeline,
    resolve_runtime,
)
from repro.mssp.slave import SlaveView, execute_task
from repro.mssp.task import Checkpoint, SquashReason, Task, TaskStatus
from repro.mssp.trace import (
    DispatchStats,
    MasterFailureRecord,
    MsspCounters,
    RecoveryRecord,
    TaskAttemptRecord,
    TraceRecorder,
)
from repro.mssp.verify import VerifyOutcome, commit_task, squash_task, verify_task

__all__ = [
    "MsspEngine",
    "MsspResult",
    "DispatchStats",
    "TraceRecorder",
    "create_engine",
    "run_mssp",
    "RuntimeEvent",
    "EventBus",
    "EventLog",
    "SlaveExecutor",
    "InlineExecutor",
    "ProcessExecutor",
    "TaskPipeline",
    "resolve_runtime",
    "Master",
    "MasterEvent",
    "MasterEventKind",
    "DeviceAccess",
    "ProtectedRegions",
    "SlaveView",
    "execute_task",
    "Checkpoint",
    "SquashReason",
    "Task",
    "TaskStatus",
    "MasterFailureRecord",
    "MsspCounters",
    "RecoveryRecord",
    "TaskAttemptRecord",
    "VerifyOutcome",
    "commit_task",
    "squash_task",
    "verify_task",
]

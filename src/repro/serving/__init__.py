"""Multi-tenant inference serving for the trained DarNet ensemble.

Turns whole-dataset ``predict()`` calls into a continuously running
service: per-driver sessions absorb raw IMU readings and frames, a
micro-batching scheduler coalesces many sessions' verdict requests into
single vectorized forward passes, a model registry routes each session to
the variant matching its privacy level (with lazy loading and hot swap),
and admission control keeps the whole thing bounded under overload.

The resilience layer makes the tier survive its own infrastructure: a
shard supervisor runs N servers behind a consistent-hash router with
heartbeat watchdogs, exponential-backoff restarts and checkpoint-based
session migration; a durable verdict journal (append-only, CRC-framed,
fsync-batched) plus a store-and-forward sink guarantee every admitted
(driver, window) is delivered exactly once or journaled as deferred; and
a serving chaos drive proves all of it under scripted shard kills,
executor hangs, sink blackholes and full disks.
"""

from repro.exceptions import (
    JournalError,
    ServingError,
    ShardTimeoutError,
    ShardUnavailableError,
)
from repro.serving.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionStats,
)
from repro.serving.chaos import (
    ServingChaosReport,
    run_serving_chaos,
    standard_serving_schedule,
)
from repro.serving.checkpoint import (
    CheckpointStore,
    SessionCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.serving.journal import (
    StoreAndForwardSink,
    VerdictJournal,
    VerdictRecord,
    audit_ledger,
    replay_journal,
)
from repro.serving.registry import ModelRecord, ServingModelRegistry
from repro.serving.replay import (
    DriverTrace,
    ReplayReport,
    replay_concurrent_drives,
)
from repro.serving.scheduler import (
    MODALITY_BOTH,
    MODALITY_FRAMES,
    MODALITY_IMU,
    InferenceRequest,
    MicroBatch,
    MicroBatchScheduler,
    SchedulerStats,
)
from repro.serving.server import InferenceServer, ServerStats, ServingVerdict
from repro.serving.sessions import (
    ALERT_ADJACENT_BOOST,
    DEGRADED_BOOST,
    IMU_FEATURES,
    DriverSession,
    SessionCounters,
    StreamState,
)
from repro.serving.supervisor import (
    HashRing,
    MigrationEvent,
    ShardHandle,
    ShardSupervisor,
)

__all__ = [
    "ServingError", "ShardUnavailableError", "ShardTimeoutError",
    "JournalError",
    "DriverSession", "SessionCounters", "StreamState", "IMU_FEATURES",
    "ALERT_ADJACENT_BOOST", "DEGRADED_BOOST",
    "InferenceRequest", "MicroBatch", "MicroBatchScheduler",
    "SchedulerStats", "MODALITY_BOTH", "MODALITY_IMU", "MODALITY_FRAMES",
    "ServingModelRegistry", "ModelRecord",
    "AdmissionController", "AdmissionDecision", "AdmissionStats",
    "InferenceServer", "ServerStats", "ServingVerdict",
    "ReplayReport", "DriverTrace", "replay_concurrent_drives",
    "VerdictJournal", "VerdictRecord", "replay_journal",
    "StoreAndForwardSink", "audit_ledger",
    "SessionCheckpoint", "CheckpointStore", "save_checkpoint",
    "load_checkpoint",
    "ShardSupervisor", "ShardHandle", "HashRing", "MigrationEvent",
    "ServingChaosReport", "run_serving_chaos",
    "standard_serving_schedule",
]

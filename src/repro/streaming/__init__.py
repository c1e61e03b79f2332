"""DarNet's data-collection framework as a discrete-event simulation.

Collection agents embedded in IoT devices poll sensors on drifting local
clocks and stream batches over lossy channels to a centralized controller,
which re-orders, interpolates, smooths, clock-synchronizes, and persists
the data — the middleware half of the paper.
"""

from repro.exceptions import HealthError, ReliabilityError, StreamingError
from repro.streaming.clock import DriftingClock, VirtualClock
from repro.streaming.records import (
    FrameRecord,
    Message,
    SensorReading,
    SyncMessage,
    payload_size,
)
from repro.streaming.transport import Channel, ChannelStats
from repro.streaming.sensors import (
    CameraSensor,
    SyntheticSensor,
    accelerometer,
    gravity,
    gyroscope,
    rotation,
)
from repro.streaming.agent import CollectionAgent, scripted_labeller
from repro.streaming.sync import DEFAULT_SYNC_INTERVAL, ClockSynchronizer
from repro.streaming.normalization import (
    SlidingMovingAverage,
    align_streams,
    interpolate_to_grid,
    make_grid,
)
from repro.streaming.tsdb import Point, TimeSeriesDatabase
from repro.streaming.controller import (
    CentralizedController,
    NetworkConditions,
    ProcessingLocation,
    ProcessingPolicy,
    decide_processing,
)
from repro.streaming.reliability import (
    Ack,
    PayloadClass,
    ReceiverStats,
    ReliablePacket,
    ReliableReceiver,
    ReliableSender,
    SenderStats,
    classify_payload,
    reliable_link,
)
from repro.streaming.health import (
    AgentLiveness,
    Heartbeat,
    HealthRegistry,
    HealthState,
    SensorFaultDetector,
)
from repro.streaming.runtime import (
    PRIVACY_LADDER,
    BreakerState,
    ComputeProfile,
    LocalRuntime,
    PlacementCircuitBreaker,
    PrivacyEscalator,
    RemoteRuntime,
    VerdictTiming,
    choose_runtime,
    frame_payload_bytes,
    placement_sweep,
)
from repro.streaming.persistence import (
    load_readings_jsonl,
    load_tsdb,
    save_readings_jsonl,
    save_tsdb,
)
from repro.streaming.pipeline import (
    PHONE_SENSORS,
    CollectionSession,
    SessionConfig,
    SessionResult,
)
from repro.streaming.faults import (
    FAULT_KINDS,
    ChaosDriveReport,
    ChaosHarness,
    FaultEvent,
    FaultSchedule,
    FaultableSensor,
    Lever,
    WindowHealth,
    channel_blackhole,
    run_chaos_drive,
    standard_chaos_schedule,
)

__all__ = [
    "VirtualClock", "DriftingClock", "SensorReading", "FrameRecord",
    "SyncMessage", "Message", "payload_size", "Channel", "ChannelStats",
    "SyntheticSensor", "CameraSensor", "accelerometer", "gyroscope",
    "gravity", "rotation", "CollectionAgent", "scripted_labeller",
    "ClockSynchronizer", "DEFAULT_SYNC_INTERVAL", "SlidingMovingAverage",
    "align_streams", "interpolate_to_grid", "make_grid", "TimeSeriesDatabase",
    "Point", "CentralizedController", "ProcessingLocation",
    "NetworkConditions", "ProcessingPolicy", "decide_processing",
    "CollectionSession", "SessionConfig", "SessionResult", "PHONE_SENSORS",
    "ComputeProfile", "LocalRuntime", "RemoteRuntime", "VerdictTiming",
    "choose_runtime", "frame_payload_bytes", "placement_sweep",
    "save_readings_jsonl", "load_readings_jsonl", "save_tsdb", "load_tsdb",
    # fault-tolerance layer
    "StreamingError", "ReliabilityError", "HealthError",
    "ReliableSender", "ReliableReceiver", "ReliablePacket", "Ack",
    "SenderStats", "ReceiverStats", "PayloadClass", "classify_payload",
    "reliable_link",
    "HealthState", "Heartbeat", "HealthRegistry", "AgentLiveness",
    "SensorFaultDetector",
    "PlacementCircuitBreaker", "BreakerState", "PrivacyEscalator",
    "PRIVACY_LADDER",
    "FaultEvent", "FaultSchedule", "FaultableSensor", "ChaosHarness",
    "Lever", "channel_blackhole", "ChaosDriveReport", "WindowHealth",
    "run_chaos_drive", "standard_chaos_schedule", "FAULT_KINDS",
]

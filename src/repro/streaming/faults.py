"""Deterministic chaos harness: scripted fault schedules over virtual time.

Fault tolerance that is only exercised by accident is not exercised at
all.  This module drives the whole supervision stack — reliable
transport, health registry, placement circuit breaker, adaptive privacy
escalation — under a *scripted* :class:`FaultSchedule` evaluated against
the simulation's virtual clock, so every chaos run is reproducible from
a seed.  :func:`run_chaos_drive` packages the canonical scenario (total
blackout + dashcam death + stuck sensor in one drive) behind a single
call used by the integration tests and the ``repro chaos`` CLI command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError
from repro.streaming.agent import CollectionAgent
from repro.streaming.clock import DriftingClock, VirtualClock
from repro.streaming.controller import CentralizedController
from repro.streaming.health import HealthRegistry, HealthState
from repro.streaming.reliability import reliable_link
from repro.streaming.runtime import PlacementCircuitBreaker, PrivacyEscalator
from repro.streaming.sensors import (
    CameraSensor,
    accelerometer,
    gravity,
    gyroscope,
    rotation,
)
from repro.streaming.transport import Channel

#: Fault kinds a schedule may contain.  The first five target the
#: streaming stack (:class:`ChaosHarness`); the serving kinds target the
#: shard fleet and are interpreted by
#: :class:`repro.serving.chaos.ServingChaosHarness`; the edge kinds
#: target the device runtime and are interpreted by
#: :class:`repro.edge.chaos.EdgeChaosHarness` — ``uplink_blackhole``
#: severs an agent's uplink both ways, ``ota_corrupt_artifact`` flips
#: bytes in every artifact the OTA server serves, and
#: ``ota_download_kill`` kills the updater process mid-download (the
#: resumed download must continue from its persisted partial files).
#: The camera kinds are scenario-native: scheduled by the scenario DSL's
#: environment track and baked into compiled traces — ``camera_covered``
#: replaces frames with occluded-lens renders (the server keeps getting
#: frames and should *classify* the condition), ``camera_blackout``
#: suppresses frame ingestion (the server must degrade to IMU-only).
FAULT_KINDS = ("blackout", "agent_silence", "sensor_stuck",
               "sensor_dropout", "sensor_spike",
               "shard_kill", "executor_hang", "sink_blackhole",
               "journal_disk_full",
               "uplink_blackhole", "ota_corrupt_artifact",
               "ota_download_kill",
               "camera_covered", "camera_blackout")

_SENSOR_MODES = {"sensor_stuck": "stuck", "sensor_dropout": "dropout",
                 "sensor_spike": "spike"}


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault: ``kind`` applies to ``target`` over [start, end).

    ``target`` is a channel name for blackouts, an agent id for silences,
    an ``agent/sensor`` stream for sensor faults, or ``"*"`` to hit every
    matching component.  ``magnitude`` parameterizes spike faults.
    """

    start: float
    end: float
    kind: str
    target: str
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        if self.start < 0 or self.end <= self.start:
            raise ConfigurationError(
                f"need 0 <= start < end, got [{self.start}, {self.end})")

    def matches(self, target: str) -> bool:
        """Whether this event applies to a concrete component name."""
        return self.target == "*" or self.target == target

    def active(self, now: float) -> bool:
        """Whether the event is live at virtual time ``now``."""
        return self.start <= now < self.end


class FaultSchedule:
    """An ordered, immutable script of :class:`FaultEvent`\\ s."""

    def __init__(self, events) -> None:
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.start, e.end, e.kind, e.target)))

    def active(self, now: float) -> list[FaultEvent]:
        """Every event live at ``now``."""
        return [event for event in self.events if event.active(now)]

    def active_for(self, kind: str, target: str,
                   now: float) -> FaultEvent | None:
        """The live event of ``kind`` hitting ``target``, if any."""
        for event in self.events:
            if event.kind == kind and event.matches(target) \
                    and event.active(now):
                return event
        return None

    @property
    def horizon(self) -> float:
        """Latest finite event end (0.0 for an empty schedule)."""
        ends = [e.end for e in self.events if math.isfinite(e.end)]
        return max(ends, default=0.0)


class FaultableSensor:
    """Chaos wrapper giving any sensor injectable fault modes.

    Modes: ``None`` (pass-through), ``"stuck"`` (repeats the first sample
    taken under the fault), ``"dropout"`` (produces no reading), and
    ``"spike"`` (adds ``magnitude`` to every axis).
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.dimension = inner.dimension
        self.mode: str | None = None
        self.magnitude = 0.0
        self._stuck_value: np.ndarray | None = None

    def set_mode(self, mode: str | None, magnitude: float = 0.0) -> None:
        """Switch the active fault mode."""
        if mode not in (None, "stuck", "dropout", "spike"):
            raise ConfigurationError(f"unknown sensor fault mode {mode!r}")
        if mode != "stuck":
            self._stuck_value = None
        self.mode = mode
        self.magnitude = float(magnitude)

    def sample(self, true_time: float):
        """Sample the wrapped sensor through the active fault."""
        if self.mode == "dropout":
            return None
        if self.mode == "stuck":
            if self._stuck_value is None:
                self._stuck_value = np.asarray(self.inner.sample(true_time))
            return self._stuck_value
        value = self.inner.sample(true_time)
        if self.mode == "spike":
            return np.asarray(value) + self.magnitude
        return value


class ChaosHarness:
    """Applies a :class:`FaultSchedule` to live components every step.

    Args:
        schedule: the fault script.
        channels: channel name -> :class:`Channel` (blackout targets).
        agents: agent id -> :class:`CollectionAgent` (silence targets).
        sensors: ``agent/sensor`` stream -> :class:`FaultableSensor`.
    """

    def __init__(self, schedule: FaultSchedule, *,
                 channels: dict[str, Channel] | None = None,
                 agents: dict[str, CollectionAgent] | None = None,
                 sensors: dict[str, FaultableSensor] | None = None) -> None:
        self.schedule = schedule
        self.channels = dict(channels or {})
        self.agents = dict(agents or {})
        self.sensors = dict(sensors or {})
        self._saved_drop: dict[str, float] = {}
        self._suspended: set[str] = set()
        self.log: list[tuple[float, str, str, str]] = []

    def apply(self, now: float) -> None:
        """Reconcile every component with the schedule at ``now``."""
        for name, channel in self.channels.items():
            active = self.schedule.active_for("blackout", name, now)
            if active is not None and name not in self._saved_drop:
                self._saved_drop[name] = channel.drop_probability
                channel.drop_probability = 1.0
                self.log.append((now, "blackout", name, "on"))
            elif active is None and name in self._saved_drop:
                channel.drop_probability = self._saved_drop.pop(name)
                self.log.append((now, "blackout", name, "off"))
        for agent_id, agent in self.agents.items():
            active = self.schedule.active_for("agent_silence", agent_id, now)
            if active is not None and agent_id not in self._suspended:
                agent.suspended = True
                self._suspended.add(agent_id)
                self.log.append((now, "agent_silence", agent_id, "on"))
            elif active is None and agent_id in self._suspended:
                agent.suspended = False
                agent.fast_forward(now)
                self._suspended.remove(agent_id)
                self.log.append((now, "agent_silence", agent_id, "off"))
        for stream, sensor in self.sensors.items():
            mode, magnitude = None, 0.0
            for kind, sensor_mode in _SENSOR_MODES.items():
                event = self.schedule.active_for(kind, stream, now)
                if event is not None:
                    mode, magnitude = sensor_mode, event.magnitude
                    break
            if sensor.mode != mode:
                self.log.append((now, f"sensor_{mode or 'clear'}",
                                 stream, "on" if mode else "off"))
            sensor.set_mode(mode, magnitude)


def standard_chaos_schedule(duration: float = 30.0) -> FaultSchedule:
    """The canonical robustness scenario for a ``duration``-second drive:
    a 3 s total blackout, the dashcam dying mid-drive, and a stuck
    gyroscope — all three fault classes in one script."""
    return FaultSchedule([
        FaultEvent(8.0, 11.0, "blackout", "*"),
        FaultEvent(duration / 2.0, math.inf, "agent_silence", "dashcam"),
        FaultEvent(5.0, 20.0, "sensor_stuck", "phone/gyroscope"),
    ])


@dataclass
class WindowHealth:
    """Per-analysis-window stream availability after a chaos drive."""

    start: float
    end: float
    imu_readings: int
    frames: int

    @property
    def has_imu(self) -> bool:
        return self.imu_readings > 0

    @property
    def has_frames(self) -> bool:
        return self.frames > 0

    @property
    def degraded(self) -> bool:
        """Whether a verdict for this window must run on partial input."""
        return not (self.has_imu and self.has_frames)

    @property
    def missing(self) -> tuple[str, ...]:
        """Which modalities are absent (``"imu"`` / ``"frames"``)."""
        out = []
        if not self.has_imu:
            out.append("imu")
        if not self.has_frames:
            out.append("frames")
        return tuple(out)


@dataclass
class ChaosDriveReport:
    """Everything :func:`run_chaos_drive` measured."""

    duration: float
    imu_taken: int
    imu_arrived: int
    frames_taken: int
    frames_arrived: int
    readings_quarantined: int
    windows: list[WindowHealth]
    health: dict
    agent_states: dict[str, HealthState]
    agent_transitions: dict[str, list]
    breaker_transitions: list
    breaker_location: str
    privacy_escalations: int
    privacy_relaxations: int
    final_privacy_level: str | None
    phone_sender_stats: object
    dashcam_sender_stats: object
    first_escalation_at: float | None = None
    first_shed_at: float | None = None
    harness_log: list = field(default_factory=list)

    @property
    def imu_delivery_ratio(self) -> float:
        """Fraction of polled IMU tuples that reached the controller."""
        if not self.imu_taken:
            return 0.0
        return self.imu_arrived / self.imu_taken

    @property
    def degraded_windows(self) -> int:
        return sum(1 for w in self.windows if w.degraded)

    @property
    def violations(self) -> list[str]:
        """Invariant breaches that should fail a chaos run.

        The streaming stack's contract under chaos is *degradation, not
        darkness*: any single fault may cost a modality, but no analysis
        window may end up with neither IMU nor frames — that would mean
        the retransmission/recovery machinery lost a window entirely.
        """
        out = []
        for window in self.windows:
            if not window.has_imu and not window.has_frames:
                out.append(
                    f"window [{window.start:.1f}, {window.end:.1f}) fully "
                    "dark: no modality was delivered")
        return out


def run_chaos_drive(schedule: FaultSchedule | None = None, *,
                    duration: float = 30.0, seed: int = 0,
                    window_period: float = 1.0, frame_edge: int = 32,
                    settle: float = 3.0, step: float = 0.01,
                    probe_interval: float = 0.25) -> ChaosDriveReport:
    """Run the full supervised stack through a scripted chaos drive.

    Builds a phone (4 IMU sensors, reliable uplink, heartbeats), a
    dashcam (camera, reliable bandwidth-limited uplink, adaptive privacy
    distortion), a health-supervised controller, and a placement circuit
    breaker probing the uplink — then executes ``schedule`` against all
    of it and reports recovery quality.
    """
    if schedule is None:
        schedule = standard_chaos_schedule(duration)
    if duration <= 0 or step <= 0 or window_period <= 0:
        raise ConfigurationError(
            "duration, step and window_period must be positive")
    # Lazy import: repro.core depends on repro.streaming, not vice versa.
    from repro.core.privacy import DistortionModule, PrivacyLevel

    rng = np.random.default_rng(seed)
    true_clock = VirtualClock()
    phone_clock = DriftingClock(true_clock, drift_ppm=60.0)
    dashcam_clock = DriftingClock(true_clock, drift_ppm=-40.0)

    phone_sender, phone_receiver = reliable_link(
        "phone", base_latency=0.008, jitter=0.002, drop_probability=0.02,
        rng=rng, buffer_limit=256)
    dashcam_sender, dashcam_receiver = reliable_link(
        "dashcam", base_latency=0.008, jitter=0.002, drop_probability=0.02,
        bandwidth_bps=4_000_000.0, rng=rng, buffer_limit=12)
    probe_channel = Channel("probe", base_latency=0.01, rng=rng)

    sensors = {
        "phone/accelerometer": FaultableSensor(
            accelerometer(lambda t: np.array([np.sin(t), np.cos(t), 9.81]),
                          rng=rng)),
        "phone/gyroscope": FaultableSensor(
            gyroscope(lambda t: np.array([0.1 * np.sin(2 * t), 0.0, 0.02]),
                      rng=rng)),
        "phone/gravity": FaultableSensor(
            gravity(lambda t: np.array([0.0, 0.0, 9.81]), rng=rng)),
        "phone/rotation": FaultableSensor(
            rotation(lambda t: np.array([0.0, 0.05 * np.sin(t), 0.0]),
                     rng=rng)),
    }

    def frame_fn(t: float) -> np.ndarray:
        image = rng.random((frame_edge, frame_edge)).astype(np.float32)
        image[:, int(t) % frame_edge] = 1.0
        return image

    camera = FaultableSensor(CameraSensor(frame_fn))
    sensors_cam = {"dashcam/camera": camera}

    distortion = DistortionModule(None)
    escalator = PrivacyEscalator(escalate_above=0.5, relax_below=0.2,
                                 dwell=1.0)

    phone = CollectionAgent(
        "phone", [sensors[f"phone/{n}"] for n in
                  ("accelerometer", "gyroscope", "gravity", "rotation")],
        phone_clock, phone_sender, poll_interval=0.025,
        transmit_interval=0.25, heartbeats=True)
    dashcam = CollectionAgent(
        "dashcam", [camera], dashcam_clock, dashcam_sender,
        poll_interval=0.2, transmit_interval=0.25, heartbeats=True,
        frame_transform=distortion.distort_frame)

    health = HealthRegistry(degraded_after=1.0, silent_after=3.0)
    controller = CentralizedController(true_clock, grid_period=0.25,
                                       health=health)
    controller.register_agent(phone, phone_receiver)
    controller.register_agent(dashcam, dashcam_receiver)

    breaker = PlacementCircuitBreaker(failure_threshold=3,
                                      recovery_timeout=2.0,
                                      success_threshold=2)

    harness = ChaosHarness(
        schedule,
        channels={"phone-data": phone_sender.data,
                  "phone-ack": phone_sender.ack,
                  "dashcam-data": dashcam_sender.data,
                  "dashcam-ack": dashcam_sender.ack,
                  "probe": probe_channel},
        agents={"phone": phone, "dashcam": dashcam},
        sensors={**sensors, **sensors_cam})

    first_escalation_at: float | None = None
    first_shed_at: float | None = None
    next_probe = 0.0
    steps = int(np.ceil(duration / step))
    for _ in range(steps):
        now = true_clock.advance(step)
        harness.apply(now)
        phone.step(now)
        dashcam.step(now)
        controller.step(now)
        # Placement supervision: probe the uplink path when admitted.
        if now >= next_probe:
            next_probe += probe_interval
            if breaker.allow_remote(now):
                ok = probe_channel.send("controller", "server",
                                        b"probe", now) is not None
                probe_channel.poll(now + 1.0)  # probes never accumulate
                if ok:
                    breaker.record_success(now)
                else:
                    breaker.record_failure(now)
        # Bandwidth supervision: escalate distortion under send pressure.
        level = escalator.update(dashcam_sender.pressure, now)
        distortion.level = PrivacyLevel(level) if level else None
        if first_escalation_at is None and escalator.escalations:
            first_escalation_at = now
        if first_shed_at is None and dashcam_sender.stats.shed_frames:
            first_shed_at = now
    # Liveness is judged at end-of-drive: during the settle drain below
    # every agent legitimately stops transmitting, which must not read
    # as the whole fleet going silent.
    drive_end_states = health.states()
    drive_end_transitions = {aid: health.transitions(aid)
                             for aid in ("phone", "dashcam")}
    # Settle: keep transport and controller running so retransmissions
    # land, but take no new samples (mirrors CollectionSession.run).  A
    # suspended agent's sender stays dead with it — process death must
    # not be undone by a ghost retransmission.
    for _ in range(int(np.ceil(settle / step))):
        now = true_clock.advance(step)
        harness.apply(now)
        if not phone.suspended:
            phone_sender.step(now)
        if not dashcam.suspended:
            dashcam_sender.step(now)
        controller.step(now)

    streams = controller.raw_streams()
    accel_ts = streams.get("phone/accelerometer",
                           (np.empty(0), np.empty(0)))[0]
    frame_ts = np.array([f.timestamp for f in controller.frames])
    windows = []
    edges = np.arange(0.0, duration, window_period)
    for start in edges:
        end = min(start + window_period, duration)
        windows.append(WindowHealth(
            start=float(start), end=float(end),
            imu_readings=int(np.sum((accel_ts >= start) & (accel_ts < end))),
            frames=int(np.sum((frame_ts >= start) & (frame_ts < end))),
        ))

    return ChaosDriveReport(
        duration=duration,
        imu_taken=phone.readings_taken,
        imu_arrived=controller.readings_received,
        frames_taken=dashcam.readings_taken,
        frames_arrived=controller.frames_received,
        readings_quarantined=controller.readings_quarantined,
        windows=windows,
        health=health.report(),
        agent_states=drive_end_states,
        agent_transitions=drive_end_transitions,
        breaker_transitions=list(breaker.transitions),
        breaker_location=breaker.location.value,
        privacy_escalations=escalator.escalations,
        privacy_relaxations=escalator.relaxations,
        final_privacy_level=escalator.level,
        phone_sender_stats=phone_sender.stats,
        dashcam_sender_stats=dashcam_sender.stats,
        first_escalation_at=first_escalation_at,
        first_shed_at=first_shed_at,
        harness_log=list(harness.log),
    )

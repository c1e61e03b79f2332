"""Deterministic chaos harness: scripted fault schedules over virtual time.

Fault tolerance that is only exercised by accident is not exercised at
all.  This module holds the one :class:`ChaosHarness` every chaos drive
uses: a *scripted* :class:`FaultSchedule`, evaluated against the
simulation's virtual clock, moves a set of :class:`Lever`\\ s — what one
fault kind does to one target — so every chaos run is reproducible from
a seed.  :func:`run_chaos_drive` drives the streaming supervision stack
(reliable transport, health registry, placement circuit breaker,
adaptive privacy escalation) through the canonical scenario (total
blackout + dashcam death + stuck sensor in one drive) behind a single
call used by the integration tests and the ``repro chaos`` CLI command;
the serving and edge drives build their own levers on the same harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

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
#: streaming stack (:func:`run_chaos_drive`); the serving kinds target
#: the shard fleet (:func:`repro.serving.chaos.run_serving_chaos`); the
#: edge kinds target the device runtime
#: (:func:`repro.edge.chaos.run_edge_chaos`) — ``uplink_blackhole``
#: severs an agent's uplink both ways, ``ota_corrupt_artifact`` flips
#: bytes in every artifact served for the targeted release version, and
#: ``ota_download_kill`` kills the updater process mid-download (the
#: resumed download must continue from its persisted partial files).
#: The camera kinds are scenario-native: scheduled by the scenario DSL's
#: environment track and baked into compiled traces — ``camera_covered``
#: replaces frames with occluded-lens renders (the server keeps getting
#: frames and should *classify* the condition), ``camera_blackout``
#: suppresses frame ingestion (the server must degrade to IMU-only).
#: No lever moves them; the serving drive counts them at ingestion.
FAULT_KINDS = ("blackout", "agent_silence", "sensor_stuck",
               "sensor_dropout", "sensor_spike",
               "shard_kill", "executor_hang", "sink_blackhole",
               "journal_disk_full", "sink_restart",
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

    def active_for(self, kind: str, target: str,
                   now: float) -> FaultEvent | None:
        """The live event of ``kind`` hitting ``target``, if any."""
        for event in self.events:
            if event.kind == kind and event.matches(target) \
                    and event.active(now):
                return event
        return None


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


@dataclass(frozen=True)
class Lever:
    """What one fault kind does to one target.

    A *level* lever has an ``off`` action: it is switched on while an
    event of ``kind`` hitting ``target`` is live and ``ready()`` holds,
    and off once either stops.  A *trigger* lever has none: ``on`` fires
    at every apply that finds such an event live and the target ready —
    with ``once``, only at the first such apply of each event.  ``on``
    receives the live event, ``off`` the virtual time.
    """

    kind: str
    target: str
    on: Callable[[FaultEvent], None]
    off: Callable[[float], None] | None = None
    ready: Callable[[], bool] = lambda: True
    once: bool = False


def switch(kind: str, target: str, turn: Callable[[bool], None], *,
           ready: Callable[[], bool] = lambda: True) -> Lever:
    """A level lever calling ``turn(True)`` on and ``turn(False)`` off."""
    return Lever(kind, target, lambda event: turn(True),
                 lambda now: turn(False), ready)


def channel_blackhole(kind: str, target: str, *channels: Channel) -> Lever:
    """A level lever that drops every packet on ``channels`` while on.

    Switching on saves each channel's ``drop_probability`` and sets it to
    1.0 (so the channel still draws its loss RNG per packet); switching
    off restores the saved values.
    """
    saved: list[float] = []

    def on(event: FaultEvent) -> None:
        saved[:] = [channel.drop_probability for channel in channels]
        for channel in channels:
            channel.drop_probability = 1.0

    def off(now: float) -> None:
        for channel, drop in zip(channels, saved):
            channel.drop_probability = drop

    return Lever(kind, target, on, off)


def _silence_lever(agent: CollectionAgent) -> Lever:
    """Suspends an agent (process death); on revival it skips the
    samples it missed instead of replaying them."""
    def on(event: FaultEvent) -> None:
        agent.suspended = True

    def off(now: float) -> None:
        agent.suspended = False
        agent.fast_forward(now)

    return Lever("agent_silence", agent.agent_id, on, off)


def _sensor_levers(stream: str, sensor: FaultableSensor) -> list[Lever]:
    """One level lever per sensor fault kind on an ``agent/sensor``
    stream; clearing one leaves a mode another lever set in place."""
    def lever(kind: str, mode: str) -> Lever:
        def on(event: FaultEvent) -> None:
            sensor.set_mode(mode, event.magnitude)

        def off(now: float) -> None:
            if sensor.mode == mode:
                sensor.set_mode(None)

        return Lever(kind, stream, on, off)

    return [lever(kind, mode) for kind, mode in _SENSOR_MODES.items()]


class ChaosHarness:
    """Moves a set of :class:`Lever`\\ s to match a :class:`FaultSchedule`.

    Every lever it moves appends ``(now, kind, target, "on" | "off")`` to
    :attr:`log`, the one record chaos reports read their fault counts
    (:meth:`count`) and engagement (:meth:`unengaged`) from.
    """

    def __init__(self, schedule: FaultSchedule, levers) -> None:
        self.schedule = schedule
        self.levers: tuple[Lever, ...] = tuple(levers)
        self.log: list[tuple[float, str, str, str]] = []
        self._on: set[int] = set()
        self._fired: set[tuple[int, FaultEvent]] = set()

    def apply(self, now: float) -> None:
        """Move every lever to match the schedule at virtual ``now``."""
        for index, lever in enumerate(self.levers):
            event = self.schedule.active_for(lever.kind, lever.target, now)
            if lever.off is None:
                if event is None or (index, event) in self._fired \
                        or not lever.ready():
                    continue
                if lever.once:
                    self._fired.add((index, event))
                lever.on(event)
                self.log.append((now, lever.kind, lever.target, "on"))
            elif event is not None and lever.ready():
                if index not in self._on:
                    self._on.add(index)
                    lever.on(event)
                    self.log.append((now, lever.kind, lever.target, "on"))
            elif index in self._on:
                self._on.remove(index)
                lever.off(now)
                self.log.append((now, lever.kind, lever.target, "off"))

    def count(self, kind: str) -> int:
        """How many times a lever of ``kind`` switched on or fired."""
        return sum(1 for _, logged, _, state in self.log
                   if logged == kind and state == "on")

    def unengaged(self) -> list[str]:
        """A violation per scheduled kind that aims at one of the levers
        but never switched one on: the chaos did not engage."""
        aimed = {event.kind for event in self.schedule.events
                 for lever in self.levers
                 if lever.kind == event.kind and event.matches(lever.target)}
        engaged = {kind for _, kind, _, state in self.log if state == "on"}
        return [f"schedule has {kind} events but no {kind} lever ever "
                "switched on (chaos did not engage)"
                for kind in sorted(aimed - engaged)]


def standard_chaos_schedule(duration: float = 30.0) -> FaultSchedule:
    """The canonical robustness scenario for a ``duration``-second drive:
    a 3 s total blackout from 8 s, the dashcam dying mid-drive, and a
    stuck gyroscope from 5 s to 20 s — all three fault classes in one
    script.  A drive shorter than 12 s scales the blackout and the stuck
    gyroscope into its own length, so every fault starts inside it."""
    scale = min(1.0, duration / 12.0)
    return FaultSchedule([
        FaultEvent(8.0 * scale, 11.0 * scale, "blackout", "*"),
        FaultEvent(duration / 2.0, math.inf, "agent_silence", "dashcam"),
        FaultEvent(5.0 * scale, 20.0 * scale, "sensor_stuck",
                   "phone/gyroscope"),
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
    #: Scheduled fault kinds that never engaged, as violations (see
    #: :meth:`ChaosHarness.unengaged`).
    unengaged: list[str] = field(default_factory=list)

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
        A scheduled fault that never engaged proved nothing, so it is a
        violation too.
        """
        out = []
        for window in self.windows:
            if not window.has_imu and not window.has_frames:
                out.append(
                    f"window [{window.start:.1f}, {window.end:.1f}) fully "
                    "dark: no modality was delivered")
        return out + self.unengaged

    def format_report(self) -> str:
        """Human-readable transport/health/placement/privacy/window
        summary for the CLI."""
        phone, dashcam = self.phone_sender_stats, self.dashcam_sender_stats
        lines = [
            "== Transport ==",
            f"IMU tuples: {self.imu_arrived}/{self.imu_taken} delivered "
            f"({self.imu_delivery_ratio * 100:.2f}%)",
            f"phone sender: {phone.sent} sent, {phone.retransmissions} "
            f"retransmitted, {phone.shed_data} shed, {phone.abandoned} "
            "abandoned",
            f"dashcam sender: {dashcam.sent} sent, "
            f"{dashcam.retransmissions} retransmitted, "
            f"{dashcam.shed_frames} frames shed",
            "\n== Health ==",
            *(f"{agent_id}: {state.value} at end of drive"
              for agent_id, state in self.agent_states.items()),
            "quarantined at some point: "
            f"{self.health['ever_quarantined'] or 'none'}",
            f"fault counts: {self.health['fault_counts']}",
            f"readings quarantined: {self.readings_quarantined}",
            "\n== Placement ==",
            *(f"t={when:6.2f}s  -> {location.value}"
              for when, location in self.breaker_transitions),
            f"final placement: {self.breaker_location}",
            "\n== Privacy ==",
            f"escalations: {self.privacy_escalations}, "
            f"relaxations: {self.privacy_relaxations}, "
            f"final level: {self.final_privacy_level or 'undistorted'}",
        ]
        if self.first_escalation_at is not None:
            lines.append(
                f"first escalation at t={self.first_escalation_at:.2f}s")
        lines.append("\n== Verdict windows ==")
        for window in self.windows:
            flag = (f"DEGRADED (missing {', '.join(window.missing)})"
                    if window.degraded else "full fidelity")
            lines.append(
                f"[{window.start:5.1f}, {window.end:5.1f})  "
                f"imu={window.imu_readings:4d}  frames={window.frames:2d}  "
                f"{flag}")
        lines.append(f"\n{self.degraded_windows}/{len(self.windows)} "
                     "windows degraded; every window still receives a "
                     "verdict.")
        return "\n".join(lines)


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

    channels = {"phone-data": phone_sender.data,
                "phone-ack": phone_sender.ack,
                "dashcam-data": dashcam_sender.data,
                "dashcam-ack": dashcam_sender.ack,
                "probe": probe_channel}
    harness = ChaosHarness(schedule, [
        *(channel_blackhole("blackout", name, channel)
          for name, channel in channels.items()),
        _silence_lever(phone), _silence_lever(dashcam),
        *(lever for stream, sensor in {**sensors, **sensors_cam}.items()
          for lever in _sensor_levers(stream, sensor)),
    ])

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
        unengaged=harness.unengaged(),
    )

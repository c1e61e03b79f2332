"""Scenario specification: declarative, validated, JSON round-trippable.

A spec is pure data — no generators, no RNG state — so it can live in a
fixture file, travel through CI, and mean exactly the same world on every
machine.  The compiler (:mod:`repro.scenarios.compiler`) owns the lowering
onto the synth generators.

Behaviours are stored as enum *names* in JSON (``"TEXTING"``,
``"DROWSY"``) so fixture files stay readable and survive any future
renumbering.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

from repro.core.darnet import DriveScript
from repro.datasets.classes import (
    NUM_BEHAVIOR_CLASSES,
    DrivingBehavior,
    ExtendedBehavior,
    as_behavior,
    resolve_behavior,
)
from repro.exceptions import ConfigurationError

#: Environment camera-fault kinds the compiler understands.  ``covered``
#: replaces frames with occluded-lens renders (the server still receives
#: them and the extended CNN should *classify* the condition);
#: ``blackout`` suppresses frame ingestion entirely (the server must
#: degrade to IMU-only verdicts).
CAMERA_FAULT_KINDS = ("covered", "blackout")


def _check_window(start: float, end: float, what: str) -> None:
    if start < 0 or end <= start:
        raise ConfigurationError(
            f"{what} needs 0 <= start < end, got [{start}, {end})")


@dataclass(frozen=True)
class BehaviorSegment:
    """One timed behaviour in a timeline: ``behavior`` over [start, end)."""

    start: float
    end: float
    behavior: DrivingBehavior | ExtendedBehavior

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "behaviour segment")
        object.__setattr__(self, "behavior",
                           as_behavior(int(self.behavior)))

    def to_dict(self) -> dict:
        return {"start": self.start, "end": self.end,
                "behavior": self.behavior.name}

    @classmethod
    def from_dict(cls, data: dict) -> "BehaviorSegment":
        return cls(start=float(data["start"]), end=float(data["end"]),
                   behavior=resolve_behavior(str(data["behavior"])))


@dataclass(frozen=True)
class Timeline:
    """A named behaviour schedule drivers can be assigned to.

    ``weight`` sets the fleet mix: drivers are deterministically
    distributed over timelines proportionally to weight.
    """

    name: str
    segments: tuple[BehaviorSegment, ...]
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigurationError(f"timeline {self.name!r} has no segments")
        if self.weight <= 0:
            raise ConfigurationError(
                f"timeline {self.name!r} needs weight > 0, got {self.weight}")
        object.__setattr__(self, "segments", tuple(self.segments))

    def script(self) -> DriveScript:
        """Lower to the collection framework's drive-script form."""
        return DriveScript(
            [(seg.start, seg.end, seg.behavior) for seg in self.segments])

    def to_dict(self) -> dict:
        return {"name": self.name, "weight": self.weight,
                "segments": [seg.to_dict() for seg in self.segments]}

    @classmethod
    def from_dict(cls, data: dict) -> "Timeline":
        return cls(name=str(data["name"]),
                   weight=float(data.get("weight", 1.0)),
                   segments=tuple(BehaviorSegment.from_dict(seg)
                                  for seg in data["segments"]))


@dataclass(frozen=True)
class LightingPhase:
    """Illumination regime over [start, end): overrides the renderer's
    per-frame lighting-multiplier range (night ≈ (0.15, 0.35), glare-bright
    ≈ (1.3, 1.6); the default daylight range is (0.5, 1.2))."""

    start: float
    end: float
    low: float
    high: float

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "lighting phase")
        if not 0.0 <= self.low <= self.high:
            raise ConfigurationError(
                f"lighting phase needs 0 <= low <= high, got "
                f"({self.low}, {self.high})")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "LightingPhase":
        return cls(**{key: float(data[key])
                      for key in ("start", "end", "low", "high")})


@dataclass(frozen=True)
class CameraFault:
    """Scenario-native camera obstruction over [start, end).

    ``drivers`` limits the fault to specific driver ids (``None`` hits the
    whole fleet).  See :data:`CAMERA_FAULT_KINDS` for semantics.
    """

    kind: str
    start: float
    end: float
    drivers: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in CAMERA_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown camera fault {self.kind!r}; choose from "
                f"{CAMERA_FAULT_KINDS}")
        _check_window(self.start, self.end, "camera fault")
        if self.drivers is not None:
            object.__setattr__(self, "drivers",
                               tuple(int(d) for d in self.drivers))

    def hits(self, driver_id: int) -> bool:
        return self.drivers is None or driver_id in self.drivers

    def to_dict(self) -> dict:
        data = {"kind": self.kind, "start": self.start, "end": self.end}
        if self.drivers is not None:
            data["drivers"] = list(self.drivers)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CameraFault":
        drivers = data.get("drivers")
        return cls(kind=str(data["kind"]), start=float(data["start"]),
                   end=float(data["end"]),
                   drivers=None if drivers is None else tuple(drivers))


@dataclass(frozen=True)
class NoiseRegime:
    """Additional IMU sensor noise (std, m/s²-scale) over [start, end) —
    rough pavement, loose mounts, EMI bursts."""

    start: float
    end: float
    std: float

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "noise regime")
        if self.std < 0:
            raise ConfigurationError(f"noise std must be >= 0: {self.std}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseRegime":
        return cls(start=float(data["start"]), end=float(data["end"]),
                   std=float(data["std"]))


@dataclass(frozen=True)
class RoadProfile:
    """Road surface: a multiplier on every driver's vibration scale."""

    name: str = "paved"
    vibration: float = 1.0

    def __post_init__(self) -> None:
        if self.vibration <= 0:
            raise ConfigurationError(
                f"road vibration must be > 0: {self.vibration}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RoadProfile":
        return cls(name=str(data.get("name", "paved")),
                   vibration=float(data.get("vibration", 1.0)))


@dataclass(frozen=True)
class GpsRoute:
    """Synthetic GPS dead-reckoning route for the fleet.

    Each driver's trace starts at ``origin`` (with a small per-driver
    offset) and advances along ``heading_deg`` at ``speed_mps``; the
    compiler emits per-instant (lat, lon, speed) triples.
    """

    origin: tuple[float, float] = (37.7749, -122.4194)
    heading_deg: float = 90.0
    speed_mps: float = 13.4

    def __post_init__(self) -> None:
        if self.speed_mps < 0:
            raise ConfigurationError(
                f"GPS speed must be >= 0: {self.speed_mps}")
        object.__setattr__(self, "origin",
                           (float(self.origin[0]), float(self.origin[1])))

    def to_dict(self) -> dict:
        return {"origin": list(self.origin),
                "heading_deg": self.heading_deg,
                "speed_mps": self.speed_mps}

    @classmethod
    def from_dict(cls, data: dict) -> "GpsRoute":
        return cls(origin=tuple(data.get("origin", (37.7749, -122.4194))),
                   heading_deg=float(data.get("heading_deg", 90.0)),
                   speed_mps=float(data.get("speed_mps", 13.4)))


@dataclass(frozen=True)
class EnvironmentTrack:
    """Everything about the world that is not driver behaviour."""

    lighting: tuple[LightingPhase, ...] = ()
    camera_faults: tuple[CameraFault, ...] = ()
    imu_noise: tuple[NoiseRegime, ...] = ()
    road: RoadProfile = field(default_factory=RoadProfile)
    gps: GpsRoute | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "lighting", tuple(self.lighting))
        object.__setattr__(self, "camera_faults", tuple(self.camera_faults))
        object.__setattr__(self, "imu_noise", tuple(self.imu_noise))

    @property
    def is_default(self) -> bool:
        """True when the track adds nothing over the legacy daylight world."""
        return (not self.lighting and not self.camera_faults
                and not self.imu_noise and self.road.vibration == 1.0
                and self.gps is None)

    def to_dict(self) -> dict:
        data: dict = {}
        if self.lighting:
            data["lighting"] = [p.to_dict() for p in self.lighting]
        if self.camera_faults:
            data["camera_faults"] = [f.to_dict() for f in self.camera_faults]
        if self.imu_noise:
            data["imu_noise"] = [n.to_dict() for n in self.imu_noise]
        if self.road != RoadProfile():
            data["road"] = self.road.to_dict()
        if self.gps is not None:
            data["gps"] = self.gps.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "EnvironmentTrack":
        return cls(
            lighting=tuple(LightingPhase.from_dict(p)
                           for p in data.get("lighting", ())),
            camera_faults=tuple(CameraFault.from_dict(f)
                                for f in data.get("camera_faults", ())),
            imu_noise=tuple(NoiseRegime.from_dict(n)
                            for n in data.get("imu_noise", ())),
            road=RoadProfile.from_dict(data.get("road", {})),
            gps=(GpsRoute.from_dict(data["gps"])
                 if data.get("gps") is not None else None),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative scenario.

    Attributes:
        name: scenario identifier (shows up in reports and fixtures).
        duration: simulated drive length in seconds.
        grid_period: verdict/sample cadence in seconds (paper: 0.25).
        seed: the *only* randomness root — spec + seed ⇒ byte-identical
            streams everywhere.
        drivers: fleet size.
        timelines: behaviour schedules; drivers are distributed over them
            by weight (round-robin over a deterministic weighted layout,
            so the mix is exact, not sampled).
        environment: the shared world track.
        segment_jitter: per-driver segment-boundary jitter in seconds
            (0 = all drivers follow their timeline exactly — required for
            legacy bit-stability).
    """

    name: str
    duration: float
    timelines: tuple[Timeline, ...]
    grid_period: float = 0.25
    seed: int = 0
    drivers: int = 8
    environment: EnvironmentTrack = field(default_factory=EnvironmentTrack)
    segment_jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.duration <= 0 or self.grid_period <= 0:
            raise ConfigurationError(
                "scenario needs duration > 0 and grid_period > 0")
        if self.drivers < 1:
            raise ConfigurationError("scenario needs drivers >= 1")
        if not self.timelines:
            raise ConfigurationError("scenario needs at least one timeline")
        if self.segment_jitter < 0:
            raise ConfigurationError("segment_jitter must be >= 0")
        object.__setattr__(self, "timelines", tuple(self.timelines))

    # -- derived properties ----------------------------------------------
    def behaviors(self) -> set[DrivingBehavior | ExtendedBehavior]:
        """Every behaviour class any timeline schedules."""
        return {seg.behavior for timeline in self.timelines
                for seg in timeline.segments}

    @property
    def is_extended(self) -> bool:
        """Whether any scheduled behaviour lies beyond the paper's six."""
        return any(int(b) >= NUM_BEHAVIOR_CLASSES for b in self.behaviors())

    def with_overrides(self, **kwargs) -> "ScenarioSpec":
        """A copy with top-level fields replaced (CLI flag overrides)."""
        return replace(self, **kwargs)

    # -- construction helpers --------------------------------------------
    @classmethod
    def paper_sweep(cls, *, drivers: int = 8, duration: float = 20.0,
                    grid_period: float = 0.25, seed: int = 0
                    ) -> "ScenarioSpec":
        """The legacy replay world: an equal-segment sweep over the six
        paper behaviours with 0.25 s gaps — exactly the script
        ``replay_concurrent_drives`` used to hardcode, so compiled traces
        are bit-identical with the pre-DSL replay."""
        behaviors = list(DrivingBehavior)
        segment = max(1.0, duration / len(behaviors) - 0.25)
        script = DriveScript.standard(segment_seconds=segment,
                                      gap_seconds=0.25)
        return cls.from_script(script, name="paper-sweep", drivers=drivers,
                               duration=duration, grid_period=grid_period,
                               seed=seed)

    @classmethod
    def from_script(cls, script: DriveScript, *, name: str = "scripted",
                    drivers: int = 8, duration: float | None = None,
                    grid_period: float = 0.25, seed: int = 0
                    ) -> "ScenarioSpec":
        """Wrap a legacy :class:`DriveScript` as a single-timeline spec."""
        segments = tuple(BehaviorSegment(start, end, behavior)
                         for start, end, behavior in script.segments)
        return cls(name=name,
                   duration=float(duration if duration is not None
                                  else script.duration),
                   grid_period=grid_period, seed=seed, drivers=drivers,
                   timelines=(Timeline(name="script", segments=segments),))

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "duration": self.duration,
            "grid_period": self.grid_period,
            "seed": self.seed,
            "drivers": self.drivers,
            "timelines": [timeline.to_dict() for timeline in self.timelines],
        }
        if self.segment_jitter:
            data["segment_jitter"] = self.segment_jitter
        environment = self.environment.to_dict()
        if environment:
            data["environment"] = environment
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        try:
            timelines = tuple(Timeline.from_dict(t)
                              for t in data["timelines"])
            return cls(
                name=str(data["name"]),
                duration=float(data["duration"]),
                grid_period=float(data.get("grid_period", 0.25)),
                seed=int(data.get("seed", 0)),
                drivers=int(data.get("drivers", 8)),
                timelines=timelines,
                environment=EnvironmentTrack.from_dict(
                    data.get("environment", {})),
                segment_jitter=float(data.get("segment_jitter", 0.0)),
            )
        except KeyError as exc:
            raise ConfigurationError(
                f"scenario spec missing required field {exc}") from None

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid scenario JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigurationError("scenario JSON must be an object")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "ScenarioSpec":
        with open(path, encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")


def resolve_fleet(scenario: ScenarioSpec | None = None,
                  script: DriveScript | None = None, *, drivers: int,
                  duration: float, grid_period: float = 0.25,
                  seed: int = 0) -> ScenarioSpec:
    """The spec a fleet drive runs: ``scenario`` when given (it is then
    authoritative for the fleet shape), else ``script`` or the paper
    sweep at the given shape.  Building the spec validates the shape, so
    a bad one raises :class:`ConfigurationError` before the caller sets
    anything up."""
    if scenario is not None:
        if script is not None:
            raise ConfigurationError(
                "pass either scenario or script, not both")
        return scenario
    shape = dict(drivers=drivers, duration=duration,
                 grid_period=grid_period, seed=seed)
    if script is not None:
        return ScenarioSpec.from_script(script, **shape)
    return ScenarioSpec.paper_sweep(**shape)

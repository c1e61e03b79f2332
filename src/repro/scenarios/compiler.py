"""Scenario compiler: lower a :class:`ScenarioSpec` onto the generators.

The contract is **spec + seed ⇒ byte-identical streams**.  Three rules
keep it honest:

* Each driver's base RNG is ``default_rng(spec.seed + 1000 + driver_id)``
  and is consumed in *exactly* the order the pre-DSL replay consumed it
  (profile, appearance, per-segment episodes, idle episode, then one
  frame per grid instant).  A default-environment spec therefore
  reproduces the legacy ``synthesize_trace`` output bit for bit.
* Environment effects never touch the base stream.  Lighting phases work
  by swapping the renderer's ``lighting_range`` bounds per instant — the
  per-frame ``uniform(low, high)`` draw count is unchanged, only its
  bounds move.  Jitter, IMU noise regimes, and covered-lens renders each
  consume their own ``default_rng([seed, driver, salt])`` stream, and
  only when the spec actually schedules them.
* Everything downstream (training windows, replay, chaos) reads the same
  compiled :class:`DriverTrace` objects, so the consumers cannot drift
  apart.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.darnet import DriveScript
from repro.datasets.classes import DrivingBehavior
from repro.datasets.image_synth import DriverAppearance, SceneRenderer
from repro.datasets.imu_synth import (
    SENSOR_ORDER,
    DriverProfile,
    ImuTraceGenerator,
)
from repro.exceptions import ConfigurationError
from repro.scenarios.spec import ScenarioSpec, Timeline

#: Salts for the per-driver side streams (never the base stream).
_SALT_JITTER = 17
_SALT_NOISE = 3
_SALT_COVER = 13

#: Metres per degree of latitude (good enough for synthetic routes).
_M_PER_DEG = 111_320.0


@dataclass
class DriverTrace:
    """Pre-synthesized raw streams for one replay driver.

    ``frame_mask`` marks instants whose frame must *not* be ingested
    (scenario camera blackouts); ``None`` means every frame flows.
    ``gps`` carries per-instant (lat, lon, speed) when the scenario
    declares a route.
    """

    driver_id: int
    imu: np.ndarray          # (instants, 12) grid-aligned samples
    frames: list[np.ndarray]  # one frame per grid instant
    labels: np.ndarray       # scripted behaviour per instant
    frame_mask: np.ndarray | None = None
    gps: np.ndarray | None = None
    timeline: str = ""


def synthesize_trace(driver_id: int, instants: np.ndarray, *,
                     script: DriveScript,
                     rng: np.random.Generator) -> DriverTrace:
    """Raw per-instant IMU vectors and frames for one scripted drive.

    The legacy per-driver entry point, kept as the reference the
    compiler's bit-stability tests compare against: equivalent to
    compiling a single-timeline spec with a default environment.
    """
    return _synthesize_driver(driver_id, instants, script=script, rng=rng)


def _segment_lookup(script: DriveScript):
    def segment_at(t: float) -> int | None:
        for index, (start, end, _) in enumerate(script.segments):
            if start <= t < end:
                return index
        return None
    return segment_at


def _synthesize_driver(driver_id: int, instants: np.ndarray, *,
                       script: DriveScript, rng: np.random.Generator,
                       spec: ScenarioSpec | None = None,
                       timeline_name: str = "") -> DriverTrace:
    """One driver's streams; ``spec`` adds the environment track."""
    environment = spec.environment if spec is not None else None
    profile = DriverProfile.sample(driver_id, rng)
    if environment is not None and environment.road.vibration != 1.0:
        profile = replace(profile, vibration_scale=(
            profile.vibration_scale * environment.road.vibration))
    appearance = DriverAppearance.sample(driver_id, rng)
    renderer = SceneRenderer(appearance)
    episodes = {
        index: ImuTraceGenerator(behavior, profile, rng=rng)
        for index, (_, _, behavior) in enumerate(script.segments)
    }
    idle = ImuTraceGenerator(DrivingBehavior.NORMAL, profile, rng=rng)
    segment_at = _segment_lookup(script)

    def behavior_at(t: float) -> int:
        index = segment_at(t)
        if index is None:
            return int(DrivingBehavior.NORMAL)
        return int(script.segments[index][2])

    frame_fn = renderer.frame_fn(behavior_at, rng=rng)
    base_range = renderer.lighting_range
    covered = blacked = ()
    cover_rng = None
    if environment is not None:
        covered = tuple(f for f in environment.camera_faults
                        if f.kind == "covered" and f.hits(driver_id))
        blacked = tuple(f for f in environment.camera_faults
                        if f.kind == "blackout" and f.hits(driver_id))
        if covered and spec is not None:
            cover_rng = np.random.default_rng(
                [spec.seed, driver_id, _SALT_COVER])

    imu = np.zeros((len(instants), 12))
    frames: list[np.ndarray] = []
    labels = np.zeros(len(instants), dtype=np.int64)
    frame_mask = None
    if blacked:
        frame_mask = np.ones(len(instants), dtype=bool)
    for k, t in enumerate(instants):
        now = float(t)
        index = segment_at(now)
        generator = idle if index is None else episodes[index]
        imu[k] = np.concatenate(
            [generator.sample(sensor, now) for sensor in SENSOR_ORDER])
        if environment is not None and environment.lighting:
            phase = next((p for p in environment.lighting
                          if p.start <= now < p.end), None)
            renderer.lighting_range = ((phase.low, phase.high)
                                       if phase is not None else base_range)
        frame = np.asarray(frame_fn(now), dtype=np.float32)
        if cover_rng is not None and any(f.start <= now < f.end
                                         for f in covered):
            frame = renderer._render_covered(cover_rng)
        frames.append(frame)
        labels[k] = behavior_at(now)
        if frame_mask is not None and any(f.start <= now < f.end
                                          for f in blacked):
            frame_mask[k] = False
    renderer.lighting_range = base_range
    if environment is not None and environment.imu_noise and spec is not None:
        noise_rng = np.random.default_rng([spec.seed, driver_id, _SALT_NOISE])
        unit = noise_rng.normal(0.0, 1.0, imu.shape)
        stds = np.zeros(len(instants))
        for regime in environment.imu_noise:
            active = (instants >= regime.start) & (instants < regime.end)
            stds = np.maximum(stds, np.where(active, regime.std, 0.0))
        imu = imu + unit * stds[:, None]
    gps = None
    if environment is not None and environment.gps is not None:
        gps = _gps_trace(environment.gps, driver_id, instants)
    return DriverTrace(driver_id=driver_id, imu=imu, frames=frames,
                       labels=labels, frame_mask=frame_mask, gps=gps,
                       timeline=timeline_name)


def _gps_trace(route, driver_id: int, instants: np.ndarray) -> np.ndarray:
    """Dead-reckoned (lat, lon, speed) per instant; analytic, no RNG."""
    lat0 = route.origin[0] + 1e-4 * driver_id
    lon0 = route.origin[1]
    heading = np.deg2rad(route.heading_deg)
    dist = route.speed_mps * np.asarray(instants, dtype=np.float64)
    lat = lat0 + dist * np.cos(heading) / _M_PER_DEG
    lon = lon0 + dist * np.sin(heading) / (
        _M_PER_DEG * max(np.cos(np.deg2rad(lat0)), 1e-6))
    speed = np.full_like(dist, route.speed_mps)
    return np.stack([lat, lon, speed], axis=1)


class CompiledScenario:
    """A spec lowered to per-driver scripts and synthesized traces."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self.instants = np.arange(0.0, spec.duration, spec.grid_period)
        if len(self.instants) == 0:
            raise ConfigurationError(
                "scenario produces no grid instants; lengthen duration or "
                "shorten grid_period")
        self.assignment = self._assign_timelines()
        self._traces: dict[int, DriverTrace] = {}

    # -- fleet layout ----------------------------------------------------
    def _assign_timelines(self) -> list[int]:
        """Driver → timeline index, exact largest-remainder weighted mix."""
        spec = self.spec
        weights = np.array([t.weight for t in spec.timelines], dtype=float)
        shares = spec.drivers * weights / weights.sum()
        counts = np.floor(shares).astype(int)
        remainder = spec.drivers - int(counts.sum())
        if remainder:
            order = np.argsort(-(shares - counts), kind="stable")
            for index in order[:remainder]:
                counts[index] += 1
        assignment: list[int] = []
        for index, count in enumerate(counts):
            assignment.extend([index] * int(count))
        return assignment

    def timeline_for(self, driver_id: int) -> Timeline:
        return self.spec.timelines[self.assignment[driver_id]]

    def script_for(self, driver_id: int) -> DriveScript:
        """The driver's jittered drive script."""
        script = self.timeline_for(driver_id).script()
        jitter = self.spec.segment_jitter
        if not jitter:
            return script
        jitter_rng = np.random.default_rng(
            [self.spec.seed, driver_id, _SALT_JITTER])
        segments = []
        for start, end, behavior in script.segments:
            delta = float(jitter_rng.uniform(-jitter, jitter))
            new_start = max(0.0, start + delta)
            # Keep start < end unconditionally; segments shifted past the
            # scenario duration are harmless — the grid never samples them
            # (legacy scripts already run past `duration` the same way).
            new_end = max(new_start + self.spec.grid_period, end + delta)
            segments.append((new_start, new_end, behavior))
        return DriveScript(segments)

    # -- trace synthesis -------------------------------------------------
    def trace_for(self, driver_id: int) -> DriverTrace:
        """The driver's synthesized streams (cached per compile)."""
        if driver_id not in self._traces:
            if not 0 <= driver_id < self.spec.drivers:
                raise ConfigurationError(
                    f"driver {driver_id} outside fleet of "
                    f"{self.spec.drivers}")
            rng = np.random.default_rng(self.spec.seed + 1000 + driver_id)
            self._traces[driver_id] = _synthesize_driver(
                driver_id, self.instants,
                script=self.script_for(driver_id), rng=rng, spec=self.spec,
                timeline_name=self.timeline_for(driver_id).name)
        return self._traces[driver_id]

    def traces(self) -> list[DriverTrace]:
        """Streams for the whole fleet, driver order."""
        return [self.trace_for(d) for d in range(self.spec.drivers)]


def compile_scenario(spec: ScenarioSpec) -> CompiledScenario:
    """Lower ``spec`` into per-driver scripts and deterministic streams."""
    return CompiledScenario(spec)

"""The on-device agent: local inference, durable spooling, supervised loops.

:class:`EdgeAgent` is the paper's phone/dashcam side grown into a small
runtime.  Instead of streaming raw sensor data to the controller and
waiting for server verdicts, the agent classifies **locally** — at its
configured privacy level, through the same dCNN ensemble the server
would use — and uploads *verdicts* (plus small evidence clips for
non-normal behaviour), which survive uplink loss in the disk spool.

Four loops run under the :class:`~repro.edge.supervisor.TaskSupervisor`:

========  ====================================================
sensor    consume the drive's IMU rows / camera frames up to ``now``
infer     distort at the privacy level, run ``predict_degraded`` on the
          rolling IMU window + latest frame, spool the verdict (and an
          evidence clip when the verdict is not NORMAL)
upload    drain the spool through the reliable uplink
update    advance the OTA state machine (check/download/verify/swap)
========  ====================================================

Each loop heartbeats into a :class:`~repro.streaming.health.HealthRegistry`
under ``<agent>/<loop>``, so a wedged loop is visible as DEGRADED/SILENT
while the others keep running.
"""

from __future__ import annotations

import numpy as np

from repro.core.privacy import PrivacyLevel, distort_restore
from repro.datasets.classes import DrivingBehavior
from repro.edge.ota import OtaClient
from repro.edge.spool import KIND_CLIP, EdgeSpool, SpoolRecord
from repro.edge.supervisor import TaskSupervisor
from repro.edge.uploader import EdgeUploader
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import Tracer
from repro.serving.registry import ServingModelRegistry
from repro.serving.replay import DriverTrace
from repro.streaming.health import HealthRegistry

#: IMU window length the ensemble's RNN expects (matches serving).
WINDOW_STEPS = 20

#: Evidence clips ship a 16x16 uint8 thumbnail of the distorted frame.
CLIP_STRIDE = 4


class EdgeAgent:
    """One vehicle's on-device runtime.

    Args:
        agent_id: fleet identity (uplink source address, canary cohort).
        registry: the device's model registry; the OTA client hot-swaps
            into it, the infer loop routes through it by privacy level.
        spool / uploader: durable store-and-forward pipeline.
        trace: pre-synthesized drive (one IMU row + frame per instant).
        instants: grid timestamps aligned with ``trace``.
        privacy: distortion level frames are degraded to before
            inference (``None`` = full fidelity).
        ota: OTA updater; ``None`` runs a fixed model.
        health: liveness registry the loop heartbeats land in.
        intervals: per-loop periods ``(sensor, infer, upload, update)``.
    """

    def __init__(self, agent_id: str, *, registry: ServingModelRegistry,
                 spool: EdgeSpool, uploader: EdgeUploader,
                 trace: DriverTrace, instants: np.ndarray,
                 privacy: PrivacyLevel | None = None,
                 ota: OtaClient | None = None,
                 health: HealthRegistry | None = None,
                 intervals: tuple[float, float, float, float]
                 = (0.05, 0.25, 0.1, 1.0),
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self.agent_id = agent_id
        self.registry = registry
        self.spool = spool
        self.uploader = uploader
        self.trace = trace
        self.instants = np.asarray(instants, dtype=np.float64)
        self.privacy = privacy
        self.ota = ota
        self.tracer = tracer or Tracer(enabled=False)
        self.verdicts = 0
        self.clips = 0
        # Resume numbering past everything the spool has ever carried:
        # a restarted agent reusing a sequence would collide with its
        # previous incarnation and be deduped downstream — silent loss.
        self._sequence = spool.last_sequence
        self._cursor = 0
        self._inferred_through = 0
        self._imu_rows: list[np.ndarray] = []
        self._latest_frame: np.ndarray | None = None
        metrics = metrics or get_registry()
        self._obs_verdicts = metrics.counter(
            "edge_verdicts_total", "Verdicts produced on-device",
            agent=agent_id)
        self._obs_clips = metrics.counter(
            "edge_clips_total", "Evidence clips spooled for upload",
            agent=agent_id)
        self._obs_confidence = metrics.histogram(
            "edge_verdict_confidence", "On-device verdict confidence",
            agent=agent_id)
        sensor_dt, infer_dt, upload_dt, update_dt = intervals
        self.supervisor = TaskSupervisor(agent_id, health=health,
                                         registry=metrics)
        self.supervisor.add_task("sensor", self._sensor_loop, sensor_dt)
        self.supervisor.add_task("infer", self._infer_loop, infer_dt)
        self.supervisor.add_task("upload", self._upload_loop, upload_dt)
        if ota is not None:
            self.supervisor.add_task("update", self._update_loop, update_dt)

    # -- driving -----------------------------------------------------------
    def step(self, now: float) -> int:
        """Advance every due loop; returns how many ran."""
        return self.supervisor.step(now)

    @property
    def model_version(self) -> int:
        return self.ota.pinned_version if self.ota is not None else 0

    # -- loops -------------------------------------------------------------
    def _sensor_loop(self, now: float) -> None:
        """Consume drive samples up to ``now`` into the rolling buffers."""
        while (self._cursor < len(self.instants)
               and self.instants[self._cursor] <= now):
            k = self._cursor
            self._imu_rows.append(np.asarray(self.trace.imu[k],
                                             dtype=np.float64))
            if len(self._imu_rows) > WINDOW_STEPS:
                del self._imu_rows[0]
            self._latest_frame = np.asarray(self.trace.frames[k],
                                            dtype=np.float32)
            self._cursor += 1

    def _infer_loop(self, now: float) -> None:
        """Classify the current window locally and spool the verdict."""
        if not self._imu_rows or self._latest_frame is None:
            return
        if self._cursor == self._inferred_through:
            return  # no new sensor samples since the last verdict
        self._inferred_through = self._cursor
        trace_id = self.tracer.start(f"edge:{self.agent_id}")
        with self.tracer.span(trace_id, "distort"):
            images = distort_restore(
                self._latest_frame[None, None, :, :], self.privacy)
        with self.tracer.span(trace_id, "infer"):
            rows = self._imu_rows
            if len(rows) < WINDOW_STEPS:
                rows = [rows[0]] * (WINDOW_STEPS - len(rows)) + rows
            window = np.stack(rows)[None, :, :]
            level = self.privacy.value if self.privacy is not None else None
            model = self.registry.get(self.registry.route(level))
            prediction = model.predict_degraded(images=images, imu=window)
        predicted = int(prediction.predictions[0])
        confidence = float(prediction.confidence[0])
        with self.tracer.span(trace_id, "spool"):
            self._sequence += 1
            self.spool.append(SpoolRecord(
                agent_id=self.agent_id, sequence=self._sequence,
                timestamp=now, predicted=predicted, confidence=confidence,
                degraded=bool(prediction.degraded),
                model_version=self.model_version))
            self.verdicts += 1
            self._obs_verdicts.inc()
            self._obs_confidence.observe(confidence)
            if predicted != int(DrivingBehavior.NORMAL):
                self._spool_clip(now, predicted, confidence, images[0, 0])
        self.tracer.finish(trace_id)

    def _spool_clip(self, now: float, predicted: int, confidence: float,
                    frame: np.ndarray) -> None:
        """Queue a thumbnail of the (already privacy-distorted) frame."""
        thumb = np.clip(frame[::CLIP_STRIDE, ::CLIP_STRIDE] * 255.0,
                        0, 255).astype(np.uint8)
        self._sequence += 1
        self.spool.append(SpoolRecord(
            agent_id=self.agent_id, sequence=self._sequence,
            timestamp=now, kind=KIND_CLIP, predicted=predicted,
            confidence=confidence, model_version=self.model_version,
            payload=thumb.tobytes().hex()))
        self.clips += 1
        self._obs_clips.inc()

    def _upload_loop(self, now: float) -> None:
        self.uploader.step(now)

    def _update_loop(self, now: float) -> None:
        assert self.ota is not None
        self.ota.step(now)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self.spool.close()

    def report(self) -> dict:
        """Per-agent summary for drive reports and the chaos audit."""
        summary = {
            "agent_id": self.agent_id,
            "verdicts": self.verdicts,
            "clips": self.clips,
            "spool_depth": self.spool.depth,
            "uploaded": self.spool.acked,
            "model_version": self.model_version,
            "tasks": self.supervisor.report(),
        }
        if self.ota is not None:
            summary["ota"] = {
                "pinned_version": self.ota.pinned_version,
                "installs": self.ota.installs,
                "rollbacks": self.ota.rollbacks,
                "integrity_rejections": self.ota.integrity_rejections,
                "bytes_resumed": self.ota.bytes_resumed,
            }
        return summary

"""Experiment runners: one function per paper table/figure.

Runners are deterministic in ``(scale, seed)`` and return plain dataclasses
the benchmark harness formats.  Heavy artifacts (trained models, datasets)
are returned too so downstream benches can time inference without
retraining.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cnn import CnnConfig, DriverFrameCNN
from repro.core.darnet import DriveScript, run_collection_drive
from repro.core.distillation import DenoisingCNN, DistillationConfig
from repro.core.ensemble import DarNetEnsemble, EnsembleResult
from repro.core.privacy import PrivacyLevel
from repro.core.rnn import RnnConfig
from repro.datasets.alternative import (
    AlternativeDataset,
    NUM_ALTERNATIVE_CLASSES,
    generate_alternative_dataset,
)
from repro.datasets.classes import DrivingBehavior
from repro.datasets.dataset import DrivingDataset, generate_driving_dataset
from repro.experiments.config import DEFAULT, ExperimentScale
from repro.streaming.pipeline import SessionConfig


# ---------------------------------------------------------------------------
# Table 1 — dataset collection through the streaming framework
# ---------------------------------------------------------------------------

@dataclass
class Table1Result:
    """Collection statistics per behaviour class."""

    frame_counts: dict[DrivingBehavior, int]
    imu_reading_counts: dict[DrivingBehavior, int]
    total_readings: int
    total_frames: int
    worst_clock_error: float
    mean_channel_latency: float


def run_table1(scale: ExperimentScale = DEFAULT, *, seed: int = 0
               ) -> Table1Result:
    """Collect a Table-1-style dataset via scripted drives.

    Every driver executes the scripted distraction drive
    ``drives_per_driver`` times through the full agent/controller stack.
    """
    rng = np.random.default_rng(seed)
    frame_counts = {behavior: 0 for behavior in DrivingBehavior}
    imu_counts = {behavior: 0 for behavior in DrivingBehavior}
    total_readings = 0
    total_frames = 0
    worst_clock = 0.0
    latencies: list[float] = []
    config = SessionConfig()
    for driver in range(scale.num_drivers):
        for _ in range(scale.drives_per_driver):
            script = DriveScript.standard(
                segment_seconds=scale.segment_seconds)
            result = run_collection_drive(script, driver_id=driver,
                                          config=config, rng=rng)
            for frame in result.frames:
                if frame.label is not None:
                    frame_counts[DrivingBehavior(frame.label)] += 1
            for label in result.imu_labels:
                if label >= 0:
                    imu_counts[DrivingBehavior(int(label))] += 1
            controller = result.controller
            total_readings += controller.readings_received
            total_frames += controller.frames_received
            report = controller.sync_report()
            worst_clock = max(worst_clock, *report.values())
            for registered in controller._agents.values():
                latencies.extend(registered.uplink.stats.latencies)
    return Table1Result(
        frame_counts=frame_counts,
        imu_reading_counts=imu_counts,
        total_readings=total_readings,
        total_frames=total_frames,
        worst_clock_error=worst_clock,
        mean_channel_latency=float(np.mean(latencies)) if latencies else 0.0,
    )


# ---------------------------------------------------------------------------
# Table 2 + Figure 5 — the three-architecture comparison
# ---------------------------------------------------------------------------

@dataclass
class Table2Result:
    """Everything the Table-2 / Figure-5 benches report."""

    results: dict[str, EnsembleResult]       # per architecture
    imu_only: dict[str, float]               # rnn / svm IMU accuracy
    train: DrivingDataset
    evaluation: DrivingDataset
    ensembles: dict[str, DarNetEnsemble]


def run_table2(scale: ExperimentScale = DEFAULT, *, seed: int = 0,
               pretrain_cnn: bool = False, verbose: bool = False
               ) -> Table2Result:
    """Train and evaluate CNN+RNN, CNN+SVM, and CNN-only architectures.

    The CNN is trained once and shared by all three architectures, exactly
    as the paper evaluates one frame model against different IMU partners.
    """
    rng = np.random.default_rng(seed)
    dataset = generate_driving_dataset(scale.dataset_samples,
                                       num_drivers=scale.num_drivers,
                                       rng=rng)
    train, evaluation = dataset.train_eval_split(rng=rng)
    cnn_config = CnnConfig(epochs=scale.cnn_epochs, width=scale.cnn_width)
    rnn_config = RnnConfig(epochs=scale.rnn_epochs)
    cnn = DriverFrameCNN(cnn_config, rng=np.random.default_rng(seed + 1))
    if pretrain_cnn:
        cnn.pretrain(verbose=verbose)
    cnn.fit(train.images, train.labels, verbose=verbose)
    results: dict[str, EnsembleResult] = {}
    ensembles: dict[str, DarNetEnsemble] = {}
    imu_only: dict[str, float] = {}
    for architecture in ("cnn+rnn", "cnn+svm", "cnn"):
        ensemble = DarNetEnsemble(
            architecture, cnn=cnn, rnn_config=rnn_config,
            rng=np.random.default_rng(seed + 2))
        ensemble.fit(train, train_cnn=False, verbose=verbose)
        outcome = ensemble.evaluate(evaluation)
        results[architecture] = outcome
        ensembles[architecture] = ensemble
        if outcome.imu_top1 is not None:
            key = "rnn" if architecture == "cnn+rnn" else "svm"
            imu_only[key] = outcome.imu_top1
    return Table2Result(results=results, imu_only=imu_only, train=train,
                        evaluation=evaluation, ensembles=ensembles)


# ---------------------------------------------------------------------------
# Table 3 — privacy-preserving dCNN study
# ---------------------------------------------------------------------------

@dataclass
class Table3Result:
    """Teacher and per-level student accuracy on the 18-class dataset."""

    cnn_top1: float
    dcnn_top1: dict[PrivacyLevel, float]
    teacher: DriverFrameCNN
    students: dict[PrivacyLevel, DenoisingCNN]
    train: AlternativeDataset
    evaluation: AlternativeDataset


def run_table3(scale: ExperimentScale = DEFAULT, *, seed: int = 0,
               init_from_teacher: bool = True, pretrain_teacher: bool = True,
               verbose: bool = False) -> Table3Result:
    """Train the 18-class teacher CNN, distill a dCNN per privacy level.

    The teacher fine-tunes from the generic-shapes checkpoint by default —
    the paper's Inception-V3 started from the ILSVRC-2012 weights (§4.2),
    and from-scratch training on the 18-way task is seed-unstable.
    """
    rng = np.random.default_rng(seed)
    dataset = generate_alternative_dataset(scale.alt_samples_per_class,
                                           rng=rng)
    train, evaluation = dataset.train_eval_split(rng=rng)
    teacher = DriverFrameCNN(
        CnnConfig(num_classes=NUM_ALTERNATIVE_CLASSES,
                  epochs=scale.cnn_epochs, width=scale.cnn_width),
        rng=np.random.default_rng(seed + 1))
    if pretrain_teacher:
        teacher.pretrain(verbose=verbose)
    teacher.fit(train.images, train.labels, verbose=verbose)
    cnn_top1 = teacher.evaluate(evaluation.images, evaluation.labels)
    config = DistillationConfig(epochs=scale.distill_epochs,
                                init_from_teacher=init_from_teacher)
    students: dict[PrivacyLevel, DenoisingCNN] = {}
    dcnn_top1: dict[PrivacyLevel, float] = {}
    for level in PrivacyLevel:
        student = DenoisingCNN(teacher, level, config=config,
                               rng=np.random.default_rng(seed + 2))
        student.distill(train.images, verbose=verbose)
        students[level] = student
        dcnn_top1[level] = student.evaluate(evaluation.images,
                                            evaluation.labels)
    return Table3Result(cnn_top1=cnn_top1, dcnn_top1=dcnn_top1,
                        teacher=teacher, students=students, train=train,
                        evaluation=evaluation)


# ---------------------------------------------------------------------------
# Figure 3 — bandwidth per privacy path
# ---------------------------------------------------------------------------

@dataclass
class Fig3Result:
    """Per-level frame sizes and measured channel usage."""

    full_edge: int
    bytes_per_frame: dict[str, int]          # level name -> payload bytes
    reduction: dict[str, float]              # level name -> measured factor
    transfer_seconds: dict[str, float]       # per frame on the sim channel


def run_fig3(*, full_edge: int = 64, bandwidth_bps: float = 2_000_000.0,
             seed: int = 0) -> Fig3Result:
    """Measure per-level transmission cost through the simulated channel."""
    from repro.core.privacy import DistortionModule
    from repro.streaming.records import FrameRecord, payload_size
    from repro.streaming.transport import Channel

    rng = np.random.default_rng(seed)
    frame = rng.random((full_edge, full_edge), dtype=np.float64).astype("float32")
    bytes_per_frame: dict[str, int] = {}
    reduction: dict[str, float] = {}
    transfer: dict[str, float] = {}
    levels: list[PrivacyLevel | None] = [None, *PrivacyLevel]
    full_bytes = None
    for level in levels:
        module = DistortionModule(level)
        record = FrameRecord("dashcam", 0.0, module.distort(frame),
                             privacy_level=None if level is None
                             else level.value)
        name = "full" if level is None else level.value
        size = payload_size(record)
        bytes_per_frame[name] = size
        if level is None:
            full_bytes = size
        channel = Channel("uplink", base_latency=0.005,
                          bandwidth_bps=bandwidth_bps, rng=rng)
        transfer[name] = channel.transit_delay(size)
        if level is not None:
            reduction[name] = full_bytes / size
    return Fig3Result(full_edge=full_edge, bytes_per_frame=bytes_per_frame,
                      reduction=reduction, transfer_seconds=transfer)


# ---------------------------------------------------------------------------
# Figure 4 — visual distortion levels
# ---------------------------------------------------------------------------

@dataclass
class Fig4Result:
    """One frame rendered at every distortion level with quality metrics."""

    frames: dict[str, np.ndarray]     # level name -> restored frame
    edges: dict[str, int]             # level name -> downsampled edge px
    psnr: dict[str, float]            # vs. the undistorted frame


def run_fig4(*, seed: int = 0, full_edge: int = 64) -> Fig4Result:
    """Render the paper's Figure-4 strip: clean frame + 3 distortions."""
    from repro.core.privacy import distort_restore
    from repro.datasets.image_synth import DriverAppearance, SceneRenderer

    rng = np.random.default_rng(seed)
    renderer = SceneRenderer(DriverAppearance.sample(0, rng), size=full_edge)
    clean = renderer.render(DrivingBehavior.TEXTING, rng=rng)
    frames = {"full": clean}
    edges = {"full": full_edge}
    psnr = {}
    for level in PrivacyLevel:
        restored = distort_restore(clean[None, None], level)[0, 0]
        frames[level.value] = restored
        edges[level.value] = level.target_edge(full_edge)
        mse = float(np.mean((clean - restored) ** 2))
        psnr[level.value] = float(10.0 * np.log10(1.0 / max(mse, 1e-12)))
    return Fig4Result(frames=frames, edges=edges, psnr=psnr)


# ---------------------------------------------------------------------------
# Figure 2 — end-to-end system characterization
# ---------------------------------------------------------------------------

@dataclass
class Fig2Result:
    """Collection-pipeline characterization for one scripted drive."""

    duration: float
    readings_received: int
    frames_received: int
    grid_steps: int
    worst_clock_error: float
    mean_latency: float
    delivery_ratio: float


def run_fig2(*, seed: int = 0, segment_seconds: float = 10.0,
             drop_probability: float = 0.0) -> Fig2Result:
    """Run one drive end-to-end and report pipeline health metrics."""
    rng = np.random.default_rng(seed)
    script = DriveScript.standard(
        [DrivingBehavior.NORMAL, DrivingBehavior.TALKING,
         DrivingBehavior.TEXTING],
        segment_seconds=segment_seconds)
    config = SessionConfig(channel_drop=drop_probability)
    result = run_collection_drive(script, config=config, rng=rng)
    controller = result.controller
    latencies = []
    sent = 0
    delivered = 0
    for registered in controller._agents.values():
        stats = registered.uplink.stats
        latencies.extend(stats.latencies)
        sent += stats.sent
        delivered += stats.delivered
    return Fig2Result(
        duration=result.duration,
        readings_received=controller.readings_received,
        frames_received=controller.frames_received,
        grid_steps=int(result.grid.shape[0]),
        worst_clock_error=max(controller.sync_report().values()),
        mean_latency=float(np.mean(latencies)) if latencies else 0.0,
        delivery_ratio=delivered / max(sent, 1),
    )

"""Synthetic dataset substrates.

Substitutes the paper's private recordings (see DESIGN.md §2): procedural
driver-scene frames, physics-guided IMU traces, the 18-class alternative
dataset for the privacy study, and the generic-shapes pretraining task
standing in for ImageNet initialization.
"""

from repro.datasets.classes import (
    IMU_ACTIVE_BEHAVIORS,
    NUM_BEHAVIOR_CLASSES,
    NUM_EXTENDED_CLASSES,
    NUM_EXTENDED_IMU_CLASSES,
    NUM_IMU_CLASSES,
    PAPER_FRAME_COUNTS,
    DrivingBehavior,
    ExtendedBehavior,
    ExtendedImuClass,
    ImuClass,
    as_behavior,
    behavior_names,
    imu_class_names,
    resolve_behavior,
    scaled_frame_counts,
    to_extended_imu_class,
    to_imu_class,
    to_paper_behavior,
)
from repro.datasets.imu_synth import (
    DEFAULT_SAMPLE_RATE_HZ,
    DEFAULT_WINDOW_STEPS,
    GRAVITY,
    SENSOR_ORDER,
    DriverProfile,
    ImuTraceGenerator,
    generate_imu_windows,
    standardize_windows,
)
from repro.datasets.image_synth import (
    DEFAULT_IMAGE_SIZE,
    POSES,
    DriverAppearance,
    PoseSpec,
    SceneRenderer,
    render_batch,
)
from repro.datasets.dataset import (
    DrivingDataset,
    generate_driving_dataset,
    summarize,
)
from repro.datasets.alternative import (
    ALTERNATIVE_POSES,
    NUM_ALTERNATIVE_CLASSES,
    NUM_ALTERNATIVE_DRIVERS,
    AlternativeDataset,
    class_names,
    generate_alternative_dataset,
)
from repro.datasets.pretraining import SHAPE_CLASSES, generate_pretraining_dataset
from repro.datasets.windows import (
    sliding_windows,
    window_labels,
    windows_from_stream,
)

__all__ = [
    "DrivingBehavior", "ImuClass", "to_imu_class", "behavior_names",
    "imu_class_names", "scaled_frame_counts", "NUM_BEHAVIOR_CLASSES",
    "NUM_IMU_CLASSES", "PAPER_FRAME_COUNTS", "IMU_ACTIVE_BEHAVIORS",
    "ExtendedBehavior", "ExtendedImuClass", "NUM_EXTENDED_CLASSES",
    "NUM_EXTENDED_IMU_CLASSES", "as_behavior", "resolve_behavior",
    "to_extended_imu_class", "to_paper_behavior",
    "ImuTraceGenerator", "DriverProfile", "generate_imu_windows",
    "standardize_windows", "GRAVITY", "SENSOR_ORDER", "DEFAULT_SAMPLE_RATE_HZ",
    "DEFAULT_WINDOW_STEPS", "SceneRenderer", "DriverAppearance", "PoseSpec",
    "POSES", "render_batch", "DEFAULT_IMAGE_SIZE", "DrivingDataset",
    "generate_driving_dataset", "summarize", "AlternativeDataset",
    "generate_alternative_dataset", "class_names", "ALTERNATIVE_POSES",
    "NUM_ALTERNATIVE_CLASSES", "NUM_ALTERNATIVE_DRIVERS", "SHAPE_CLASSES",
    "generate_pretraining_dataset", "sliding_windows", "window_labels",
    "windows_from_stream",
]

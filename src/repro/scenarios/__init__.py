"""Declarative scenario DSL: the single source of synthetic truth.

A :class:`ScenarioSpec` describes a synthetic world — behaviour timelines
with fleet mix weights, an environment track (lighting, glare, camera
obstruction, IMU noise regimes, road profiles, GPS routes), and per-driver
identity sampling — and the compiler lowers it deterministically onto the
existing ``imu_synth``/``image_synth`` generators (spec + seed ⇒
byte-identical streams).  One committed spec file therefore drives all
three consumers: labelled training windows (``scenario_training_set``),
concurrent fleet replay (``repro serve --replay --scenario``), and
scenario-native fault injection through the serving chaos drive.
"""

from repro.scenarios.compiler import (
    CompiledScenario,
    DriverTrace,
    compile_scenario,
    synthesize_trace,
)
from repro.scenarios.extended import (
    extended_cnn_config,
    extended_rnn_config,
    project_probs_to_paper,
    train_extended_ensemble,
)
from repro.scenarios.faults import scenario_fault_schedule
from repro.scenarios.spec import (
    BehaviorSegment,
    CameraFault,
    EnvironmentTrack,
    GpsRoute,
    LightingPhase,
    NoiseRegime,
    RoadProfile,
    ScenarioSpec,
    Timeline,
)
from repro.scenarios.training import scenario_training_set

__all__ = [
    "BehaviorSegment", "CameraFault", "CompiledScenario", "DriverTrace",
    "EnvironmentTrack", "GpsRoute", "LightingPhase", "NoiseRegime",
    "RoadProfile", "ScenarioSpec", "Timeline", "compile_scenario",
    "extended_cnn_config", "extended_rnn_config", "project_probs_to_paper",
    "scenario_fault_schedule", "scenario_training_set", "synthesize_trace",
    "train_extended_ensemble",
]

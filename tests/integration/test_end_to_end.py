"""End-to-end integration: collect -> train -> classify, and the runners."""

import numpy as np
import pytest

from repro.core import (
    CnnConfig,
    DarNetEnsemble,
    DarNetSystem,
    DriveScript,
    RnnConfig,
    run_collection_drive,
)
from repro.datasets import DrivingBehavior
from repro.experiments import (
    SMOKE,
    format_fig5,
    format_table1,
    format_table2,
    format_table3,
    run_fig2,
    run_fig3,
    run_fig4,
    run_table1,
    run_table2,
    run_table3,
)


def test_collect_train_classify_roundtrip(tiny_driving_dataset):
    """The full paper pipeline at toy scale: a scripted drive is collected
    through the streaming stack, an ensemble trained on synthetic data
    classifies it per timestep, and the distraction segment is detected."""
    train, _ = tiny_driving_dataset.train_eval_split(
        rng=np.random.default_rng(0))
    ensemble = DarNetEnsemble(
        "cnn+rnn", cnn_config=CnnConfig(epochs=2, width=0.5),
        rnn_config=RnnConfig(hidden_units=16, epochs=4),
        rng=np.random.default_rng(1))
    ensemble.fit(train)
    script = DriveScript.standard(
        [DrivingBehavior.NORMAL, DrivingBehavior.TALKING],
        segment_seconds=8.0, gap_seconds=1.0)
    drive = run_collection_drive(script, rng=np.random.default_rng(2))
    system = DarNetSystem(ensemble)
    verdicts = system.classify_session(drive)
    assert len(verdicts) > 10
    # Ground truth must be attached for in-segment instants.
    labelled = [v for v in verdicts if v.true_label is not None]
    assert labelled
    agreement = np.mean([v.predicted == v.true_label for v in labelled])
    assert agreement > 0.3  # far above the 1/6 random baseline


def test_run_table1_smoke():
    result = run_table1(SMOKE, seed=0)
    assert sum(result.frame_counts.values()) > 0
    assert result.worst_clock_error < 0.1
    assert result.total_readings > 100
    text = format_table1(result)
    assert "Normal Driving" in text


def test_run_table2_smoke():
    result = run_table2(SMOKE, seed=0)
    assert set(result.results) == {"cnn+rnn", "cnn+svm", "cnn"}
    for outcome in result.results.values():
        assert 0.0 <= outcome.top1 <= 1.0
        assert outcome.confusion.shape == (6, 6)
    assert set(result.imu_only) == {"rnn", "svm"}
    report = format_table2(result)
    assert "paper= 87.02%" in report
    fig5 = format_fig5(result)
    assert "CNN+RNN" in fig5 and "confusion" in fig5


def test_run_table3_smoke():
    result = run_table3(SMOKE, seed=0)
    assert 0.0 <= result.cnn_top1 <= 1.0
    assert len(result.dcnn_top1) == 3
    report = format_table3(result)
    assert "dCNN-L" in report


def test_run_fig2():
    result = run_fig2(segment_seconds=3.0)
    assert result.delivery_ratio == pytest.approx(1.0)
    assert result.readings_received > 100
    assert result.worst_clock_error < 0.05
    assert result.grid_steps > 0


def test_run_fig2_with_loss():
    result = run_fig2(segment_seconds=3.0, drop_probability=0.3)
    assert result.delivery_ratio < 0.95


def test_run_fig3_bandwidth_ordering():
    result = run_fig3()
    assert (result.bytes_per_frame["full"] > result.bytes_per_frame["low"]
            > result.bytes_per_frame["medium"]
            > result.bytes_per_frame["high"])
    assert result.transfer_seconds["high"] < result.transfer_seconds["full"]


def test_run_fig4_distortion_monotone():
    result = run_fig4()
    assert result.edges["full"] == 64
    assert result.edges["low"] > result.edges["medium"] > result.edges["high"]
    # Heavier distortion cannot *increase* fidelity by much.
    assert result.psnr["high"] < result.psnr["low"] + 1.0
    for frame in result.frames.values():
        assert frame.shape == (64, 64)

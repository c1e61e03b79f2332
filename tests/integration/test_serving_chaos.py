"""Serving-tier chaos: the zero-loss audit under scripted shard faults."""

import os
import tempfile

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.serving import (
    run_serving_chaos,
    standard_serving_schedule,
)
from repro.streaming.faults import FaultEvent, FaultSchedule


class StubResult:
    def __init__(self, count, degraded):
        self.predictions = np.full(count, 1, dtype=np.int64)
        self.probabilities = np.full((count, 5), 0.2)
        self.confidence = np.full(count, 0.8)
        self.degraded = degraded
        self.missing = ("frames",) if degraded else ()


class StubModel:
    def predict_degraded(self, images=None, imu=None):
        count = len(imu) if imu is not None else len(images)
        return StubResult(count, images is None)


@pytest.fixture(scope="module")
def chaos_report():
    """One fixed-seed serving chaos run shared by the assertions below."""
    return run_serving_chaos(StubModel(), shards=3, drivers=4,
                             duration=12.0, grid_period=0.25, seed=0)


def test_chaos_kills_at_least_one_shard(chaos_report):
    assert chaos_report.shard_kills >= 1
    assert chaos_report.shard_deaths >= 1
    assert chaos_report.restarts >= 1
    assert chaos_report.shard_hangs >= 1


def test_chaos_loses_zero_verdicts(chaos_report):
    assert chaos_report.requested == 4 * 48
    assert chaos_report.lost == 0
    assert (chaos_report.delivered + chaos_report.deferred
            == chaos_report.requested)
    assert chaos_report.violations == []


def test_chaos_journal_is_clean_and_complete(chaos_report):
    assert chaos_report.journal_torn == 0
    assert chaos_report.unjournaled == 0
    assert chaos_report.journal_records >= chaos_report.requested
    # The disk-full window forced overflow, and it drained fully.
    assert chaos_report.journal_overflowed > 0


def test_chaos_downstream_is_exactly_once(chaos_report):
    assert chaos_report.downstream_duplicates == 0
    assert chaos_report.downstream_delivered == chaos_report.requested


def test_chaos_recovery_is_measured_and_bounded(chaos_report):
    assert chaos_report.recovery_times  # every death has a recovery time
    assert chaos_report.recovery_max <= chaos_report.recovery_bound
    assert "recovery" in chaos_report.format_report()


def test_chaos_run_is_deterministic(chaos_report):
    again = run_serving_chaos(StubModel(), shards=3, drivers=4,
                              duration=12.0, grid_period=0.25, seed=0)
    assert again.requested == chaos_report.requested
    assert again.delivered == chaos_report.delivered
    assert again.deferred == chaos_report.deferred
    assert again.recovery_times == chaos_report.recovery_times
    assert again.harness_log == chaos_report.harness_log


def test_each_hang_logs_one_on_and_one_off(chaos_report):
    """A hung shard the watchdog declares dead stays down until its
    restart; its hang switches off once, not at every step while down."""
    hangs = [(when, state) for when, kind, _, state
             in chaos_report.harness_log if kind == "executor_hang"]
    assert [state for _, state in hangs] == ["on", "off"]
    assert chaos_report.shard_hangs == 1


def test_two_shard_drive_hangs_a_shard_it_has():
    """The hang aims at a shard every fleet has, so a 2-shard drive
    hangs one too, and recovers from it."""
    report = run_serving_chaos(StubModel(), shards=2, drivers=2,
                               duration=8.0, seed=0)
    hangs = [(target, state) for _, kind, target, state
             in report.harness_log if kind == "executor_hang"]
    assert hangs == [("shard-0", "on"), ("shard-0", "off")]
    assert report.shard_hangs == 1
    assert report.violations == []


def test_chaos_metrics_include_resilience_series(chaos_report):
    names = {entry["name"] for entry in chaos_report.metrics["metrics"]}
    assert {"serving_supervisor_restarts_total",
            "serving_journal_disk_bytes",
            "serving_supervisor_recovery_seconds"} <= names


def test_impossible_recovery_bound_is_a_violation():
    report = run_serving_chaos(StubModel(), shards=2, drivers=2,
                               duration=8.0, seed=0,
                               recovery_bound=1e-6)
    assert any("recovery" in violation for violation in report.violations)
    assert "VIOLATIONS" in report.format_report()


def test_schedule_without_kills_flags_unengaged_chaos():
    schedule = FaultSchedule([
        FaultEvent(100.0, 101.0, "shard_kill", "shard-0"),  # never fires
    ])
    report = run_serving_chaos(StubModel(), shards=2, drivers=2,
                               duration=4.0, seed=0, schedule=schedule)
    assert any("did not engage" in violation
               for violation in report.violations)


def test_invalid_configuration_raises():
    with pytest.raises(ConfigurationError):
        run_serving_chaos(StubModel(), shards=1)
    with pytest.raises(ConfigurationError):
        run_serving_chaos(StubModel(), drivers=0)


def test_bad_drive_shape_raises_before_any_temp_journal(tmp_path,
                                                       monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(ConfigurationError):
        run_serving_chaos(StubModel(), drivers=2, duration=-1.0)
    assert os.listdir(tmp_path) == []


def test_standard_schedule_covers_all_serving_fault_kinds():
    kinds = {event.kind for event in standard_serving_schedule(20.0).events}
    assert kinds == {"shard_kill", "executor_hang", "sink_blackhole",
                     "journal_disk_full"}

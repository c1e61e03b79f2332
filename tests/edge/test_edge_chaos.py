"""The deterministic edge chaos drive holds its invariants."""

import os
import tempfile

import numpy as np
import pytest

from repro.edge import run_edge_chaos, standard_edge_schedule
from repro.edge.chaos import minimal_canary_percent
from repro.exceptions import ConfigurationError
from repro.streaming.faults import FaultEvent, FaultSchedule


def test_invalid_drive_shape_raises(edge_ensemble):
    with pytest.raises(ConfigurationError):
        run_edge_chaos(edge_ensemble, agents=0)
    with pytest.raises(ConfigurationError):
        run_edge_chaos(edge_ensemble, duration=0.0)


def test_bad_drive_shape_raises_before_any_workspace(
        edge_ensemble, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(ConfigurationError):
        run_edge_chaos(edge_ensemble, agents=1, grid_period=0.0)
    assert os.listdir(tmp_path) == []


def test_minimal_canary_percent_is_smallest_nonempty_step():
    agents = [f"edge-{i}" for i in range(3)]
    percent = minimal_canary_percent(3, agents)
    assert percent in {float(p) for p in range(5, 105, 5)}
    assert minimal_canary_percent(3, []) == 100.0


def test_standard_schedule_covers_all_three_fault_kinds():
    schedule = standard_edge_schedule(24.0)
    kinds = {event.kind for event in schedule.events}
    assert kinds == {"uplink_blackhole", "ota_corrupt_artifact",
                     "ota_download_kill"}


def test_chaos_drive_holds_every_invariant(edge_ensemble, tmp_path):
    report = run_edge_chaos(edge_ensemble, agents=2, duration=12.0,
                            seed=0, workdir=str(tmp_path))
    assert report.violations == [], report.format_report()
    # Zero verdict loss across the blackhole, exactly once.
    assert report.produced == report.delivered > 0
    assert report.duplicates == 0 and report.lost == 0
    assert report.spool_residue == 0
    # Every delivered record replays from the controller journal.
    assert report.journal_torn == 0
    assert report.journal_records == report.delivered
    assert report.uplink_blackholes == 2  # one per agent
    # The in-transit corruption of v2 was digest-rejected, never pinned.
    assert report.integrity_rejections >= 1
    assert all(version != 2 for version in report.final_versions.values())
    # The sabotaged v3 canary rolled back and was withdrawn fleet-wide.
    assert report.ota_rollbacks >= 1
    assert 3 in report.bad_versions
    assert all(version != 3 for version in report.final_versions.values())
    # The killed download resumed rather than restarting.
    assert report.ota_kills == 1
    assert report.bytes_resumed > 0
    # Nobody ended the drive on a regressed model.
    for accuracy in report.final_accuracy.values():
        assert accuracy >= report.baseline_accuracy - 0.10
    assert "invariants: all hold" in report.format_report()


def test_chaos_without_faults_is_a_clean_drive(edge_ensemble, tmp_path):
    report = run_edge_chaos(edge_ensemble, agents=1, duration=6.0,
                            seed=3, workdir=str(tmp_path),
                            schedule=FaultSchedule([]))
    assert report.violations == [], report.format_report()
    assert report.uplink_blackholes == 0
    assert report.ota_kills == 0
    assert report.lost == 0 and report.spool_residue == 0
    assert report.ota_installs >= 1
    assert os.listdir(tmp_path)  # the caller's workdir is left alone


def test_fault_that_never_fires_did_not_engage(edge_ensemble, tmp_path):
    schedule = FaultSchedule([
        FaultEvent(500.0, 501.0, "uplink_blackhole", "edge-0")])
    report = run_edge_chaos(edge_ensemble, agents=1, duration=4.0, seed=3,
                            workdir=str(tmp_path), schedule=schedule)
    assert report.uplink_blackholes == 0
    assert report.violations
    assert all("did not engage" in v for v in report.violations)


def test_chaos_drive_deletes_only_the_workspace_it_created(
        edge_ensemble, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    report = run_edge_chaos(edge_ensemble, agents=1, duration=4.0,
                            seed=3, schedule=FaultSchedule([]))
    assert report.violations == [], report.format_report()
    assert os.listdir(tmp_path) == []


def test_chaos_drive_is_deterministic(edge_ensemble, tmp_path):
    kwargs = dict(agents=1, duration=6.0, seed=7,
                  schedule=FaultSchedule([]))
    first = run_edge_chaos(edge_ensemble,
                           workdir=str(tmp_path / "a"), **kwargs)
    second = run_edge_chaos(edge_ensemble,
                            workdir=str(tmp_path / "b"), **kwargs)
    assert first.produced == second.produced
    assert first.delivered == second.delivered
    assert first.final_versions == second.final_versions
    assert np.isclose(first.baseline_accuracy, second.baseline_accuracy)

"""Mixed-class scenario replay: golden fixture, zero loss, new classes.

The committed ``scenario_mixed_spec.json`` schedules old and new classes
side by side (NORMAL/TEXTING/TALKING next to DROWSY and CAMERA_COVERED)
plus a scheduled camera blackout.  Replaying it through the server with
extended heads must (a) deliver one verdict per grid instant per driver
— zero loss, (b) match the committed golden verdict sequence, and (c)
actually surface both new classes in the stream.

Regenerate the golden fixture deliberately after an intended behaviour
change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/serving/test_scenario_replay.py -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.datasets import DrivingBehavior, ExtendedBehavior
from repro.exceptions import ConfigurationError
from repro.scenarios import ScenarioSpec
from repro.serving import replay_concurrent_drives

GOLDEN_PATH = Path(__file__).parent.parent / "fixtures" / \
    "scenario_mixed_golden_verdicts.json"


@pytest.mark.slow
def test_mixed_scenario_replay_matches_golden(extended_ensemble,
                                              mixed_scenario_spec):
    """The mixed-fleet replay is pinned byte for byte."""
    report = replay_concurrent_drives(extended_ensemble,
                                      scenario=mixed_scenario_spec)
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_PATH.write_text(json.dumps(
            {"scenario": mixed_scenario_spec.name,
             "verdicts": report.verdict_log}, indent=1) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH.name}")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["scenario"] == mixed_scenario_spec.name
    assert len(report.verdict_log) == len(golden["verdicts"])
    for index, (got, want) in enumerate(
            zip(report.verdict_log, golden["verdicts"])):
        assert got == want, f"verdict #{index} diverged"


@pytest.mark.slow
def test_mixed_scenario_has_zero_verdict_loss_and_new_classes(
        extended_ensemble, mixed_scenario_spec):
    """The tentpole acceptance: every driver gets a verdict at every grid
    instant despite the scheduled blackout, and both extended classes
    appear in the delivered stream."""
    report = replay_concurrent_drives(extended_ensemble,
                                      scenario=mixed_scenario_spec)
    assert report.scenario == "mixed-fleet"
    assert all(count == report.instants
               for count in report.verdicts_per_session.values())
    assert report.masked_frames > 0  # the blackout actually withheld frames
    assert report.degraded_verdicts > 0  # ...and the server degraded, not died
    predicted = {verdict["predicted"] for verdict in report.verdict_log}
    assert int(ExtendedBehavior.DROWSY) in predicted
    assert int(ExtendedBehavior.CAMERA_COVERED) in predicted
    assert int(DrivingBehavior.NORMAL) in predicted


@pytest.mark.slow
def test_mixed_scenario_replay_is_deterministic(extended_ensemble,
                                                mixed_scenario_spec):
    """Satellite #3: same spec + seed ⇒ the identical verdict stream."""
    first = replay_concurrent_drives(extended_ensemble,
                                     scenario=mixed_scenario_spec)
    second = replay_concurrent_drives(extended_ensemble,
                                      scenario=mixed_scenario_spec)
    assert first.verdict_log == second.verdict_log
    assert len(first.verdict_log) == first.verdicts


def test_legacy_replay_equals_explicit_paper_sweep(serving_ensemble):
    """Satellite #1: replaying with no scenario is the same world as the
    explicit paper-sweep spec — the 6-class path is unchanged."""
    implicit = replay_concurrent_drives(serving_ensemble, drivers=2,
                                        duration=3.0, seed=11)
    explicit = replay_concurrent_drives(
        serving_ensemble,
        scenario=ScenarioSpec.paper_sweep(drivers=2, duration=3.0, seed=11))
    assert implicit.verdict_log == explicit.verdict_log
    assert implicit.scenario == explicit.scenario == "paper-sweep"
    assert explicit.masked_frames == 0


def test_scenario_and_script_are_mutually_exclusive(serving_ensemble):
    from repro.core.darnet import DriveScript

    with pytest.raises(ConfigurationError):
        replay_concurrent_drives(
            serving_ensemble,
            scenario=ScenarioSpec.paper_sweep(drivers=1, duration=2.0),
            script=DriveScript.standard())

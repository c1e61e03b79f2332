"""Acceptance scenario: the scripted chaos drive end to end.

One 30-second drive carries all three fault classes — a 3 s total
blackout, the dashcam dying at t=15, and a stuck gyroscope — and the
fault-tolerance layer must hold: near-lossless IMU delivery, a clean
REMOTE -> LOCAL -> REMOTE failover without flapping, quarantine of the
stuck sensor, and a (degraded, flagged) verdict for every window.
"""

import math

import numpy as np
import pytest

from repro.streaming import (
    ChaosHarness,
    Channel,
    FaultEvent,
    FaultSchedule,
    FaultableSensor,
    HealthState,
    Lever,
    ProcessingLocation,
    channel_blackhole,
    run_chaos_drive,
    standard_chaos_schedule,
)
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def chaos_report():
    return run_chaos_drive(seed=0)


# -- schedule / harness plumbing ---------------------------------------------

def test_fault_event_validation():
    with pytest.raises(ConfigurationError):
        FaultEvent(0.0, 1.0, "meteor_strike", "*")
    with pytest.raises(ConfigurationError):
        FaultEvent(2.0, 1.0, "blackout", "*")
    event = FaultEvent(1.0, 2.0, "blackout", "uplink")
    assert event.active(1.5) and not event.active(2.0)
    assert event.matches("uplink") and not event.matches("other")
    assert FaultEvent(0.0, 1.0, "blackout", "*").matches("anything")


def test_schedule_queries():
    schedule = standard_chaos_schedule(30.0)
    assert schedule.active_for("blackout", "any-channel", 9.0) is not None
    assert schedule.active_for("blackout", "any-channel", 12.0) is None
    assert schedule.active_for("agent_silence", "dashcam", 20.0) is not None
    assert schedule.active_for("agent_silence", "phone", 20.0) is None


def test_faultable_sensor_modes(rng):
    inner_calls = []

    class Probe:
        name, dimension = "probe", 3

        def sample(self, t):
            inner_calls.append(t)
            return np.array([t, 0.0, 0.0])

    sensor = FaultableSensor(Probe())
    assert sensor.sample(1.0)[0] == 1.0
    sensor.set_mode("dropout")
    assert sensor.sample(2.0) is None
    sensor.set_mode("stuck")
    first = sensor.sample(3.0)
    assert np.array_equal(sensor.sample(4.0), first)
    sensor.set_mode("spike", magnitude=100.0)
    assert sensor.sample(5.0)[0] == pytest.approx(105.0)
    sensor.set_mode(None)
    assert sensor.sample(6.0)[0] == pytest.approx(6.0)
    with pytest.raises(ConfigurationError):
        sensor.set_mode("gremlins")


def test_harness_blackout_restores_drop_probability(rng):
    channel = Channel("uplink", drop_probability=0.05, rng=rng)
    harness = ChaosHarness(
        FaultSchedule([FaultEvent(1.0, 2.0, "blackout", "uplink")]),
        [channel_blackhole("blackout", "uplink", channel)])
    harness.apply(0.5)
    assert channel.drop_probability == pytest.approx(0.05)
    harness.apply(1.5)
    assert channel.drop_probability == pytest.approx(1.0)
    harness.apply(2.5)
    assert channel.drop_probability == pytest.approx(0.05)
    kinds = [(kind, state) for _, kind, _, state in harness.log]
    assert kinds == [("blackout", "on"), ("blackout", "off")]


def test_trigger_lever_fires_while_ready_or_once_per_event():
    schedule = FaultSchedule([FaultEvent(1.0, 3.0, "shard_kill", "a"),
                              FaultEvent(1.0, 3.0, "shard_kill", "b")])
    ready = {"a": True, "b": True}
    fired = []

    def lever(target: str, once: bool) -> Lever:
        return Lever("shard_kill", target, lambda event: fired.append(target),
                     ready=lambda: ready[target], once=once)

    harness = ChaosHarness(schedule, [lever("a", False), lever("b", True)])
    for now in (0.5, 1.0, 1.5, 2.0):
        harness.apply(now)
    ready["a"] = False
    harness.apply(2.5)
    assert fired == ["a", "b", "a", "a"]
    assert harness.count("shard_kill") == 4
    assert harness.unengaged() == []


def test_level_lever_logs_one_off_when_its_target_stops_being_ready():
    schedule = FaultSchedule([FaultEvent(1.0, 3.0, "executor_hang", "s")])
    state = {"up": True, "hung": False}
    harness = ChaosHarness(schedule, [Lever(
        "executor_hang", "s", lambda event: state.update(hung=True),
        lambda now: state.update(hung=False), ready=lambda: state["up"])])
    harness.apply(1.0)
    assert state["hung"]
    state["up"] = False  # the watchdog declared the hung target dead
    for now in (1.5, 2.0, 3.0, 3.5):
        harness.apply(now)
    assert not state["hung"]
    assert [(t, s) for t, _, _, s in harness.log] == [(1.0, "on"),
                                                      (1.5, "off")]


def test_unengaged_names_kinds_aimed_at_a_lever_that_never_switched_on(rng):
    channel = Channel("uplink", rng=rng)
    harness = ChaosHarness(FaultSchedule([
        FaultEvent(5.0, 6.0, "blackout", "uplink"),   # after the run
        FaultEvent(0.0, 1.0, "sink_blackhole", "*"),  # no such lever
    ]), [channel_blackhole("blackout", "uplink", channel)])
    harness.apply(0.5)
    [violation] = harness.unengaged()
    assert "blackout" in violation and "did not engage" in violation


def test_unengaged_fault_is_a_streaming_drive_violation():
    report = run_chaos_drive(seed=3, duration=4.0, settle=1.0,
                             schedule=FaultSchedule([FaultEvent(
                                 50.0, 51.0, "sensor_stuck",
                                 "phone/gyroscope")]))
    assert report.harness_log == []
    assert any("did not engage" in violation
               for violation in report.violations)


# -- the acceptance criteria -------------------------------------------------

def test_imu_recovery_meets_sla(chaos_report):
    """≥ 99% of polled IMU tuples reach the controller despite the 3 s
    blackout and 2% steady-state loss: the ARQ layer recovers the rest."""
    assert chaos_report.imu_taken > 3000
    assert chaos_report.imu_delivery_ratio >= 0.99
    assert chaos_report.phone_sender_stats.retransmissions > 0
    assert chaos_report.phone_sender_stats.shed_data == 0
    assert chaos_report.phone_sender_stats.abandoned == 0


def test_breaker_fails_over_and_recovers_without_flapping(chaos_report):
    transitions = chaos_report.breaker_transitions
    assert len(transitions) <= 2
    locations = [location for _, location in transitions]
    assert locations == [ProcessingLocation.LOCAL, ProcessingLocation.REMOTE]
    trip_time, recovery_time = (t for t, _ in transitions)
    # Tripped during the 8-11 s blackout, recovered after it cleared.
    assert 8.0 <= trip_time <= 11.5
    assert recovery_time > 11.0
    assert chaos_report.breaker_location == "remote"


def test_dashcam_declared_silent_phone_survives(chaos_report):
    assert chaos_report.agent_states["dashcam"] is HealthState.SILENT
    assert chaos_report.agent_states["phone"] is HealthState.HEALTHY
    # The dashcam died at t=15 and was declared silent within the
    # configured 3 s silence threshold (plus in-flight drain).
    silent_at = next(t for t, s in chaos_report.agent_transitions["dashcam"]
                     if s is HealthState.SILENT and t > 15.0)
    assert silent_at <= 20.0


def test_stuck_gyroscope_is_quarantined(chaos_report):
    assert "phone/gyroscope" in chaos_report.health["ever_quarantined"]
    assert chaos_report.health["fault_counts"]["stuck"] >= 1
    assert chaos_report.readings_quarantined > 0
    # Arrival accounting includes quarantined readings (they arrived).
    assert chaos_report.readings_quarantined < chaos_report.imu_arrived


def test_privacy_escalates_before_shedding(chaos_report):
    assert chaos_report.privacy_escalations >= 1
    if chaos_report.first_shed_at is not None:
        assert chaos_report.first_escalation_at is not None
        assert chaos_report.first_escalation_at < chaos_report.first_shed_at


def test_every_window_gets_a_verdict(chaos_report, tiny_driving_dataset):
    """A verdict per analysis window, degraded ones honestly flagged."""
    from repro.core import CnnConfig, DarNetEnsemble, RnnConfig

    windows = chaos_report.windows
    assert len(windows) == 30
    # Post-death windows lose the frame stream but never the IMU stream.
    assert all(w.has_imu for w in windows)
    degraded = [w for w in windows if w.degraded]
    assert degraded and all(w.missing == ("frames",) for w in degraded)
    assert all(w.start >= 15.0 for w in degraded)

    train, evaluation = tiny_driving_dataset.train_eval_split(
        rng=np.random.default_rng(0))
    ensemble = DarNetEnsemble(
        "cnn+rnn", cnn_config=CnnConfig(epochs=1, width=0.5),
        rnn_config=RnnConfig(hidden_units=8, epochs=1),
        rng=np.random.default_rng(1))
    ensemble.fit(train)
    verdicts = []
    for window in windows:
        images = evaluation.images[:1] if window.has_frames else None
        imu = evaluation.imu[:1] if window.has_imu else None
        verdicts.append(ensemble.predict_degraded(images=images, imu=imu))
    assert len(verdicts) == len(windows)
    for window, verdict in zip(windows, verdicts):
        assert np.isfinite(verdict.probabilities).all()
        assert verdict.degraded == window.degraded
        assert verdict.missing == window.missing
    full = [v.confidence.mean() for w, v in zip(windows, verdicts)
            if not w.degraded]
    assert full, "some windows must have run at full fidelity"


def test_chaos_drive_is_deterministic():
    first = run_chaos_drive(seed=3, duration=6.0, settle=1.0,
                            schedule=FaultSchedule(
                                [FaultEvent(2.0, 3.0, "blackout", "*")]))
    second = run_chaos_drive(seed=3, duration=6.0, settle=1.0,
                             schedule=FaultSchedule(
                                 [FaultEvent(2.0, 3.0, "blackout", "*")]))
    assert first.imu_taken == second.imu_taken
    assert first.imu_arrived == second.imu_arrived
    assert first.harness_log == second.harness_log
    assert math.isclose(first.imu_delivery_ratio, second.imu_delivery_ratio)


def test_run_chaos_drive_validates_arguments():
    with pytest.raises(ConfigurationError):
        run_chaos_drive(duration=-1.0)
    with pytest.raises(ConfigurationError):
        run_chaos_drive(step=0.0)

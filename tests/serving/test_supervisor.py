"""Shard supervisor: routing, watchdog failover, migration, restart
backoff, and the request degradation ladder."""

import os

import numpy as np
import pytest

from repro.exceptions import (
    ConfigurationError,
    JournalError,
    ServingError,
    ShardTimeoutError,
    ShardUnavailableError,
)
from repro.serving import HashRing, ShardSupervisor
from repro.serving.journal import (
    KIND_DEFERRED,
    KIND_VERDICT,
    VerdictJournal,
    replay_journal,
)
from repro.serving.supervisor import SHARD_DOWN, SHARD_UP


class StubResult:
    def __init__(self, count, degraded):
        self.predictions = np.full(count, 2, dtype=np.int64)
        self.probabilities = np.full((count, 5), 0.2)
        self.confidence = np.full(count, 0.9)
        self.degraded = degraded
        self.missing = ("frames",) if degraded else ()


class StubModel:
    """predict_degraded-shaped stand-in: no training, instant answers."""

    def predict_degraded(self, images=None, imu=None):
        count = len(imu) if imu is not None else len(images)
        return StubResult(count, images is None)


def make_supervisor(**overrides):
    options = dict(shards=3, degraded_after=0.5, silent_after=1.0,
                   checkpoint_interval=0.5, backoff_base=1.0,
                   backoff_cap=4.0, request_deadline=2.0,
                   heartbeat_interval=0.25,
                   server_options={"max_batch": 8, "max_delay": 0.02})
    options.update(overrides)
    return ShardSupervisor(StubModel(), **options)


def run_drive(supervisor, session_ids, *, start=0.0, until, step=0.25,
              rng=None, before_step=None):
    """Ingest + request + supervise on a fixed grid."""
    rng = rng or np.random.default_rng(0)
    now = start
    while now < until:
        if before_step is not None:
            before_step(now)
        for sid in session_ids:
            supervisor.ingest_imu(sid, now, rng.normal(size=12))
            supervisor.request_verdict(sid, now)
        supervisor.step(now)
        now += step
    return now


# -- hash ring ------------------------------------------------------------


def test_ring_routes_deterministically():
    ring = HashRing()
    for name in ("a", "b", "c"):
        ring.add(name)
    routes = {f"k{i}": ring.route(f"k{i}") for i in range(50)}
    assert routes == {f"k{i}": ring.route(f"k{i}") for i in range(50)}
    assert len(set(routes.values())) == 3  # every shard owns a slice


def test_ring_removal_only_moves_the_dead_slice():
    ring = HashRing()
    for name in ("a", "b", "c"):
        ring.add(name)
    before = {f"k{i}": ring.route(f"k{i}") for i in range(100)}
    ring.remove("b")
    for key, owner in before.items():
        if owner != "b":
            assert ring.route(key) == owner  # survivors keep their keys


def test_ring_exclude_and_empty():
    ring = HashRing()
    assert ring.route("k") is None
    ring.add("only")
    assert ring.route("k", exclude={"only"}) is None


# -- supervisor basics ----------------------------------------------------


def test_invalid_configuration_raises():
    with pytest.raises(ConfigurationError):
        make_supervisor(shards=0)
    with pytest.raises(ConfigurationError):
        make_supervisor(backoff_base=0.0)
    with pytest.raises(ConfigurationError):
        make_supervisor(request_deadline=0.0)


def test_sessions_route_to_their_hash_home():
    supervisor = make_supervisor()
    try:
        sids = [supervisor.open_session(d) for d in range(8)]
        for sid in sids:
            assert supervisor.assignment(sid) == supervisor.ring.route(sid)
        with pytest.raises(ServingError):
            supervisor.open_session(0)  # duplicate session id
        supervisor.close_session(sids[0])
        assert sids[0] not in supervisor.sessions
    finally:
        supervisor.close()


def test_happy_path_delivers_every_window():
    supervisor = make_supervisor()
    try:
        sids = [supervisor.open_session(d) for d in range(4)]
        end = run_drive(supervisor, sids, until=5.0)
        supervisor.drain(end)
        assert supervisor.stats["deaths"] == 0
        requested = 4 * 20
        assert len(supervisor.delivered_ids) == requested
        assert len(supervisor.deferred_ids) == 0
        assert len(supervisor.sink.delivered) == requested
    finally:
        supervisor.close()


def test_crashed_shard_handle_refuses_calls():
    supervisor = make_supervisor()
    try:
        handle = supervisor.shard("shard-0")
        handle.crashed = True
        with pytest.raises(ShardUnavailableError):
            handle.heartbeat(0.0)
        handle.crashed = False
        handle.hung = True
        with pytest.raises(ShardTimeoutError):
            handle.step(0.0)
    finally:
        supervisor.close()


# -- failover -------------------------------------------------------------


def crash_and_settle(supervisor, sids, *, crash_at=3.0, until=12.0):
    victims = {}

    def chaos(now):
        if now >= crash_at and not victims:
            name = supervisor.assignment(sids[0])
            victims["name"] = name
            supervisor.shard(name).crashed = True

    end = run_drive(supervisor, sids, until=until, before_step=chaos)
    supervisor.drain(end)
    return victims["name"]


def test_watchdog_detects_death_and_migrates():
    supervisor = make_supervisor()
    try:
        sids = [supervisor.open_session(d) for d in range(4)]
        victim = crash_and_settle(supervisor, sids)
        stats = supervisor.stats
        assert stats["deaths"] == 1
        assert stats["restarts"] == 1
        assert stats["migrations"] >= 1
        # The victim's sessions ended up supervised by a live shard.
        for sid in sids:
            owner = supervisor.assignment(sid)
            assert owner is not None
            assert supervisor.shard(owner).state == SHARD_UP
        # Checkpoint migration happened away from the dead shard.
        away = [m for m in supervisor.migrations if m.source == victim]
        assert away and all(m.via == "checkpoint" for m in away)
    finally:
        supervisor.close()


def test_failover_loses_no_windows():
    supervisor = make_supervisor()
    try:
        sids = [supervisor.open_session(d) for d in range(4)]
        crash_and_settle(supervisor, sids)
        requested = 4 * int(12.0 / 0.25)
        resolved = supervisor.delivered_ids | supervisor.deferred_ids
        assert len(resolved) == requested
        assert not (supervisor.delivered_ids & supervisor.deferred_ids)
        # Durability: every resolved window is in the journal.
        replay = supervisor.journal.replay()
        assert replay.ids >= resolved
        assert replay.torn == 0
        kinds = {r.record_id: r.kind for r in replay.records}
        assert all(kinds[key] == KIND_VERDICT
                   for key in supervisor.delivered_ids)
        assert all(kinds[key] == KIND_DEFERRED
                   for key in supervisor.deferred_ids)
        # Exactly-once downstream.
        downstream_ids = [r.record_id for r in supervisor.sink.delivered]
        assert len(downstream_ids) == len(set(downstream_ids))
    finally:
        supervisor.close()


def test_close_deletes_only_the_journal_it_created(tmp_path):
    """The temp-file journal a supervisor made for itself goes with it
    on a clean close; a journal the caller passed in stays."""
    supervisor = make_supervisor()
    created = supervisor.journal.path
    run_drive(supervisor, [supervisor.open_session(0)], until=1.0)
    supervisor.drain(1.0)
    supervisor.close()
    assert not os.path.exists(created)
    supervisor.close()  # idempotent

    supervisor = make_supervisor()
    supervisor.journal.simulate_disk_full(True)
    run_drive(supervisor, [supervisor.open_session(0)], until=1.0)
    supervisor.drain(1.0)
    with pytest.raises(JournalError):
        supervisor.close()
    supervisor.close()
    assert os.path.exists(supervisor.journal.path)  # kept: close failed
    os.remove(supervisor.journal.path)

    passed = str(tmp_path / "verdicts.wal")
    supervisor = make_supervisor(journal=VerdictJournal(passed))
    run_drive(supervisor, [supervisor.open_session(0)], until=1.0)
    supervisor.drain(1.0)
    supervisor.close()
    assert len(replay_journal(passed).records) == 4


def test_close_on_crashed_shard_never_resurrects_the_session():
    """Closing a session whose shard has crashed — but the watchdog has
    not noticed yet — must fully forget it: the later death sweep must
    neither raise nor migrate the closed session onto a survivor."""
    supervisor = make_supervisor()
    try:
        sids = [supervisor.open_session(d) for d in range(4)]
        end = run_drive(supervisor, sids, until=1.0)
        victim_sid = sids[0]
        home = supervisor.assignment(victim_sid)
        supervisor.shard(home).crashed = True  # dead but undetected
        supervisor.close_session(victim_sid)   # evict fails under the hood
        assert victim_sid not in supervisor.shard(home).sessions
        now = end
        while supervisor.shard(home).state == SHARD_UP:
            supervisor.step(now)  # death sweep must not KeyError
            now += 0.25
        assert victim_sid not in supervisor.sessions
        assert not any(m.session_id == victim_sid
                       for m in supervisor.migrations)
        with pytest.raises(ServingError):
            supervisor.assignment(victim_sid)
    finally:
        supervisor.close()


def test_migrated_ring_state_is_bit_exact():
    supervisor = make_supervisor(checkpoint_interval=0.25)
    try:
        sid = supervisor.open_session(0)
        rng = np.random.default_rng(1)
        samples = [rng.normal(size=12) for _ in range(10)]
        for k, sample in enumerate(samples):
            now = 0.25 * k
            supervisor.ingest_imu(sid, now, sample)
            supervisor.step(now)
        home = supervisor.assignment(sid)
        expected = supervisor.shard(home).export_session(sid).window()
        supervisor.shard(home).crashed = True
        now = 2.5
        while supervisor.assignment(sid) == home:
            supervisor.step(now)
            now += 0.25
        adoptee = supervisor.assignment(sid)
        migrated = supervisor.shard(adoptee).export_session(sid).window()
        np.testing.assert_array_equal(migrated, expected)
    finally:
        supervisor.close()


def test_restart_backoff_doubles():
    supervisor = make_supervisor(shards=2, backoff_base=1.0,
                                 backoff_factor=2.0, backoff_cap=4.0)
    try:
        handle = supervisor.shard("shard-0")
        observed = []
        now = 0.0
        for _ in range(4):
            handle.crashed = True
            while handle.state == SHARD_UP:
                supervisor.step(now)
                now += 0.25
            observed.append(handle.backoff)
            while handle.state == SHARD_DOWN:
                supervisor.step(now)
                now += 0.25
        assert observed == [1.0, 2.0, 4.0, 4.0]  # doubling, then capped
        assert supervisor.stats["restarts"] == 4
        assert len(supervisor.recovery_times) == 4
    finally:
        supervisor.close()


def test_restarted_shard_gets_its_home_sessions_back_live():
    supervisor = make_supervisor()
    try:
        sids = [supervisor.open_session(d) for d in range(6)]
        victim = crash_and_settle(supervisor, sids, until=15.0)
        home_again = [sid for sid in sids
                      if supervisor.ring.route(sid) == victim]
        assert home_again  # the victim is back in the ring with its slice
        for sid in home_again:
            assert supervisor.assignment(sid) == victim
        back = [m for m in supervisor.migrations
                if m.target == victim and m.via == "live"]
        assert back  # rebalance used live eviction, not a stale checkpoint
    finally:
        supervisor.close()


def test_hung_shard_is_declared_dead_and_replaced():
    supervisor = make_supervisor()
    try:
        sids = [supervisor.open_session(d) for d in range(4)]

        def chaos(now):
            if now >= 3.0:
                handle = supervisor.shard("shard-0")
                if handle.state == SHARD_UP and handle.restarts == 0:
                    handle.hung = True

        end = run_drive(supervisor, sids, until=12.0, before_step=chaos)
        supervisor.drain(end)
        assert supervisor.stats["deaths"] >= 1
        requested = 4 * int(12.0 / 0.25)
        resolved = supervisor.delivered_ids | supervisor.deferred_ids
        assert len(resolved) == requested
    finally:
        supervisor.close()


# -- degradation ladder ---------------------------------------------------


def test_all_shards_down_defers_instead_of_losing():
    supervisor = make_supervisor(shards=2)
    try:
        sid = supervisor.open_session(0)
        for name in supervisor.shard_names:
            supervisor.shard(name).crashed = True
        now = 0.0
        while supervisor.shards_up:  # let the watchdog declare both dead
            supervisor.ingest_imu(sid, now, np.zeros(12))
            supervisor.request_verdict(sid, now)
            supervisor.step(now)
            now += 0.25
        window_id = supervisor.request_verdict(sid, now)
        assert (sid, window_id) in supervisor.deferred_ids
        assert supervisor.assignment(sid) is None  # parked, not lost
        replay = supervisor.journal.replay()
        assert (sid, window_id) in replay.ids
    finally:
        supervisor.close()


def test_expired_request_is_journaled_and_deferred():
    # A tiny deadline with a huge batch threshold: requests sit in the
    # queue past expiry and must come back as deferred, not vanish.
    supervisor = make_supervisor(
        request_deadline=0.1,
        server_options={"max_batch": 64, "max_delay": 30.0})
    try:
        sid = supervisor.open_session(0)
        supervisor.ingest_imu(sid, 0.0, np.zeros(12))
        window_id = supervisor.request_verdict(sid, 0.0)
        supervisor.step(1.0)  # past expires_at=0.1
        assert (sid, window_id) in supervisor.deferred_ids
        assert supervisor.pending_windows == 0
    finally:
        supervisor.close()


def test_metrics_snapshot_carries_resilience_series():
    supervisor = make_supervisor()
    try:
        sids = [supervisor.open_session(d) for d in range(3)]
        crash_and_settle(supervisor, sids, until=10.0)
        names = {entry["name"]
                 for entry in supervisor.metrics_snapshot()["metrics"]}
        assert {"serving_supervisor_restarts_total",
                "serving_supervisor_migrations_total",
                "serving_supervisor_shards_up",
                "serving_supervisor_recovery_seconds",
                "serving_journal_disk_bytes",
                "serving_sink_delivered_total"} <= names
        assert supervisor.recovery_p99 > 0.0
    finally:
        supervisor.close()

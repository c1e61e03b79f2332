"""Edge chaos: uplink loss, corrupt OTA artifacts, sabotaged canaries.

The serving chaos drive proves the controller's side of the house; this
module proves the *device* side.  A small fleet of
:class:`~repro.edge.agent.EdgeAgent`\\ s replays scripted drives while a
:class:`~repro.streaming.faults.FaultSchedule` injects the three edge
fault kinds:

* ``uplink_blackhole`` — the agent's uplink drops every packet for a
  window; verdicts must accumulate in the disk spool and drain
  exactly-once on reconnect;
* ``ota_corrupt_artifact`` — every chunk served for the targeted release
  version is bit-flipped in transit; the digest gate must reject the
  release before any weights are loaded or swapped;
* ``ota_download_kill`` — the targeted agent's updater process dies
  mid-download and is rebuilt on the same state directory; the download
  must *resume* from the persisted partial files, not restart.

On top of the schedule, the drive publishes a **sabotaged canary**: a
release whose artifacts frame and verify perfectly (valid digests, valid
signature) but whose weights have been scrambled — the rollout poison
digests cannot catch.  The canary cohort must install it, watch probe
accuracy collapse, roll back to the previous model automatically and
mark the release bad fleet-wide.

:func:`run_edge_chaos` audits the invariants and collects violations
(not raises), so the CLI can print the audit and exit non-zero — the
``chaos-smoke`` CI job runs exactly that.  The faults move through the
one :class:`~repro.streaming.faults.ChaosHarness`, and the controller
side is checked by the ledger audit the serving drive uses,
:func:`~repro.serving.journal.audit_ledger`.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.darnet import DriveScript
from repro.core.model_store import artifact_digests, save_ensemble
from repro.datasets.dataset import generate_driving_dataset
from repro.edge.agent import EdgeAgent
from repro.edge.manifest import ReleaseManifest
from repro.edge.ota import DOWNLOADING, IDLE, OtaClient, OtaServer
from repro.edge.spool import EdgeSpool, replay_spool
from repro.edge.uploader import EdgeUplinkReceiver, EdgeUploader
from repro.obs.metrics import get_registry
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.spec import resolve_fleet
from repro.serving.journal import (
    StoreAndForwardSink,
    VerdictJournal,
    audit_ledger,
)
from repro.serving.registry import ServingModelRegistry
from repro.streaming.faults import (
    ChaosHarness,
    FaultEvent,
    FaultSchedule,
    Lever,
    channel_blackhole,
    switch,
)
from repro.streaming.health import HealthRegistry
from repro.streaming.reliability import reliable_link


def sabotage_release(source: str, destination: str, *,
                     rng: np.random.Generator) -> None:
    """Copy a saved release, scrambling its learned weights.

    Every value in the CNN/RNN weight arrays is kept (a permutation), so
    the artifacts stay perfectly well-formed — valid npz, valid shapes,
    valid digests after the manifest is restamped — but the model they
    load is garbage.  This is the canary scenario: an artifact integrity
    cannot catch, only a probe set can.
    """
    os.makedirs(destination, exist_ok=True)
    for name in sorted(os.listdir(source)):
        src = os.path.join(source, name)
        dst = os.path.join(destination, name)
        if name in ("cnn.npz", "rnn.npz"):
            with np.load(src) as data:
                arrays = {
                    key: rng.permutation(data[key].ravel())
                    .reshape(data[key].shape)
                    for key in data.files
                }
            np.savez(dst, **arrays)
        else:
            with open(src, "rb") as handle:
                blob = handle.read()
            with open(dst, "wb") as handle:
                handle.write(blob)
    # Restamp the store manifest so load_ensemble's own digest gate
    # passes — the sabotage must be invisible to integrity checking.
    manifest_path = os.path.join(destination, "manifest.json")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    manifest["digests"] = artifact_digests(destination)
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)


def minimal_canary_percent(version: int, agent_ids: list[str]) -> float:
    """Smallest 5%-step canary fraction that includes >= 1 fleet agent.

    The cohort hash is deterministic, so the chaos drive can pick the
    smallest blast radius that still exercises the canary path.
    """
    for percent in range(5, 101, 5):
        manifest = ReleaseManifest(name="edge", version=version,
                                   canary_percent=float(percent))
        if any(manifest.in_canary(agent_id) for agent_id in agent_ids):
            return float(percent)
    return 100.0


def standard_edge_schedule(duration: float = 24.0) -> FaultSchedule:
    """The canonical edge scenario: an uplink blackhole across the whole
    fleet mid-drive, release v2 corrupted in transit for the entire
    drive, and agent edge-0's updater killed during its first download.

    The corruption window extends past the drive's end so a download
    that spills into the settle phase (e.g. after the scripted kill)
    still fetches corrupt bytes — v2 must never install cleanly."""
    return FaultSchedule([
        FaultEvent(0.30 * duration, 0.50 * duration, "uplink_blackhole",
                   "*"),
        FaultEvent(0.0, float("inf"), "ota_corrupt_artifact", "2"),
        FaultEvent(0.0, 0.40 * duration, "ota_download_kill", "edge-0"),
    ])


def _staged_bytes(ota: OtaClient) -> int:
    total = 0
    for entry in os.listdir(ota.state_dir):
        stage = os.path.join(ota.state_dir, entry)
        if entry.startswith("stage-") and os.path.isdir(stage):
            total += sum(os.path.getsize(os.path.join(stage, f))
                         for f in os.listdir(stage))
    return total


def _edge_levers(server: OtaServer, fleet: dict[str, EdgeAgent],
                 links: dict[str, tuple],
                 rebuild_ota: Callable[[EdgeAgent], OtaClient]
                 ) -> list[Lever]:
    """Per agent an uplink blackhole over both channels of its link; per
    release (v1-v3) a corrupt-in-transit switch on the OTA server; per
    agent a download kill, fired once per event at the first tick the
    agent is demonstrably mid-download (phase DOWNLOADING with staged
    bytes on disk) by rebuilding its OTA client on the same state
    directory."""
    def corrupt(version: int) -> Lever:
        def turn(on: bool) -> None:
            versions = server.corrupt_versions
            versions.add(version) if on else versions.discard(version)

        return switch("ota_corrupt_artifact", str(version), turn)

    def download_kill(agent: EdgeAgent) -> Lever:
        def ready() -> bool:
            return (agent.ota.phase == DOWNLOADING
                    and _staged_bytes(agent.ota) > 0)

        def kill(event: FaultEvent) -> None:
            agent.ota = rebuild_ota(agent)

        return Lever("ota_download_kill", agent.agent_id, kill,
                     ready=ready, once=True)

    return [*(channel_blackhole("uplink_blackhole", agent_id, *link)
              for agent_id, link in links.items()),
            *(corrupt(version) for version in (1, 2, 3)),
            *(download_kill(agent) for agent in fleet.values())]


@dataclass
class EdgeChaosReport:
    """The audit :func:`run_edge_chaos` produces."""

    agents: int
    duration: float
    seed: int
    verdicts: int
    clips: int
    produced: int
    delivered: int
    duplicates: int
    lost: int
    spool_torn: int
    spool_truncated: int
    spool_residue: int
    journal_records: int
    journal_torn: int
    uplink_blackholes: int
    ota_kills: int
    ota_installs: int
    ota_rollbacks: int
    integrity_rejections: int
    bytes_resumed: int
    bad_versions: list[int]
    final_versions: dict[str, int]
    final_accuracy: dict[str, float]
    baseline_accuracy: float
    violations: list[str] = field(default_factory=list)
    harness_log: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def format_report(self) -> str:
        """Human-readable audit summary for the CLI."""
        versions = ", ".join(f"{aid}=v{v}"
                             for aid, v in sorted(self.final_versions.items()))
        accuracy = ", ".join(f"{aid}={acc:.2f}"
                             for aid, acc in sorted(self.final_accuracy.items()))
        lines = [
            f"Edge chaos — {self.agents} agents, {self.duration:.0f} s "
            f"drive (seed {self.seed})",
            f"  verdicts   produced {self.produced} ({self.verdicts} "
            f"verdicts + {self.clips} clips)   delivered {self.delivered}"
            f"   duplicates {self.duplicates}   lost {self.lost}",
            f"  spool      torn {self.spool_torn}   truncated "
            f"{self.spool_truncated}   residue {self.spool_residue}",
            f"  journal    records {self.journal_records}   torn "
            f"{self.journal_torn}",
            f"  uplink     blackholes {self.uplink_blackholes}",
            f"  ota        installs {self.ota_installs}   rollbacks "
            f"{self.ota_rollbacks}   integrity rejections "
            f"{self.integrity_rejections}   resumed "
            f"{self.bytes_resumed} bytes   kills {self.ota_kills}",
            f"  releases   marked bad {self.bad_versions or 'none'}   "
            f"pinned [{versions}]",
            f"  fleet      probe accuracy [{accuracy}] "
            f"(baseline {self.baseline_accuracy:.2f})",
        ]
        if self.violations:
            lines.append("  VIOLATIONS:")
            lines.extend(f"    - {violation}"
                         for violation in self.violations)
        else:
            lines.append("  invariants: all hold (zero verdict loss, "
                         "corrupt release rejected, sabotaged canary "
                         "rolled back, downloads resumed)")
        return "\n".join(lines)


def run_edge_chaos(model, *, agents: int = 3, duration: float = 24.0,
                   grid_period: float = 0.25, seed: int = 0,
                   schedule: FaultSchedule | None = None,
                   workdir: str | None = None,
                   script: DriveScript | None = None) -> EdgeChaosReport:
    """Drive an edge fleet through scripted chaos and audit the invariants.

    The drive: every agent classifies a scripted drive locally and
    uploads verdicts; release v1 (the good model) rolls out at start;
    release v2 (good bytes) is corrupted in transit by the schedule and
    must be digest-rejected; a sabotaged v3 canary is published
    mid-drive and must be rolled back by its probe regression.

    Args:
        model: trained ensemble shared as the fleet's initial model.
        agents / duration / grid_period / seed: fleet and drive shape;
            the seed fixes traces, uplink loss and the sabotage
            permutation, so the run is reproducible end to end.
        schedule: fault script; :func:`standard_edge_schedule` default.
        workdir: scratch directory (spools, controller journal, OTA
            state, releases); when omitted, a temporary directory that
            is deleted once the fleet and the journal close cleanly.
        script: drive behaviour script; the paper sweep by default.
    """
    compiled = compile_scenario(resolve_fleet(
        None, script, drivers=agents, duration=duration,
        grid_period=grid_period, seed=seed))
    instants = compiled.instants
    if schedule is None:
        schedule = standard_edge_schedule(duration)
    workspace = workdir or tempfile.mkdtemp(prefix="edge-chaos-")
    os.makedirs(workspace, exist_ok=True)
    rng = np.random.default_rng(seed)
    agent_ids = [f"edge-{i}" for i in range(agents)]

    # -- releases: v1 good, v2 good (corrupted in transit), v3 sabotaged --
    v1_dir = os.path.join(workspace, "release-v1")
    v2_dir = os.path.join(workspace, "release-v2")
    v3_dir = os.path.join(workspace, "release-v3")
    save_ensemble(model, v1_dir)
    save_ensemble(model, v2_dir)
    sabotage_release(v1_dir, v3_dir, rng=rng)

    # -- held-out probe set ------------------------------------------------
    # Drawn from the training distribution so the fleet baseline is well
    # above chance and a scrambled canary shows up as a real regression
    # (not just a violation of the manifest's absolute floor).
    probe_set = generate_driving_dataset(
        60, rng=np.random.default_rng(seed + 999))
    probe_images = probe_set.images
    probe_imu = probe_set.imu
    probe_labels = probe_set.labels
    zero_latency = (lambda model_, images_, imu_: 0.0)

    key = f"fleet-key-{seed}".encode("utf-8")
    server = OtaServer(key)
    server.publish("edge", v1_dir, canary_percent=100.0)
    release_bytes = sum(
        os.path.getsize(os.path.join(v1_dir, name))
        for name in os.listdir(v1_dir))
    # Slow the download to ~6 update ticks so a mid-download kill has a
    # real window to land in.
    chunk_size = max(4096, release_bytes // 6)
    canary_percent = minimal_canary_percent(3, agent_ids)
    publish_v2_at = 0.15 * duration
    publish_v3_at = 0.50 * duration

    journal = VerdictJournal(os.path.join(workspace, "controller.journal"))
    sink = StoreAndForwardSink(journal)
    health = HealthRegistry(degraded_after=4 * grid_period,
                            silent_after=12 * grid_period,
                            detector_factory=None)

    fleet: dict[str, EdgeAgent] = {}
    receivers: list[EdgeUplinkReceiver] = []
    links: dict[str, tuple] = {}
    update_interval = 2 * grid_period

    def build_ota(agent_id: str,
                  registry: ServingModelRegistry) -> OtaClient:
        return OtaClient(
            server, registry, name="edge", agent_id=agent_id, key=key,
            state_dir=os.path.join(workspace, f"state-{agent_id}"),
            probe_images=probe_images, probe_labels=probe_labels,
            probe_imu=probe_imu, latency_fn=zero_latency,
            chunk_size=chunk_size, chunks_per_step=1)

    for index, agent_id in enumerate(agent_ids):
        link_rng = np.random.default_rng(seed + 77 + index)
        sender, receiver = reliable_link(
            f"uplink-{agent_id}", base_latency=0.02, jitter=0.2,
            drop_probability=0.05, rng=link_rng,
            max_attempts=200, buffer_limit=256)
        links[agent_id] = (sender.data, sender.ack)
        registry = ServingModelRegistry()
        registry.register("edge", model)
        spool = EdgeSpool(os.path.join(workspace, f"spool-{agent_id}.wal"))
        uploader = EdgeUploader(spool, sender, agent_id=agent_id,
                                window=16)
        fleet[agent_id] = EdgeAgent(
            agent_id, registry=registry, spool=spool, uploader=uploader,
            trace=compiled.trace_for(index), instants=instants,
            ota=build_ota(agent_id, registry), health=health,
            intervals=(grid_period, grid_period, grid_period,
                       update_interval))
        receivers.append(EdgeUplinkReceiver(receiver, sink))

    harness = ChaosHarness(schedule, _edge_levers(
        server, fleet, links,
        rebuild_ota=lambda agent: build_ota(agent.agent_id,
                                            agent.registry)))
    baseline_accuracy = float(np.mean(
        model.predict_degraded(images=probe_images, imu=probe_imu)
        .predictions == probe_labels))

    published = {2: False, 3: False}
    try:
        def tick(now: float) -> None:
            harness.apply(now)
            if not published[2] and now >= publish_v2_at:
                server.publish("edge", v2_dir, canary_percent=100.0)
                published[2] = True
            if not published[3] and now >= publish_v3_at:
                server.publish("edge", v3_dir,
                               canary_percent=canary_percent,
                               min_probe_accuracy=0.3)
                published[3] = True
            for agent in fleet.values():
                agent.step(now)
            for receiver in receivers:
                receiver.poll(now)
            sink.pump(now)
            health.step(now)

        for instant in instants:
            tick(float(instant))
        # Settle: no new drive samples, but keep the loops running until
        # the fleet is *quiescent* — spools drained and every updater
        # idle across two full update intervals, so a check fired while
        # idle and found nothing left to start.  (An instantaneous idle
        # reading is not enough: the tick after a rejection is idle, yet
        # the next check may still adopt a newer release.)
        now = float(duration)
        quiet_needed = int(np.ceil(2 * update_interval / grid_period)) + 1
        quiet = 0
        for _ in range(int(np.ceil(120.0 / grid_period))):
            tick(now)
            idle = (all(agent.spool.depth == 0
                        for agent in fleet.values())
                    and all(agent.ota.phase == IDLE
                            for agent in fleet.values()))
            quiet = quiet + 1 if idle else 0
            if quiet >= quiet_needed:
                break
            now += grid_period

        # -- audit ---------------------------------------------------------
        produced_ids = {
            (agent_id, sequence)
            for agent_id, agent in fleet.items()
            for sequence in range(1, agent._sequence + 1)
        }
        delivered_ids = {record.record_id for record in sink.delivered}
        residue = sum(agent.spool.depth for agent in fleet.values())

        for agent in fleet.values():
            agent.close()
        journal.close()
        audit = audit_ledger(produced_ids, delivered_ids, sink, journal.path)
        spool_torn = 0
        spool_truncated = 0
        for agent in fleet.values():
            replay = replay_spool(agent.spool.path)
            spool_torn += replay.torn
            spool_truncated += agent.spool.torn_truncated

        final_versions = {aid: agent.ota.pinned_version
                          for aid, agent in fleet.items()}
        final_accuracy = {
            aid: float(np.mean(
                agent.registry.get("edge").predict_degraded(
                    images=probe_images, imu=probe_imu)
                .predictions == probe_labels))
            for aid, agent in fleet.items()
        }
        installs = sum(agent.ota.installs for agent in fleet.values())
        rollbacks = sum(agent.ota.rollbacks for agent in fleet.values())
        rejections = sum(agent.ota.integrity_rejections
                         for agent in fleet.values())
        resumed = sum(agent.ota.bytes_resumed for agent in fleet.values())
        kills = harness.count("ota_download_kill")

        violations = [*audit.violations, *harness.unengaged()]
        if residue:
            violations.append(
                f"{residue} records still spooled after settle")
        if spool_torn:
            violations.append(
                f"{spool_torn} torn spool frames after a clean close")
        corrupt_targets = {
            int(e.target) for e in schedule.events
            if e.kind == "ota_corrupt_artifact" and e.target != "*"}
        if corrupt_targets and rejections == 0:
            violations.append(
                "a corrupt release was served but never digest-rejected")
        for version in corrupt_targets:
            pinned = [aid for aid, v in final_versions.items()
                      if v == version]
            if pinned:
                violations.append(
                    f"corrupt release v{version} was installed by "
                    f"{pinned}")
        if published[3]:
            if rollbacks == 0:
                violations.append(
                    "the sabotaged canary was never rolled back")
            if 3 not in server.bad_versions:
                violations.append(
                    "the sabotaged canary was not marked bad fleet-wide")
            pinned_bad = [aid for aid, v in final_versions.items()
                          if v == 3]
            if pinned_bad:
                violations.append(
                    f"sabotaged release v3 stayed pinned on {pinned_bad}")
        if kills and resumed == 0:
            violations.append(
                "a killed download restarted from scratch instead of "
                "resuming")
        if installs == 0:
            violations.append("no agent ever installed a release")
        for agent_id, accuracy in final_accuracy.items():
            if accuracy < baseline_accuracy - 0.10:
                violations.append(
                    f"{agent_id} ended the drive serving a regressed "
                    f"model ({accuracy:.2f} vs baseline "
                    f"{baseline_accuracy:.2f})")

        return EdgeChaosReport(
            agents=agents, duration=float(duration), seed=seed,
            verdicts=sum(agent.verdicts for agent in fleet.values()),
            clips=sum(agent.clips for agent in fleet.values()),
            produced=len(produced_ids),
            delivered=len(delivered_ids),
            duplicates=audit.duplicates,
            lost=len(audit.lost),
            spool_torn=spool_torn,
            spool_truncated=spool_truncated,
            spool_residue=residue,
            journal_records=len(audit.journal.records),
            journal_torn=audit.torn,
            uplink_blackholes=harness.count("uplink_blackhole"),
            ota_kills=kills,
            ota_installs=installs,
            ota_rollbacks=rollbacks,
            integrity_rejections=rejections,
            bytes_resumed=resumed,
            bad_versions=sorted(server.bad_versions),
            final_versions=final_versions,
            final_accuracy=final_accuracy,
            baseline_accuracy=baseline_accuracy,
            violations=violations,
            harness_log=list(harness.log),
            metrics=get_registry().snapshot(),
        )
    finally:
        for agent in fleet.values():
            try:
                agent.close()
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass
        journal.close()
        # Delete only a workspace this call made, and only once the
        # journal closed with no record stuck in memory.
        if not workdir and not journal.overflow_depth:
            shutil.rmtree(workspace)

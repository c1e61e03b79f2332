"""Edge agent runtime: on-device inference, store-and-forward, OTA.

The device half of the DarNet deployment story: an
:class:`~repro.edge.agent.EdgeAgent` classifies its own drive locally
(at its privacy level, through the same ensemble the server uses),
spools verdicts durably across uplink loss, and keeps its model current
through signed, digest-verified OTA releases with canary rollout and
automatic probe-regression rollback.
"""

from repro.edge.agent import WINDOW_STEPS, EdgeAgent
from repro.edge.chaos import (
    EdgeChaosReport,
    run_edge_chaos,
    sabotage_release,
    standard_edge_schedule,
)
from repro.edge.manifest import ReleaseManifest
from repro.edge.ota import OtaClient, OtaServer, ProbeResult
from repro.edge.spool import (
    KIND_CLIP,
    KIND_VERDICT,
    EdgeSpool,
    SpoolRecord,
    replay_spool,
)
from repro.edge.supervisor import SupervisedTask, TaskSupervisor
from repro.edge.uploader import (
    EdgeUplinkReceiver,
    EdgeUploader,
    verdict_from_spool,
)

__all__ = [
    "EdgeAgent",
    "EdgeChaosReport",
    "EdgeSpool",
    "EdgeUplinkReceiver",
    "EdgeUploader",
    "KIND_CLIP",
    "KIND_VERDICT",
    "OtaClient",
    "OtaServer",
    "ProbeResult",
    "ReleaseManifest",
    "SpoolRecord",
    "SupervisedTask",
    "TaskSupervisor",
    "WINDOW_STEPS",
    "replay_spool",
    "run_edge_chaos",
    "sabotage_release",
    "standard_edge_schedule",
    "verdict_from_spool",
]

"""Scenario-native fault scheduling.

The environment track's camera faults are *part of the world*, not
out-of-band injection: the compiler bakes them into the traces (covered
frames rendered occluded, blackout frames masked from ingestion).  This
module projects them into the chaos vocabulary — a
:class:`~repro.streaming.faults.FaultSchedule` of ``camera_covered`` /
``camera_blackout`` events — so a chaos drive can merge them with
shard/sink faults and audit that they actually engaged.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.scenarios.spec import ScenarioSpec
from repro.streaming.faults import FaultEvent, FaultSchedule


def scenario_fault_events(spec: ScenarioSpec,
                          session_ids: Sequence[str] | None = None
                          ) -> list[FaultEvent]:
    """Camera faults of ``spec`` as chaos events.

    Targets are session ids when the mapping is known (``session_ids[d]``
    for driver ``d``), ``driver-<d>`` placeholders otherwise, and ``"*"``
    for fleet-wide faults.
    """
    events: list[FaultEvent] = []
    for fault in spec.environment.camera_faults:
        kind = f"camera_{fault.kind}"
        if fault.drivers is None:
            events.append(FaultEvent(fault.start, fault.end, kind, "*"))
            continue
        for driver in fault.drivers:
            if session_ids is not None and driver < len(session_ids):
                target = str(session_ids[driver])
            else:
                target = f"driver-{driver}"
            events.append(FaultEvent(fault.start, fault.end, kind, target))
    return events


def scenario_fault_schedule(spec: ScenarioSpec,
                            session_ids: Sequence[str] | None = None,
                            extra: Sequence[FaultEvent] = ()
                            ) -> FaultSchedule:
    """A full schedule: the scenario's camera faults plus ``extra``."""
    return FaultSchedule([*scenario_fault_events(spec, session_ids),
                          *extra])

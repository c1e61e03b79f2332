"""Verdict ledgers: loss, duplicate and digest audits.

A ledger lists the ids a pass asked for (verdict requests, or records an
edge fleet produced), the ids delivered in delivery order and the ids
deferred, plus one canonical line per delivered record for the digest.
Everything that was asked for and not delivered exactly once counts as
failed; loss, duplicates and strays are also correctness violations.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Ledger:
    requested: list = field(default_factory=list)
    delivered: list = field(default_factory=list)
    deferred: list = field(default_factory=list)
    stream: list[str] = field(default_factory=list)


@dataclass
class Audit:
    attempted: int
    delivered: int     # requested ids delivered exactly once
    violations: list[str]

    @property
    def failed(self) -> int:
        return self.attempted - self.delivered


def audit(ledger: Ledger) -> Audit:
    """Count what was delivered exactly once and name what went wrong.

    Deferred ids are accounted (not lost) but still count as failed.
    """
    requested = set(ledger.requested)
    counts = Counter(ledger.delivered)
    deferred = set(ledger.deferred)
    once = {key for key, count in counts.items()
            if count == 1 and key in requested}
    violations = []
    if len(requested) != len(ledger.requested):
        violations.append(f"{len(ledger.requested) - len(requested)} "
                          "ids requested twice")
    lost = requested - set(counts) - deferred
    if lost:
        violations.append(f"{len(lost)} requested ids neither delivered "
                          f"nor deferred (e.g. {sorted(lost)[:3]})")
    duplicates = sum(count - 1 for count in counts.values() if count > 1)
    if duplicates:
        violations.append(f"{duplicates} duplicate deliveries")
    stray = set(counts) - requested
    if stray:
        violations.append(f"{len(stray)} deliveries never requested "
                          f"(e.g. {sorted(stray)[:3]})")
    both = deferred & set(counts)
    if both:
        violations.append(f"{len(both)} ids both delivered and deferred")
    return Audit(len(ledger.requested), len(once), violations)


def digest(stream: list[str]) -> str:
    """A short hash of a verdict stream in delivery order."""
    return hashlib.sha256("\n".join(stream).encode("utf-8")).hexdigest()[:16]


def digest_violations(digests: list[str], recorded: str | None) -> list[str]:
    """Every pass of one seed, and every earlier run, must agree."""
    expected = recorded or (digests[0] if digests else None)
    mismatched = [value for value in digests if value != expected]
    if not mismatched:
        return []
    source = "an earlier run of this seed" if recorded else "the first pass"
    return [f"verdict digest mismatch: {sorted(set(mismatched))} "
            f"differ from {expected} ({source})"]

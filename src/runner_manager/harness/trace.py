"""Scenario traces: a strictly ordered record of everything that happened.

A manager ``decision`` entry holds the manager's own :class:`ReconcileRecord`
as its detail, not a rendering of it. The record becomes the reconcile log
line's dict only when the entry is rendered, by :meth:`Trace.lines` for
``to_ndjson`` and the fingerprint alike.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterator

from ..reconciler import ReconcileRecord


@dataclass(frozen=True, slots=True)
class TraceEntry:
    at: float  # seconds since scenario start
    actor: str  # manager | fake_github | fake_kube | fake_runner | driver
    action: str
    detail: dict | ReconcileRecord

    def as_dict(self) -> dict:
        detail = self.detail
        if isinstance(detail, ReconcileRecord):
            detail = detail.as_log_dict()
        return {"at": self.at, "actor": self.actor, "action": self.action, "detail": detail}


class Trace:
    """Append-only, time-ordered (ties keep insertion order)."""

    def __init__(self, epoch: float):
        self._epoch = epoch
        self.entries: list[TraceEntry] = []

    def append(
        self, at_abs: float, actor: str, action: str, detail: dict | ReconcileRecord | None = None
    ) -> None:
        self.entries.append(TraceEntry(at=at_abs - self._epoch, actor=actor, action=action, detail=detail or {}))

    def select(self, actor: str | None = None, action: str | None = None) -> list[TraceEntry]:
        return [
            e
            for e in self.entries
            if (actor is None or e.actor == actor) and (action is None or e.action == action)
        ]

    def lines(self) -> Iterator[str]:
        """Each entry as one newline-terminated JSON line, rendered as it is read."""
        for entry in self.entries:
            yield json.dumps(entry.as_dict(), sort_keys=True) + "\n"

    def to_ndjson(self) -> str:
        return "".join(self.lines())

    def fingerprint(self) -> str:
        """Stable digest used by determinism checks: the SHA-256 of
        ``to_ndjson()``, computed a line at a time."""
        digest = hashlib.sha256()
        for line in self.lines():
            digest.update(line.encode())
        return digest.hexdigest()

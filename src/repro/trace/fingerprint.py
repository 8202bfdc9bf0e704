"""Stable, content-addressed trace fingerprints.

The lazy analysis session (:mod:`repro.core.session`) memoizes every
derived artifact — invocation tables, profiles, SOS-times — under a key
that must identify the *content* of a trace, not the Python object or
the file it came from.  This module computes that key: a BLAKE2 digest
over the definition records plus one digest per rank over the raw
event columns.

Two properties matter:

* **Stability across codecs.**  Both trace formats (JSONL and binary
  ``.rpt``) round-trip every definition field and every event column
  with canonical dtypes (enforced by :class:`~repro.trace.events.EventList`),
  so a trace written to disk and read back fingerprints identically.
* **Content addressing.**  The run ``name`` and free-form ``attributes``
  are deliberately excluded: they do not influence any analysis result,
  so renaming a run must not invalidate its cached artifacts.  Per-rank
  digests additionally let two traces that share identical event
  streams (e.g. a merged trace) share per-rank replay artifacts.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

from .._record import record

if TYPE_CHECKING:
    from .events import EventList
    from .trace import Trace

__all__ = [
    "TraceFingerprint",
    "combine_fingerprint",
    "fingerprint_definitions",
    "fingerprint_events",
    "fingerprint_trace",
]

#: Event columns included in per-rank digests, in canonical order.
_EVENT_COLUMNS = ("time", "kind", "ref", "partner", "size", "tag", "value")

_DIGEST_SIZE = 16  # 128-bit BLAKE2b: collision-safe for cache keys


def _hasher() -> "hashlib._Hash":
    return hashlib.blake2b(digest_size=_DIGEST_SIZE)


def fingerprint_events(events: EventList) -> str:
    """Digest of one event stream's column arrays (hex string)."""
    h = _hasher()
    for name in _EVENT_COLUMNS:
        arr = getattr(events, name)
        h.update(name.encode("ascii"))
        h.update(arr.tobytes())
    return h.hexdigest()


def fingerprint_definitions(trace: Trace) -> str:
    """Digest of the definition records (regions, metrics, locations)."""
    records = {
        "regions": [
            (r.id, r.name, int(r.paradigm), int(r.role), r.source_file, r.line)
            for r in trace.regions
        ],
        "metrics": [
            (m.id, m.name, m.unit, int(m.mode), m.description)
            for m in trace.metrics
        ],
        "locations": [
            (loc.id, loc.name, loc.group) for loc in trace.locations()
        ],
    }
    h = _hasher()
    h.update(json.dumps(records, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


@record(frozen=True, slots=True)
class TraceFingerprint:
    """Content digest of one trace.

    Attributes
    ----------
    definitions:
        Digest of the definition records.
    per_rank:
        ``(rank, digest)`` pairs in rank order — the unit of sharing
        for per-rank artifacts such as replayed invocation tables.
    hexdigest:
        Combined digest of the above; the cache key prefix for
        whole-trace artifacts.
    """

    definitions: str
    per_rank: tuple[tuple[int, str], ...]
    hexdigest: str

    def short(self, n: int = 12) -> str:
        """Abbreviated combined digest for display."""
        return self.hexdigest[:n]

    def rank_digest(self, rank: int) -> str:
        """Digest of one rank's event stream (KeyError if absent)."""
        for r, digest in self.per_rank:
            if r == rank:
                return digest
        raise KeyError(f"rank {rank} not in fingerprint")


def combine_fingerprint(
    definitions: str, per_rank: "tuple[tuple[int, str], ...]"
) -> TraceFingerprint:
    """Assemble a :class:`TraceFingerprint` from already-computed digests.

    A session's ``stat-`` artifact restores recorded per-rank digests
    without hashing an event; combining them here — the same code
    :func:`fingerprint_trace` uses — guarantees the restored
    fingerprint addresses the identical cache entries.
    """
    h = _hasher()
    h.update(definitions.encode("ascii"))
    for rank, digest in per_rank:
        h.update(str(rank).encode("ascii"))
        h.update(digest.encode("ascii"))
    return TraceFingerprint(
        definitions=definitions, per_rank=per_rank, hexdigest=h.hexdigest()
    )


def fingerprint_trace(trace: Trace) -> TraceFingerprint:
    """Compute the full content fingerprint of ``trace``.

    The per-rank digests are taken one stream at a time from
    :meth:`~repro.trace.trace.Trace.event_streams`, so a trace that
    decodes its streams on demand is hashed without being held whole.
    """
    per_rank = tuple(
        (rank, fingerprint_events(events))
        for rank, events in trace.event_streams()
    )
    return combine_fingerprint(fingerprint_definitions(trace), per_rank)

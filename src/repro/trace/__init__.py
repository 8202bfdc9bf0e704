"""Trace data model and I/O (OTF2-like substrate).

Public surface:

* :class:`Trace`, :class:`ProcessTrace` — immutable trace containers.
* :class:`EventList`, :class:`EventKind`, :class:`Event` — event streams.
* :class:`TraceBuilder` — programmatic construction.
* Definitions: :class:`Region`, :class:`Metric`, :class:`Location`,
  :class:`Paradigm`, :class:`RegionRole`, :class:`MetricMode`.
* I/O: :func:`read_trace`, :class:`TraceIndex`, :func:`write_jsonl`,
  :func:`write_binary`.
* Transformations: :func:`clip_trace`, :func:`filter_regions`,
  :func:`select_ranks`, :func:`merge_traces`.

Structural validation lives in :mod:`repro.lint`
(``lint_trace(trace, config=validate_config())``); analyses run it
inside the fused kernel's one scan per rank
(:func:`repro.core.fused.fused_bootstrap`), which also pairs the
rank's enter/leave events for replay.
"""

from .binio import write_binary
from .builder import ProcessBuilder, TraceBuilder
from .cursor import (
    EventBatch,
    EventCursor,
    FeedCursor,
    IndexCursor,
    JsonlStreamCursor,
    TailCursor,
)
from .definitions import (
    Location,
    Metric,
    MetricMode,
    MetricRegistry,
    Paradigm,
    Region,
    RegionRegistry,
    RegionRole,
    default_role,
)
from .events import Event, EventKind, EventList, EventListBuilder, NO_PARTNER, NO_REF
from .filters import clip_trace, filter_regions, select_ranks
from .fingerprint import (
    TraceFingerprint,
    fingerprint_definitions,
    fingerprint_events,
    fingerprint_trace,
)
from .merge import merge_traces
from .reader import TraceIndex, read_trace
from .trace import ProcessTrace, Trace
from .writer import write_jsonl

__all__ = [
    "Event",
    "EventBatch",
    "EventCursor",
    "EventKind",
    "EventList",
    "EventListBuilder",
    "FeedCursor",
    "IndexCursor",
    "JsonlStreamCursor",
    "Location",
    "Metric",
    "MetricMode",
    "MetricRegistry",
    "NO_PARTNER",
    "NO_REF",
    "Paradigm",
    "ProcessBuilder",
    "ProcessTrace",
    "Region",
    "RegionRegistry",
    "RegionRole",
    "TailCursor",
    "Trace",
    "TraceBuilder",
    "TraceFingerprint",
    "TraceIndex",
    "clip_trace",
    "default_role",
    "filter_regions",
    "fingerprint_definitions",
    "fingerprint_events",
    "fingerprint_trace",
    "merge_traces",
    "read_trace",
    "select_ranks",
    "write_binary",
    "write_jsonl",
]

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

from __future__ import annotations

from .._lazy import lazy_exports

# Re-exported lazily (PEP 562), as in :mod:`repro.core`: a command
# compiles and runs only the submodules it touches, not the builder,
# merge and filter code every ``import repro.trace`` used to load.
_EXPORTS = {
    "binio": ("write_binary",),
    "builder": ("ProcessBuilder", "TraceBuilder"),
    "cursor": (
        "EventBatch",
        "EventCursor",
        "FeedCursor",
        "IndexCursor",
        "JsonlStreamCursor",
        "TailCursor",
    ),
    "definitions": (
        "Location",
        "Metric",
        "MetricMode",
        "MetricRegistry",
        "Paradigm",
        "Region",
        "RegionRegistry",
        "RegionRole",
        "default_role",
    ),
    "events": ("Event", "EventKind", "EventList", "EventListBuilder", "NO_PARTNER", "NO_REF"),
    "filters": ("clip_trace", "filter_regions", "select_ranks"),
    "fingerprint": (
        "TraceFingerprint",
        "fingerprint_definitions",
        "fingerprint_events",
        "fingerprint_trace",
    ),
    "merge": ("merge_traces",),
    "reader": ("TraceIndex", "read_trace"),
    "trace": ("ProcessTrace", "Trace"),
    "writer": ("write_jsonl",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

"""Profiling substrate: stack replay, flat profiles, call trees."""

from __future__ import annotations

from .._lazy import lazy_exports

# Re-exported lazily (PEP 562), as in :mod:`repro.core`: replay and
# statistics load without the call-tree and CSV/JSON export code.
_EXPORTS = {
    "callpath": ("CallPathNode", "CallTree", "build_call_tree"),
    "export": (
        "write_analysis_json",
        "write_profile_csv",
        "write_rank_summary_csv",
        "write_segments_csv",
    ),
    "profile": ("TraceProfile", "profile_trace"),
    "replay": ("InvocationTable", "match_invocations", "replay_trace"),
    "stats": (
        "FunctionStatistics",
        "RegionStats",
        "compute_statistics",
        "merge_statistics_arrays",
        "rank_statistics_arrays",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

"""Core contribution: dominant functions, SOS-times, imbalance detection."""

from __future__ import annotations

from .._lazy import lazy_exports

#: MAD-to-sigma scale for normally distributed data, shared by every
#: robust z-score (batch detectors, the stream monitor, ``repro perf``).
MAD_SCALE = 1.4826

# Re-exported lazily so that importing one ``repro.core.*`` module does
# not pull in its siblings (streaming, sharding with multiprocessing,
# comparison, ...); each name loads its submodule when first touched.
_EXPORTS = {
    "activity": ("ActivityShares", "activity_shares"),
    "classify": ("SyncClassifier", "default_classifier"),
    "commstats": ("CommMatrix", "communication_matrix"),
    "compare": ("RunComparison", "SegmentDelta", "compare_analyses", "compare_traces"),
    "dominant": ("DominantCandidate", "DominantSelection", "rank_candidates", "select_dominant"),
    "engine": ("ShardEngine", "ShardPlan", "plan_shards"),
    "explain": ("RegionShare", "SegmentExplanation", "explain_segment"),
    "imbalance": (
        "Hotspot",
        "ImbalanceReport",
        "RankHotspot",
        "detect_imbalances",
        "imbalance_percentage",
        "robust_zscores",
    ),
    "incremental": ("FusedBootstrap", "IncrementalKernel"),
    "metrics": (
        "MetricSeries",
        "binned_metric_matrix",
        "metric_series",
        "metric_sos_correlation",
        "per_rank_metric_total",
        "segment_metric_delta",
    ),
    "pipeline": ("AnalysisConfig", "VariationAnalysis", "analyze_trace"),
    "segments": ("RankSegments", "Segmentation", "segment_rank", "segment_trace"),
    "session": ("AnalysisSession", "ArtifactCache", "CacheInfo", "SessionStats"),
    "shard": ("shard_workers",),
    "sos": ("RankSOS", "SOSResult", "compute_sos", "top_level_sync_mask"),
    "streaming": ("StreamAlert", "StreamedSegment", "StreamingAnalyzer"),
    "variation": ("TrendResult", "binned_matrix", "detect_trend", "mann_kendall", "step_series"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

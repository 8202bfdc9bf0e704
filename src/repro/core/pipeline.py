"""End-to-end performance-variation analysis pipeline.

Ties together the three steps of the paper's methodology (Section III):

1. identification of time-dominant functions (:mod:`repro.core.dominant`),
2. computation of performance variations between invocations
   (:mod:`repro.core.segments`, :mod:`repro.core.sos`),
3. preparation of the intuitive visualization
   (:func:`repro.core.variation.binned_matrix`, rendered by
   :mod:`repro.viz`),

plus the automatic detection layer (:mod:`repro.core.imbalance`,
:mod:`repro.core.variation`) that makes the guidance testable.

Since the session refactor, :func:`analyze_trace` is a thin facade over
:class:`repro.core.session.AnalysisSession`: every product is a
memoized stage, so :meth:`VariationAnalysis.refined` and
:meth:`VariationAnalysis.at_function` are pure cache hits on the replay
and profile stages, and a ``cache_dir`` makes the reuse persistent
across processes.
"""

from __future__ import annotations

import numpy as np

from .._record import field, record
from ..profiles.profile import TraceProfile
from ..trace.definitions import Paradigm
from ..trace.trace import Trace
from .classify import SyncClassifier, default_classifier
from .dominant import DominantSelection
from .imbalance import ImbalanceReport
from .segments import Segmentation
from .sos import SOSResult
from .variation import TrendResult

__all__ = ["AnalysisConfig", "VariationAnalysis", "analyze_trace"]


@record(frozen=True)
class AnalysisConfig:
    """Tunable knobs of the analysis pipeline.

    Attributes
    ----------
    min_invocation_factor:
        The dominant function must be invoked at least
        ``min_invocation_factor * p`` times (paper: 2).
    candidate_paradigms:
        Paradigms eligible as dominant functions (default: USER code).
    classifier:
        Synchronization classifier for the SOS subtraction.
    rank_threshold, segment_threshold:
        Robust z-score cutoffs for the hotspot detectors.
    validate:
        Run structural trace validation before analysing.
    level:
        Initial refinement level (0 = the paper's selection).
    """

    min_invocation_factor: float = 2.0
    candidate_paradigms: tuple[Paradigm, ...] = (Paradigm.USER,)
    classifier: SyncClassifier = field(default_factory=default_classifier)
    rank_threshold: float = 3.0
    segment_threshold: float = 3.0
    min_relative_excess: float = 0.1
    max_findings: int = 50
    validate: bool = True
    level: int = 0


class VariationAnalysis:
    """Complete analysis result for one trace.

    Exposes every intermediate product (profile, dominant selection,
    segmentation, SOS result, detections) plus :meth:`refined` for the
    paper's drill-down workflow and :meth:`heat_matrix` for rendering.

    :meth:`AnalysisSession.analysis_for
    <repro.core.session.AnalysisSession.analysis_for>` constructs it
    (:func:`analyze_trace` is a facade over that), and ``session``
    links back to the shared stage cache, so refinement and
    re-rendering reuse every already-computed product.
    """

    def __init__(
        self,
        trace: Trace,
        config: AnalysisConfig,
        profile: TraceProfile,
        selection: DominantSelection,
        segmentation: Segmentation,
        sos: SOSResult,
        imbalance: ImbalanceReport,
        trend: TrendResult,
        duration_trend: TrendResult,
        session,
    ) -> None:
        self.trace = trace
        self.config = config
        self.profile = profile
        self.selection = selection
        self.segmentation = segmentation
        self.sos = sos
        self.imbalance = imbalance
        self.trend = trend
        self.duration_trend = duration_trend
        self.session = session

    # -- convenience accessors -------------------------------------------

    @property
    def dominant_name(self) -> str:
        return self.selection.name

    @property
    def dominant_region(self) -> int:
        return self.selection.region

    def hot_ranks(self) -> list[int]:
        """Ranks flagged by the rank-level detector, hottest first."""
        return [h.rank for h in self.imbalance.hot_ranks]

    def hottest_rank(self) -> int | None:
        h = self.imbalance.hottest_rank()
        return h.rank if h else None

    def hot_segments(self) -> list[tuple[int, int]]:
        """(rank, segment_index) pairs flagged by the segment detector."""
        return [(h.rank, h.segment_index) for h in self.imbalance.hot_segments]

    def heat_matrix(
        self, bins: int = 512, normalize: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Time-binned SOS matrix for heat-map rendering."""
        return self.session.heat_matrix(
            self.selection.region,
            bins=bins,
            normalize=normalize,
            classifier=self.config.classifier,
        )

    # -- refinement -------------------------------------------------------

    def refined(self, steps: int = 1) -> "VariationAnalysis":
        """Re-run steps 2+3 with a finer dominant function.

        Mirrors Section VII-B: "by choosing a function with a smaller
        inclusive time we achieve a more fine-grained segmentation".
        The expensive replay is reused (a pure session cache hit).
        """
        return self.session.analysis_for(self.selection.refined(steps))

    def at_function(self, name: str) -> "VariationAnalysis":
        """Re-segment using the named candidate function."""
        return self.session.analysis_for(self.selection.at_function(name))

    # -- reporting ----------------------------------------------------------

    def report(self) -> str:
        """Human-readable analysis report (see :mod:`repro.core.report`)."""
        from .report import format_report

        return format_report(self)

    def to_dict(self) -> dict:
        """JSON-serialisable summary (see :mod:`repro.core.report`)."""
        from .report import report_dict

        return report_dict(self)


def analyze_trace(
    trace: Trace | None,
    config: AnalysisConfig | None = None,
    *,
    session=None,
    cache_dir=None,
    shards: int | None = None,
    max_memory_mb: float | None = None,
    source_path=None,
    lint=None,
) -> VariationAnalysis:
    """Run the full performance-variation analysis on ``trace``.

    A facade over :class:`repro.core.session.AnalysisSession`: a fresh
    session is created (and linked to the result for ``refined()`` /
    ``at_function()`` reuse) unless an existing one is passed.

    Parameters
    ----------
    session:
        Reuse an existing session (its trace/config win; passing a
        different ``trace`` or ``config`` alongside is an error).
    cache_dir:
        Persist stage artifacts under this directory so later sessions
        over the same trace skip replay and profiling entirely.
    shards, max_memory_mb:
        Plan the shard engine (:mod:`repro.core.engine`) with more
        than one shard: partition the ranks into ``shards`` groups
        (raised further until each group's estimated working set fits
        ``max_memory_mb``) and replay/segment/accumulate them in worker
        processes.  Results are bitwise identical to the one-shard,
        in-process plan.
    source_path:
        Trace file to shard from; with it, ``trace`` may be ``None``
        and the parent process never materialises event streams.
    lint:
        ``True`` or a :class:`repro.lint.LintConfig` to run the full
        tracelint rule set as the pre-flight gate (instead of only the
        structural error rules); error-severity findings raise
        :class:`repro.lint.LintError` before any replay happens.

    Raises
    ------
    ValueError
        If the trace fails structural validation (a
        :class:`repro.lint.LintError`), or if no dominant-function
        candidate exists.
    """
    from .session import AnalysisSession

    if session is not None:
        if session.trace is not trace and trace is not None:
            raise ValueError("session was created for a different trace")
        if config is not None and config != session.config:
            raise ValueError("session already carries a different config")
        return session.analysis()
    session = AnalysisSession(
        trace,
        config=config,
        cache_dir=cache_dir,
        shards=shards,
        max_memory_mb=max_memory_mb,
        source_path=source_path,
        lint=lint,
    )
    return session.analysis()

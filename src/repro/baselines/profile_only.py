"""Profile-only analysis (the TAU / HPCToolkit baseline).

Classical profilers aggregate over processes *and* time.  The paper's
Section II argues that "due to aggregation, the detection of runtime
imbalances and small slow sections can be hard or even impossible".
This baseline makes that limitation measurable: it sees total times per
function and per process, so it can notice a *persistent* per-rank skew
— but a single slow invocation (the FD4 interruption) or a drift over
time is invisible to it by construction.
"""

from __future__ import annotations

import numpy as np

from .._record import field, record
from ..core.imbalance import robust_zscores
from ..profiles.profile import TraceProfile
from ..trace.definitions import Paradigm
from ..trace.trace import Trace
from ._common import resolve_inputs

__all__ = ["ProfileOnlyFinding", "ProfileOnlyResult", "analyze_profile_only"]


@record(frozen=True, slots=True)
class ProfileOnlyFinding:
    """One flagged function or rank from aggregated data."""

    kind: str  # "function-hotspot" | "rank-imbalance"
    name: str
    rank: int  # -1 for function-level findings
    value: float
    detail: str


@record(slots=True)
class ProfileOnlyResult:
    """Everything a profile-aggregating tool can report.

    Notably absent (structurally impossible at this aggregation level):
    segment-level findings and temporal trends.
    """

    findings: list[ProfileOnlyFinding] = field(default_factory=list)
    mpi_share: float = 0.0
    top_functions: list[tuple[str, float]] = field(default_factory=list)

    #: Capability flags for the baseline-comparison harness.
    can_localize_time: bool = False
    can_localize_single_invocations: bool = False

    def flagged_ranks(self) -> list[int]:
        return [f.rank for f in self.findings if f.kind == "rank-imbalance"]


def analyze_profile_only(
    trace: Trace | None = None,
    profile: TraceProfile | None = None,
    rank_threshold: float = 3.0,
    min_relative_excess: float = 0.1,
    top_k: int = 10,
    *,
    session=None,
) -> ProfileOnlyResult:
    """Analyse ``trace`` using only aggregated profile data.

    Per-rank *total compute* (exclusive non-MPI time over the whole
    run) is the finest granularity available; rank anomalies are
    flagged with the same robust statistics as the main pipeline so
    the comparison isolates the effect of aggregation, not of the
    detector.

    Pass ``session`` to reuse a memoized
    :class:`~repro.core.session.AnalysisSession` profile instead of
    re-profiling.
    """
    trace, profile = resolve_inputs(trace, profile, session)
    result = ProfileOnlyResult()
    result.mpi_share = profile.paradigm_share(Paradigm.MPI)
    result.top_functions = [
        (r.name, r.exclusive_sum) for r in profile.stats.top_exclusive(top_k)
    ]
    for name, value in result.top_functions[:3]:
        result.findings.append(
            ProfileOnlyFinding(
                kind="function-hotspot",
                name=name,
                rank=-1,
                value=value,
                detail=f"top exclusive time {value:.6g}s (aggregated)",
            )
        )

    # Per-rank total compute time (whole-run aggregate).
    mpi_ids = set(int(i) for i in trace.mpi_region_ids())
    totals = np.zeros(trace.num_processes, dtype=np.float64)
    ranks = trace.ranks
    for i, rank in enumerate(ranks):
        table = profile.tables[rank]
        keep = ~np.isin(table.region, list(mpi_ids))
        totals[i] = float(table.exclusive[keep].sum())
    z = robust_zscores(totals)
    median = float(np.median(totals)) if len(totals) else 0.0
    for i in np.flatnonzero(
        (z > rank_threshold) & (totals > median * (1 + min_relative_excess))
    ):
        result.findings.append(
            ProfileOnlyFinding(
                kind="rank-imbalance",
                name=f"rank {ranks[i]}",
                rank=int(ranks[i]),
                value=float(totals[i]),
                detail=(
                    f"total compute {totals[i]:.6g}s vs median {median:.6g}s "
                    f"(z={z[i]:.2f}); run-total only, no time axis"
                ),
            )
        )
    result.findings.sort(key=lambda f: -f.value)
    return result

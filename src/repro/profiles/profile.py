"""High-level profile facade combining flat stats and call tree.

:class:`TraceProfile` is the object the CLI's ``profile`` subcommand
and the baselines' profile-only analysis consume.  It also exposes
per-process breakdowns (time share per paradigm), which back the
"fraction of MPI" observations in the paper's case studies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .._record import record
from ..trace.definitions import Paradigm
from .stats import compute_statistics

if TYPE_CHECKING:
    from ..trace.trace import Trace
    from .callpath import CallTree
    from .replay import InvocationTable
    from .stats import FunctionStatistics

__all__ = ["TraceProfile", "profile_trace"]


@record(frozen=True, slots=True)
class ParadigmShare:
    """Exclusive-time share of one paradigm (e.g. 25% MPI)."""

    paradigm: Paradigm
    exclusive_sum: float
    share: float


class TraceProfile:
    """Aggregated profile of one trace.

    Parameters are normally supplied by :func:`profile_trace`; the
    invocation ``tables`` are retained so downstream passes (dominant
    function, SOS) can reuse them without re-replaying.
    """

    def __init__(
        self,
        trace: Trace,
        tables: dict[int, InvocationTable],
        stats: FunctionStatistics,
    ) -> None:
        self.trace = trace
        self.tables = tables
        self.stats = stats
        self._call_tree: CallTree | None = None

    @property
    def call_tree(self) -> CallTree:
        """Call tree, built lazily on first use."""
        if self._call_tree is None:
            from .callpath import build_call_tree

            self._call_tree = build_call_tree(self.trace, self.tables)
        return self._call_tree

    # -- paradigm shares -------------------------------------------------

    def paradigm_shares(self) -> list[ParadigmShare]:
        """Exclusive-time share per paradigm across the whole run."""
        totals: dict[Paradigm, float] = {}
        for region in self.trace.regions:
            t = float(self.stats.exclusive_sum[region.id])
            if t:
                totals[region.paradigm] = totals.get(region.paradigm, 0.0) + t
        grand = sum(totals.values())
        return sorted(
            (
                ParadigmShare(p, t, t / grand if grand else 0.0)
                for p, t in totals.items()
            ),
            key=lambda s: -s.exclusive_sum,
        )

    def paradigm_share(self, paradigm: Paradigm) -> float:
        """Fractional exclusive-time share of one paradigm (0.0 if absent)."""
        for share in self.paradigm_shares():
            if share.paradigm == paradigm:
                return share.share
        return 0.0

    def mpi_fraction(self, t0: float | None = None, t1: float | None = None) -> float:
        """Share of MPI time, optionally restricted to a window.

        The windowed variant recomputes exclusive shares from the
        invocation tables (clipping invocations to the window), which
        backs statements like "25% MPI fraction during the iterations"
        (paper Section VII-C).
        """
        if t0 is None and t1 is None:
            return self.paradigm_share(Paradigm.MPI)
        lo = self.trace.t_min if t0 is None else t0
        hi = self.trace.t_max if t1 is None else t1
        mpi_ids = set(int(i) for i in self.trace.mpi_region_ids())
        mpi_time = 0.0
        total_time = 0.0
        for table in self.tables.values():
            start = np.maximum(table.t_enter, lo)
            stop = np.minimum(table.t_leave, hi)
            overlap = np.clip(stop - start, 0.0, None)
            # Scale exclusive time by the clipped share of the frame.
            with np.errstate(invalid="ignore", divide="ignore"):
                frac = np.where(table.inclusive > 0, overlap / table.inclusive, 0.0)
            contrib = table.exclusive * frac
            is_mpi = np.isin(table.region, list(mpi_ids))
            mpi_time += float(contrib[is_mpi].sum())
            total_time += float(contrib.sum())
        return mpi_time / total_time if total_time else 0.0

    # -- per-process view -------------------------------------------------

    def per_rank_exclusive(self, region: int | str) -> np.ndarray:
        """Aggregated exclusive time of one region, per rank."""
        if isinstance(region, str):
            region = self.trace.regions.id_of(region)
        out = np.zeros(self.trace.num_processes, dtype=np.float64)
        for pos, rank in enumerate(self.trace.ranks):
            table = self.tables[rank]
            mask = table.region == region
            out[pos] = float(table.exclusive[mask].sum())
        return out

    def format_flat(self, k: int = 15) -> str:
        """Text rendering of the top-k flat profile by inclusive time."""
        rows = self.stats.rows()[:k]
        header = f"{'function':<32}{'count':>10}{'incl':>14}{'excl':>14}"
        lines = [header, "-" * len(header)]
        for r in rows:
            lines.append(
                f"{r.name:<32}{r.count:>10}{r.inclusive_sum:>14.6g}"
                f"{r.exclusive_sum:>14.6g}"
            )
        return "\n".join(lines)


def profile_trace(
    trace: Trace, tables: dict[int, InvocationTable]
) -> TraceProfile:
    """The aggregated profile of ``trace`` from its invocation
    ``tables``."""
    stats = compute_statistics(trace, tables)
    return TraceProfile(trace, tables, stats)

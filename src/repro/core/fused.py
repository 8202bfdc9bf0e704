"""Fused single-pass analysis kernel (batch entry point).

A staged pipeline touches every event stream twice before any
analysis product exists: once in the lint pass (which pairs enters
and leaves to check nesting) and once in
:func:`~repro.profiles.replay.match_invocations` (which re-derives the
exact same masks and pairing from scratch), and then a third partial
pass aggregates per-region statistics from the tables.

:func:`fused_bootstrap` does all three in **one** pass.  The work
lives in :class:`~repro.core.incremental.IncrementalKernel` — the
cursor-driven engine behind streaming and the sharded workers, which
runs ranks in batches — and this function is simply the batch driver:
one whole-rank chunk per rank, taken from
:meth:`~repro.trace.trace.Trace.event_streams`.  For a cold session's
own file those streams come rank by rank from the file's cursor, so
the pass never holds the decoded trace.  The scan runs any
:class:`~repro.lint.model.LintConfig`: the structural gate by
default, the full rule set for ``analyze --preflight``, whose report
then comes out of the same pass that builds the tables.  Outputs are
bitwise identical to the staged pipeline by construction:

* diagnostics come from the same rules, finalised exactly like
  ``lint_trace(trace, config=lint)``, which scans one-rank batches;
* tables share :func:`~repro.profiles.replay.table_from_pairing` with
  ``match_invocations`` (its one-rank batch);
* statistics partials merge rank-ascending, which is the definition of
  :meth:`~repro.profiles.stats.FunctionStatistics.from_partials`.

``tests/test_differential.py`` and the golden suite lock the identity,
and — because this wrapper feeds the incremental kernel — they lock
the batch/streaming engine parity at the same time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Literal

from ..trace.trace import Trace
from .incremental import FusedBootstrap, IncrementalKernel

if TYPE_CHECKING:
    from ..lint.model import LintConfig

__all__ = ["FusedBootstrap", "fused_bootstrap"]


def fused_bootstrap(
    trace: Trace,
    *,
    lint: LintConfig | None | Literal[False] = None,
    table_ranks=None,
    graph: bool = False,
) -> FusedBootstrap:
    """Lint-scan, replay and profile-aggregate ``trace`` in one pass.

    ``lint`` is the :class:`~repro.lint.model.LintConfig` every rank is
    scanned with: ``None`` runs the structural gate
    (:func:`~repro.lint.engine.validate_config`), ``False`` skips the
    scan and takes tables straight from
    :func:`~repro.profiles.replay.match_invocations` (still fused with
    the statistics aggregation).  ``table_ranks`` restricts
    table/partial construction to a subset of ranks (the scan still
    covers all of them): a session replays only ranks whose cached
    tables are missing, and ``()`` builds none.  ``graph`` builds the
    scan's match graph even when no hb-scope rule needs it (``repro
    deps``).  Each rank finishes as soon as it is fed, so a trace whose
    streams decode on demand holds one rank group at a time.
    """
    kernel = IncrementalKernel(
        trace.regions,
        trace.metrics,
        trace.num_processes,
        trace.ranks,
        lint=lint,
        table_ranks=table_ranks,
        trace_name=trace.name,
        num_events=trace.num_events,
        graph=graph,
    )
    for rank, events in trace.event_streams():
        kernel.feed(rank, events)
        kernel.finish_rank(rank)
    return kernel.finalize()

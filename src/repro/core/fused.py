"""Fused single-pass analysis kernel (batch entry point).

A staged pipeline touches every event stream twice before any
analysis product exists: once in the lint pass (which pairs enters
and leaves to check nesting) and once in
:func:`~repro.profiles.replay.match_invocations` (which re-derives the
exact same masks and pairing from scratch), and then a third partial
pass aggregates per-region statistics from the tables.

:func:`fused_bootstrap` does all three in **one** pass.  The work
lives in :class:`~repro.core.incremental.IncrementalKernel`, which
runs ranks in batches, and this function is its one driver: it adds
each of the trace's :meth:`~repro.trace.trace.Trace.event_streams`
to the kernel whole.  For a session's own file those streams come rank
by rank from the file's cursor, so the pass never holds the decoded
trace; every session runs it through
the shard engine (:mod:`repro.core.engine`), in process or in one
worker per rank group.  The scan runs any
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

``tests/test_differential.py`` and the golden suite lock the identity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Literal

from ..trace.trace import Trace
from .incremental import FusedBootstrap, IncrementalKernel

if TYPE_CHECKING:
    from ..lint.model import LintConfig

__all__ = ["FusedBootstrap", "fused_bootstrap", "kernel_for"]


def kernel_for(
    trace: Trace, *, ranks=None, num_processes: int | None = None, **settings
) -> IncrementalKernel:
    """An :class:`~repro.core.incremental.IncrementalKernel` over
    ``trace``'s definitions and its ``ranks`` (default: all of them),
    sized from its event count; ``settings`` are the kernel's other
    keyword arguments.  ``num_processes`` (default: the trace's) names
    the size of the whole trace when ``trace`` holds one rank group."""
    return IncrementalKernel(
        trace.regions,
        trace.metrics,
        trace.num_processes if num_processes is None else num_processes,
        trace.ranks if ranks is None else ranks,
        trace_name=trace.name,
        num_events=trace.num_events,
        **settings,
    )


def fused_bootstrap(
    trace: Trace,
    *,
    ranks=None,
    lint: LintConfig | None | Literal[False] = None,
    table_ranks=None,
    graph: bool = False,
    finalize: bool = True,
    **kernel,
) -> FusedBootstrap:
    """Lint-scan, replay and profile-aggregate ``trace`` in one pass.

    ``lint`` is the :class:`~repro.lint.model.LintConfig` every rank is
    scanned with: ``None`` runs the structural gate
    (:func:`~repro.lint.engine.validate_config`), ``False`` skips the
    scan and takes tables straight from
    :func:`~repro.profiles.replay.match_invocations` (still fused with
    the statistics aggregation).  ``table_ranks`` restricts
    table/partial construction to a subset of ranks (the scan still
    covers all of them): a session replays only ranks whose stored
    tables are missing, and ``()`` builds none.  ``graph`` builds the
    scan's match graph even when no hb-scope rule needs it (``repro
    deps``).  Each rank joins the kernel whole, so a trace whose
    streams decode on demand holds one rank batch at a time.

    ``ranks`` (default: all) limits the pass to part of the trace, a
    shard's rank group; ``kernel`` holds the further settings of the
    pass's kernel (:func:`kernel_for`): a shard's pass sends its tables
    to a ``table_sink`` and its match records to a ``match_sink``.
    With ``finalize=False`` the result is the kernel's
    :meth:`~repro.core.incremental.IncrementalKernel.finish`: the scan
    stays unfinalised, for the parent to finish over every shard.
    """
    pass_kernel = kernel_for(
        trace, ranks=ranks, lint=lint, table_ranks=table_ranks, graph=graph,
        **kernel,
    )
    for rank, events in trace.event_streams(ranks):
        pass_kernel.add_rank(rank, events)
    return pass_kernel.finalize() if finalize else pass_kernel.finish()

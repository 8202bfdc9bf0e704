"""The rank-batched kernel's per-rank contract.

:class:`repro.core.incremental.IncrementalKernel` is the single engine
behind ``fused_bootstrap`` and the sharded workers; it takes each rank
whole.  These tests pin its contract directly: a rank is added once,
ranks never added finish empty, extents follow the streams, and the
``table_sink`` spill path hands every table out exactly once.
"""

import numpy as np
import pytest

from repro.core.fused import fused_bootstrap
from repro.core.incremental import IncrementalKernel

_TABLE_COLUMNS = ("region", "t_enter", "t_leave", "depth", "parent")


@pytest.fixture(scope="module")
def trace():
    from repro.sim.workloads.synthetic import SyntheticConfig, generate

    return generate(
        SyntheticConfig(
            ranks=5,
            iterations=6,
            base_compute=0.005,
            slow_ranks={3: 1.4},
            seed=21,
        )
    )


def _kernel(trace, **kwargs):
    return IncrementalKernel(
        trace.regions,
        trace.metrics,
        trace.num_processes,
        trace.ranks,
        trace_name=trace.name,
        **kwargs,
    )


def _assert_same_boot(got, want):
    key = lambda d: (d.rank, d.code, d.message, d.position, d.time)
    if want.report is None:
        assert got.report is None
    else:
        assert [key(d) for d in got.report.diagnostics] == [
            key(d) for d in want.report.diagnostics
        ]
    assert sorted(got.tables) == sorted(want.tables)
    for rank in want.tables:
        for col in _TABLE_COLUMNS:
            np.testing.assert_array_equal(
                getattr(got.tables[rank], col), getattr(want.tables[rank], col)
            )
        for stat, arr in want.partials[rank].items():
            np.testing.assert_array_equal(got.partials[rank][stat], arr)


class TestKernelContract:
    def test_feed_after_finish_raises(self, trace):
        kernel = _kernel(trace)
        rank = trace.ranks[0]
        kernel.add_rank(rank, trace.events_of(rank))
        with pytest.raises(ValueError, match="finalized"):
            kernel.add_rank(rank, trace.events_of(rank)[:4])

    def test_finalize_closes_open_ranks(self, trace):
        kernel = _kernel(trace, lint=False)
        *added, missing = trace.ranks
        for rank in added:
            kernel.add_rank(rank, trace.events_of(rank))
        boot = kernel.finalize()  # finishes ``missing`` as empty
        assert sorted(boot.tables) == trace.ranks
        assert len(boot.tables[missing]) == 0
        assert missing not in boot.extents

    def test_extents_match_streams(self, trace):
        kernel = _kernel(trace)
        for rank in trace.ranks:
            kernel.add_rank(rank, trace.events_of(rank))
        kernel.finalize()
        for rank in trace.ranks:
            events = trace.events_of(rank)
            assert kernel.extents[rank] == (
                len(events),
                float(events.time[0]),
                float(events.time[-1]),
            )


class TestTableSink:
    def test_sink_receives_every_table_once(self, trace):
        want = fused_bootstrap(trace)
        sunk = {}

        def sink(rank, table):
            assert rank not in sunk
            sunk[rank] = table

        kernel = _kernel(trace, table_sink=sink)
        for rank in trace.ranks:
            kernel.add_rank(rank, trace.events_of(rank))
        boot = kernel.finalize()
        # Sinked tables are handed out, not retained.
        assert not boot.tables
        assert sorted(sunk) == sorted(want.tables)
        for rank, table in sunk.items():
            for col in _TABLE_COLUMNS:
                np.testing.assert_array_equal(
                    getattr(table, col), getattr(want.tables[rank], col)
                )
        # Partials are always retained (they are small and the
        # phase-2 merge needs them rank-ascending).
        assert sorted(boot.partials) == sorted(want.partials)

    def test_table_ranks_subset(self, trace):
        want = fused_bootstrap(trace)
        subset = trace.ranks[::2]
        kernel = _kernel(trace, table_ranks=subset)
        for rank in trace.ranks:
            kernel.add_rank(rank, trace.events_of(rank))
        boot = kernel.finalize()
        assert sorted(boot.tables) == sorted(subset)
        for rank in subset:
            np.testing.assert_array_equal(
                boot.tables[rank].t_enter, want.tables[rank].t_enter
            )
        # Validation still covered all ranks.
        from repro.lint import lint_trace, validate_config

        key = lambda d: (d.rank, d.code, d.message, d.position, d.time)
        lint_report = lint_trace(trace, config=validate_config())
        assert [key(d) for d in boot.report.diagnostics] == [
            key(d) for d in lint_report.diagnostics
        ]

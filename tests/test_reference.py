"""The rank-batched kernel, segmentation and SOS-time against an
independent per-event reference.

``tests/reference_impl.py`` replays each stream with an explicit call
stack, written from the paper's definitions and sharing no code with
``repro``.  It is checked against the hand-computable paper figures,
then the production kernel (many ranks per batch) must reproduce it
bitwise on small fuzz scenarios — and planted table bugs must fail.
Its segments and SOS-times must equal ``segment_trace`` and
``compute_sos`` bitwise on every golden trace and fuzz scenario.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import reference_impl as ref
from repro.core import compute_sos, default_classifier, incremental, segment_trace
from repro.core.fused import fused_bootstrap
from repro.profiles import replay
from repro.sim.fuzz import build_trace, generate_spec
from repro.trace import read_trace
from scenario_oracle import (
    assert_matches_reference,
    assert_segments_match,
    children_by_local_row,
    first_child_only,
    plant_table_bug,
    reference_dominant,
    reference_segments,
    reference_sync,
    reference_tables,
)

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_TRACES = sorted(path.stem for path in GOLDEN.glob("*.jsonl"))
SEEDS = range(8)


def assert_boot_matches(trace, boot):
    """A kernel pass's tables and partials equal the reference's."""
    assert_matches_reference(trace, boot.tables, boot.partials)


def assert_segments_match_reference(trace):
    """``segment_trace`` + ``compute_sos`` equal the reference, bitwise."""
    dominant = reference_dominant(trace)
    assert dominant >= 0
    tables = replay.replay_trace(trace)
    segmentation = segment_trace(tables, dominant)
    sos = compute_sos(trace, segmentation, tables)
    assert_segments_match(segmentation, sos, reference_segments(trace, dominant))


@pytest.fixture(scope="module")
def scenarios():
    return [build_trace(generate_spec(seed)) for seed in SEEDS]


class TestReferenceOnPaperFigures:
    @pytest.mark.parametrize("name", ["figure2", "figure3"])
    def test_profile_and_dominant(self, name):
        trace = read_trace(GOLDEN / f"{name}.jsonl")
        expected = json.loads((GOLDEN / f"{name}.expected.json").read_text())
        n = len(trace.regions)
        _, partials = reference_tables(trace)
        stats = ref.merge_partials([partials[r] for r in sorted(partials)], n)
        names = [region.name for region in trace.regions]
        profile = {
            names[r]: {
                "count": stats["count"][r],
                "exclusive_sum": stats["exclusive_sum"][r],
                "inclusive_sum": stats["inclusive_sum"][r],
            }
            for r in range(n)
            if stats["count"][r]
        }
        assert profile == expected["profile"]
        paradigms = [int(region.paradigm) for region in trace.regions]
        dominant = ref.dominant_region(stats, paradigms, trace.num_processes)
        assert names[dominant] == expected["dominant"]

    def test_reference_rejects_broken_streams(self):
        with pytest.raises(ValueError, match="empty stack"):
            ref.replay([0.0], [ref.LEAVE], [0])
        with pytest.raises(ValueError, match="another region"):
            ref.replay([0.0, 1.0], [ref.ENTER, ref.LEAVE], [0, 1])
        with pytest.raises(ValueError, match="still open"):
            ref.replay([0.0], [ref.ENTER], [0])


class TestSegmentsAndSOS:
    def test_figure3(self):
        trace = read_trace(GOLDEN / "figure3.jsonl")
        expected = json.loads((GOLDEN / "figure3.expected.json").read_text())
        got = reference_segments(trace, reference_dominant(trace))
        assert {str(r): [a for a, _, _ in segs] for r, segs in got.items()} == (
            expected["segment_starts"]
        )
        assert {str(r): [c for _, _, c in segs] for r, segs in got.items()} == (
            expected["sos"]
        )

    @pytest.mark.parametrize("name", GOLDEN_TRACES)
    def test_goldens(self, name):
        trace = read_trace(GOLDEN / f"{name}.jsonl")
        assert reference_sync(trace) == default_classifier().mask(trace).tolist()
        assert_segments_match_reference(trace)

    def test_fuzz_scenarios(self, scenarios):
        for trace in scenarios:
            assert_segments_match_reference(trace)

    def test_sync_time_is_subtracted(self):
        # Figure 3's rank 0 spends 1 s in MPI at the end of each of its
        # segments: SOS-time is the duration minus that second.
        trace = read_trace(GOLDEN / "figure3.jsonl")
        ev = trace.events_of(0)
        columns = (ev.time.tolist(), ev.kind.tolist(), ev.ref.tolist())
        dominant, sync = reference_dominant(trace), reference_sync(trace)
        got = ref.segments_and_sos(*columns, dominant, sync)
        blind = ref.segments_and_sos(*columns, dominant, [False] * len(sync))
        assert [c for _, _, c in got] == [5.0, 2.0, 4.0]
        assert [c for _, _, c in blind] == [6.0, 3.0, 5.0]


class TestKernelEqualsReference:
    @pytest.mark.parametrize("batch_events", [None, 1, 300])
    def test_fuzz_scenarios(self, scenarios, batch_events, monkeypatch):
        if batch_events is not None:
            monkeypatch.setattr(incremental, "_BATCH_EVENTS", batch_events)
        for trace in scenarios:
            assert len(trace.ranks) <= 12
            assert_boot_matches(trace, fused_bootstrap(trace))
            assert_boot_matches(trace, fused_bootstrap(trace, lint=False))

    def test_match_invocations(self, scenarios):
        for trace in scenarios[:3]:
            tables = {r: replay.match_invocations(trace.events_of(r)) for r in trace.ranks}
            boot = fused_bootstrap(trace)
            assert_matches_reference(trace, tables, boot.partials)


class TestReferenceHasTeeth:
    def test_batch_bug_is_caught(self, scenarios, monkeypatch):
        plant_table_bug(monkeypatch, children_by_local_row)
        with pytest.raises(AssertionError, match="exclusive"):
            for trace in scenarios:
                assert_boot_matches(trace, fused_bootstrap(trace))

    def test_shared_bug_is_caught_where_self_comparison_is_blind(
        self, scenarios, monkeypatch
    ):
        plant_table_bug(monkeypatch, first_child_only)
        blind = True
        for trace in scenarios:
            boot = fused_bootstrap(trace)
            for rank in trace.ranks:
                alone = replay.match_invocations(trace.events_of(rank))
                blind &= np.array_equal(alone.exclusive, boot.tables[rank].exclusive)
        assert blind  # the kernel agrees with its own one-rank batches
        with pytest.raises(AssertionError, match="exclusive"):
            for trace in scenarios:
                assert_boot_matches(trace, fused_bootstrap(trace))

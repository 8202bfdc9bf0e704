"""The rank-batched kernel against an independent per-event reference.

``tests/reference_impl.py`` replays each stream with an explicit call
stack, written from the paper's definitions and sharing no code with
``repro``.  It is checked against the hand-computable paper figures,
then the production kernel (many ranks per batch) must reproduce it
bitwise on small fuzz scenarios — and planted table bugs must fail.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import reference_impl as ref
from repro._record import replace
from repro.core import incremental
from repro.core.fused import fused_bootstrap
from repro.profiles import replay
from repro.sim.fuzz import build_trace, generate_spec
from repro.trace import read_trace

GOLDEN = Path(__file__).parent / "golden"
SEEDS = range(8)
_TABLE_COLUMNS = (
    "region", "t_enter", "t_leave", "inclusive", "exclusive", "depth",
    "parent", "outermost", "enter_index", "leave_index",
)


def _reference(trace):
    n = len(trace.regions)
    frames = {}
    for rank in trace.ranks:
        ev = trace.events_of(rank)
        frames[rank] = ref.replay(ev.time.tolist(), ev.kind.tolist(), ev.ref.tolist())
    partials = {rank: ref.region_partials(frames[rank], n) for rank in trace.ranks}
    return frames, partials


def assert_matches_reference(trace, boot):
    """Every table row and partial equals the reference, bitwise."""
    frames, partials = _reference(trace)
    assert sorted(boot.tables) == sorted(frames)
    for rank, want in frames.items():
        table = boot.tables[rank]
        for col in _TABLE_COLUMNS:
            assert getattr(table, col).tolist() == [
                getattr(f, col) for f in want
            ], f"rank {rank} column {col}"
        for col in ref.STAT_COLUMNS:
            assert boot.partials[rank][col].tolist() == partials[rank][col], (
                f"rank {rank} statistic {col}"
            )


@pytest.fixture(scope="module")
def scenarios():
    return [build_trace(generate_spec(seed)) for seed in SEEDS]


class TestReferenceOnPaperFigures:
    @pytest.mark.parametrize("name", ["figure2", "figure3"])
    def test_profile_and_dominant(self, name):
        trace = read_trace(GOLDEN / f"{name}.jsonl")
        expected = json.loads((GOLDEN / f"{name}.expected.json").read_text())
        n = len(trace.regions)
        _, partials = _reference(trace)
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


class TestKernelEqualsReference:
    @pytest.mark.parametrize("batch_events", [None, 1, 300])
    def test_fuzz_scenarios(self, scenarios, batch_events, monkeypatch):
        if batch_events is not None:
            monkeypatch.setattr(incremental, "_BATCH_EVENTS", batch_events)
        for trace in scenarios:
            assert len(trace.ranks) <= 12
            assert_matches_reference(trace, fused_bootstrap(trace))
            assert_matches_reference(trace, fused_bootstrap(trace, lint=False))

    def test_match_invocations(self, scenarios):
        for trace in scenarios[:3]:
            tables = {r: replay.match_invocations(trace.events_of(r)) for r in trace.ranks}
            boot = fused_bootstrap(trace)
            assert_matches_reference(trace, replace(boot, tables=tables))


def _plant(monkeypatch, corrupt):
    """Route the kernel's and replay's table building through a bug."""
    real = replay.table_from_pairing

    def planted(pairing, time, ref_column):
        built = real(pairing, time, ref_column)
        exclusive = corrupt(built.table, built.frame_starts)
        return replace(built, table=replace(built.table, exclusive=exclusive))

    monkeypatch.setattr(incremental, "table_from_pairing", planted)
    monkeypatch.setattr(replay, "table_from_pairing", planted)


def _children_by_local_row(table, frame_starts):
    """Exclusive time with children credited to their rank-local parent
    row in batch coordinates: right for the first rank of a batch only."""
    child_sum = np.zeros(len(table))
    has = table.parent >= 0
    np.add.at(child_sum, table.parent[has], table.inclusive[has])
    return table.inclusive - child_sum


def _first_child_only(table, frame_starts):
    """Exclusive time that subtracts only each frame's first child."""
    offset = np.repeat(frame_starts[:-1], np.diff(frame_starts))
    rows = np.flatnonzero(table.parent >= 0)
    parent = table.parent[rows] + offset[rows]
    first = np.unique(parent, return_index=True)[1]
    child_sum = np.zeros(len(table))
    child_sum[parent[first]] = table.inclusive[rows[first]]
    return table.inclusive - child_sum


class TestReferenceHasTeeth:
    def test_batch_bug_is_caught(self, scenarios, monkeypatch):
        _plant(monkeypatch, _children_by_local_row)
        with pytest.raises(AssertionError, match="exclusive"):
            for trace in scenarios:
                assert_matches_reference(trace, fused_bootstrap(trace))

    def test_shared_bug_is_caught_where_self_comparison_is_blind(
        self, scenarios, monkeypatch
    ):
        _plant(monkeypatch, _first_child_only)
        blind = True
        for trace in scenarios:
            boot = fused_bootstrap(trace)
            for rank in trace.ranks:
                alone = replay.match_invocations(trace.events_of(rank))
                blind &= np.array_equal(alone.exclusive, boot.tables[rank].exclusive)
        assert blind  # the kernel agrees with its own one-rank batches
        with pytest.raises(AssertionError, match="exclusive"):
            for trace in scenarios:
                assert_matches_reference(trace, fused_bootstrap(trace))

"""Differential suite: sharded analysis must equal unsharded, bitwise.

The sharded engine's contract is *exact* reproduction — not "close
enough" — because artifact cache keys and golden snapshots are shared
between the two paths.  Every bundled workload scenario is analyzed
unsharded and with several shard counts (including counts that do not
divide the rank count) and every intermediate product is compared with
``np.array_equal``.  A second block proves the streaming analyzer is
batch-equivalent across chunk boundaries that split an invocation.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import analyze_trace, compute_sos, segment_trace
from repro.core.session import AnalysisSession
from repro.core.streaming import StreamingAnalyzer
from repro.profiles.replay import replay_trace
from repro.trace import write_binary, write_jsonl
from scenario_oracle import (
    assert_identical_analysis,
    build_adversarial_traces,
    generate_adversarial,
)

SHARD_COUNTS = (1, 2, 3, 7)


def _scenario_cosmo():
    from repro.sim.workloads import cosmo_specs

    return cosmo_specs.generate(processes=9, iterations=8)


def _scenario_fd4():
    from repro.sim.workloads import cosmo_specs_fd4

    return cosmo_specs_fd4.generate(processes=12, iterations=6)


def _scenario_wrf():
    from repro.sim.workloads import wrf

    return wrf.generate(processes=9, iterations=6)


def _scenario_hybrid():
    from repro.sim.workloads import hybrid_openmp

    return hybrid_openmp.generate(ranks=6, iterations=8)


def _scenario_synthetic():
    from repro.sim.workloads.synthetic import SyntheticConfig, generate

    return generate(
        SyntheticConfig(
            ranks=8,
            iterations=12,
            base_compute=0.01,
            slow_ranks={5: 1.6},
            outliers={(2, 7): 0.05},
            seed=3,
        )
    )


SCENARIOS = {
    "cosmo_specs": _scenario_cosmo,
    "cosmo_specs_fd4": _scenario_fd4,
    "wrf": _scenario_wrf,
    "hybrid_openmp": _scenario_hybrid,
    "synthetic": _scenario_synthetic,
}


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def scenario(request):
    """(name, trace, unsharded reference analysis) per workload."""
    trace = SCENARIOS[request.param]()
    return request.param, trace, analyze_trace(trace)


class TestShardedEqualsUnsharded:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_every_workload(self, scenario, shards):
        name, trace, reference = scenario
        candidate = AnalysisSession(trace, shards=shards).analysis()
        assert_identical_analysis(reference, candidate)

    def test_memory_bound_path(self, scenario):
        name, trace, reference = scenario
        total_events = sum(len(trace.events_of(r)) for r in trace.ranks)
        # Budget that forces roughly four shards.
        from repro.core.engine import BYTES_PER_EVENT

        budget_mb = total_events * BYTES_PER_EVENT / 4 / 1e6
        session = AnalysisSession(trace, max_memory_mb=budget_mb)
        assert session._shard_engine().plan.num_shards > 1
        assert_identical_analysis(reference, session.analysis())

    def test_replay_tables_identical(self, scenario):
        name, trace, reference = scenario
        session = AnalysisSession(trace, shards=3)
        direct = replay_trace(trace)
        for rank, table in session.replay().items():
            for col in ("region", "t_enter", "t_leave", "depth", "parent"):
                assert np.array_equal(
                    getattr(table, col), getattr(direct[rank], col)
                )

    def test_fingerprint_parity(self, scenario):
        name, trace, reference = scenario
        from repro.trace.fingerprint import fingerprint_trace

        session = AnalysisSession(trace, shards=2)
        assert (
            session.fingerprint.hexdigest
            == fingerprint_trace(trace).hexdigest
        )


class TestPathBasedSharding:
    """File-backed sharded sessions: workers read only their ranks."""

    @pytest.fixture(scope="class")
    def on_disk(self, tmp_path_factory):
        trace = _scenario_cosmo()
        root = tmp_path_factory.mktemp("traces")
        rpt = root / "run.rpt"
        jsonl = root / "run.jsonl"
        write_binary(trace, rpt)
        write_jsonl(trace, jsonl)
        return trace, analyze_trace(trace), rpt, jsonl

    @pytest.mark.parametrize("fmt", ["rpt", "jsonl"])
    def test_path_session_matches(self, on_disk, fmt, monkeypatch):
        trace, reference, rpt, jsonl = on_disk
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "1")
        path = rpt if fmt == "rpt" else jsonl
        session = AnalysisSession(None, source_path=path, shards=3)
        assert_identical_analysis(reference, session.analysis())

    def test_process_pool_workers(self, on_disk, monkeypatch):
        trace, reference, rpt, _ = on_disk
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")
        session = AnalysisSession(None, source_path=rpt, shards=2)
        assert_identical_analysis(reference, session.analysis())

    def test_warm_cache_crosses_modes(self, on_disk, tmp_path, monkeypatch):
        trace, reference, rpt, _ = on_disk
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "1")
        cache = tmp_path / "cache"
        cold = AnalysisSession(None, source_path=rpt, shards=3,
                               cache_dir=cache)
        assert_identical_analysis(reference, cold.analysis())
        # Unsharded warm session reuses the shard workers' spill.
        warm = AnalysisSession(trace, cache_dir=cache)
        assert_identical_analysis(reference, warm.analysis())
        assert warm.stats.computed.get("replay", 0) == 0
        # Tables load on first access, from the shard workers' spill.
        warm.profile().tables[trace.ranks[0]]
        assert warm.stats.disk_hits.get("replay") == len(trace.ranks)
        assert warm.stats.computed.get("replay", 0) == 0


class TestHypothesisTraces:
    """Random synthetic configurations keep the differential property."""

    @given(
        ranks=st.integers(min_value=2, max_value=9),
        iterations=st.integers(min_value=3, max_value=10),
        seed=st.integers(min_value=0, max_value=2**16),
        shards=st.integers(min_value=1, max_value=5),
        slow=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_synthetic(self, ranks, iterations, seed, shards, slow):
        from repro.sim.workloads.synthetic import SyntheticConfig, generate

        config = SyntheticConfig(
            ranks=ranks,
            iterations=iterations,
            base_compute=0.01,
            slow_ranks={ranks - 1: 1.5} if slow else {},
            seed=seed,
        )
        trace = generate(config)
        reference = analyze_trace(trace)
        candidate = AnalysisSession(trace, shards=shards).analysis()
        assert_identical_analysis(reference, candidate)


class TestFusedEqualsLegacy:
    """The fused kernel's products equal the staged pipeline's, bitwise.

    ``fused_bootstrap`` replaces three separate passes (validate,
    match_invocations, per-rank statistics) with one; this class pins
    the identity the rest of the suite assumes.
    """

    def test_tables_partials_report(self, scenario):
        from repro.core.fused import fused_bootstrap
        from repro.lint import lint_trace, validate_config
        from repro.profiles.stats import rank_statistics_arrays

        name, trace, reference = scenario
        boot = fused_bootstrap(trace)

        lint_report = lint_trace(trace, config=validate_config())
        key = lambda d: (d.rank, d.code, d.message, d.position, d.time)
        assert [key(d) for d in boot.report.diagnostics] == [
            key(d) for d in lint_report.diagnostics
        ]

        legacy_tables = replay_trace(trace)
        n_regions = len(trace.regions)
        assert sorted(boot.tables) == sorted(legacy_tables)
        for rank in trace.ranks:
            for col in ("region", "t_enter", "t_leave", "depth", "parent"):
                assert np.array_equal(
                    getattr(boot.tables[rank], col),
                    getattr(legacy_tables[rank], col),
                ), f"rank {rank} table column {col} differs"
            legacy_partial = rank_statistics_arrays(
                legacy_tables[rank], n_regions
            )
            assert sorted(boot.partials[rank]) == sorted(legacy_partial)
            for stat, want in legacy_partial.items():
                assert np.array_equal(boot.partials[rank][stat], want), (
                    f"rank {rank} partial {stat} differs"
                )

    def test_validate_false_matches_plain_replay(self, scenario):
        from repro.core.fused import fused_bootstrap

        name, trace, reference = scenario
        boot = fused_bootstrap(trace, lint=False)
        assert boot.report is None
        legacy_tables = replay_trace(trace)
        for rank in trace.ranks:
            for col in ("region", "t_enter", "t_leave", "depth", "parent"):
                assert np.array_equal(
                    getattr(boot.tables[rank], col),
                    getattr(legacy_tables[rank], col),
                )

    @staticmethod
    def _trace_with_p2p_only_rank():
        """Rank 0 replays normally; rank 1 holds only SEND/RECV/METRIC
        events — valid per the lint rules, but with nothing to pair."""
        from repro.trace import Location, Trace
        from repro.trace.events import EventKind, EventListBuilder

        trace = Trace(name="p2p-only-rank")
        trace.regions.register("step")
        trace.metrics.register("flops")
        b0 = EventListBuilder()
        for i in range(10):
            b0.append(float(i), EventKind.ENTER, ref=0)
            b0.send(i + 0.4, partner=1, size=8, tag=i)
            b0.append(i + 0.9, EventKind.LEAVE, ref=0)
        trace.add_process(Location(0, "P0"), b0.freeze())
        b1 = EventListBuilder()
        for i in range(10):
            b1.recv(i + 0.5, partner=0, size=8, tag=i)
            b1.metric(i + 0.6, metric=0, value=float(i))
        trace.add_process(Location(1, "P1"), b1.freeze())
        return trace

    def test_rank_without_enter_leave_events(self):
        """A clean rank with zero ENTER/LEAVE events replays to an
        empty table, as on the legacy path (regression: fused_bootstrap
        treated it as unbalanced and skipped it without diagnostics, so
        AnalysisSession and the shard workers KeyError'd on a trace the
        staged pipeline analyzed fine)."""
        from repro.core.fused import fused_bootstrap

        trace = self._trace_with_p2p_only_rank()
        boot = fused_bootstrap(trace)
        assert boot.report.ok
        legacy_tables = replay_trace(trace)
        assert sorted(boot.tables) == sorted(legacy_tables) == [0, 1]
        assert len(boot.tables[1].region) == 0
        assert len(legacy_tables[1].region) == 0

        reference = analyze_trace(trace)
        assert_identical_analysis(reference, AnalysisSession(trace).analysis())
        for shards in SHARD_COUNTS:
            assert_identical_analysis(
                reference, AnalysisSession(trace, shards=shards).analysis()
            )

    def test_empty_stream_allowed_yields_empty_table(self):
        """With allow_empty_streams=True a genuinely empty stream gets
        an empty table/partial rather than being silently dropped."""
        from repro.core.fused import fused_bootstrap
        from repro.lint import validate_config
        from repro.trace import Location
        from repro.trace.events import EventList

        trace = self._trace_with_p2p_only_rank()
        trace.add_process(Location(2, "P2"), EventList.empty())
        boot = fused_bootstrap(
            trace, lint=validate_config(allow_empty_streams=True)
        )
        assert boot.report.ok
        assert sorted(boot.tables) == [0, 1, 2]
        assert len(boot.tables[2].region) == 0
        assert sorted(boot.partials) == [0, 1, 2]


class TestPreflightScan:
    """``analyze --preflight`` is the fused kernel scanning with the full
    rule set, so its report must equal ``lint_trace``'s (the independent
    per-rank loop the fuzz oracle also trusts), and the tables and
    partials the session keeps from it must equal the staged replay's.
    """

    @staticmethod
    def _assert_same_report(trace, path):
        from repro.core.fused import fused_bootstrap
        from repro.lint import LintConfig, lint_trace

        want = lint_trace(trace).to_json()
        assert fused_bootstrap(trace, lint=LintConfig()).report.to_json() == want
        write_binary(trace, path, version=2, codec="raw")
        from_file = AnalysisSession(None, source_path=path).trace
        assert fused_bootstrap(from_file, lint=LintConfig()).report.to_json() == want

    @pytest.mark.parametrize("seed", range(12))
    def test_report_equals_lint_trace_adversarial(self, seed, tmp_path):
        traces = build_adversarial_traces(generate_adversarial(seed))
        for i, trace in enumerate(traces):
            self._assert_same_report(trace, tmp_path / f"adv{i}.rpt")

    @pytest.mark.parametrize("code", ["TL002", "TL003"])
    def test_report_equals_lint_trace_structural(self, code, tmp_path):
        from test_cli import _structural_trace

        self._assert_same_report(_structural_trace(code), tmp_path / "s.rpt")

    def test_tables_partials_equal_staged(self, scenario):
        from repro.profiles.replay import match_invocations
        from repro.profiles.stats import rank_statistics_arrays

        name, trace, reference = scenario
        session = AnalysisSession(trace)
        assert not session.preflight().counts()["error"]
        assert session.stats.computed["replay"] == len(trace.ranks)
        n_regions = len(trace.regions)
        for rank in trace.ranks:
            table = match_invocations(trace.events_of(rank))
            for col in ("region", "t_enter", "t_leave", "depth", "parent"):
                assert np.array_equal(
                    getattr(session._tables[rank], col), getattr(table, col)
                ), f"rank {rank} table column {col} differs"
            want = rank_statistics_arrays(table, n_regions)
            assert sorted(session._partials[rank]) == sorted(want)
            for stat, arr in want.items():
                assert np.array_equal(session._partials[rank][stat], arr)
        assert_identical_analysis(reference, session.analysis())


class TestFormatPathParity:
    """v1-zlib and v2-mmap files yield identical analysis artifacts.

    The acceptance contract for the ``.rpt`` v2 fast path: the
    zero-copy mmap read path must be an implementation detail, never a
    semantic one — fingerprints, statistics, SOS matrices and heat
    grids match the v1 decompress-and-copy path bitwise for every
    shard count, with and without mmap available.
    """

    @pytest.fixture(scope="class")
    def format_pair(self, tmp_path_factory):
        trace = _scenario_synthetic()
        root = tmp_path_factory.mktemp("formats")
        v1, v2 = root / "run-v1.rpt", root / "run-v2.rpt"
        write_binary(trace, v1, version=1)
        write_binary(trace, v2, version=2, codec="raw")
        return analyze_trace(trace), v1, v2

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("fmt", ["v1", "v2"])
    def test_bitwise_identical_across_formats(
        self, format_pair, fmt, shards, monkeypatch
    ):
        reference, v1, v2 = format_pair
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "1")
        path = v1 if fmt == "v1" else v2
        session = AnalysisSession(None, source_path=path, shards=shards)
        assert_identical_analysis(reference, session.analysis())

    def test_fingerprints_match_across_formats(self, format_pair):
        from repro.trace.fingerprint import fingerprint_trace
        from repro.trace.reader import TraceIndex

        reference, v1, v2 = format_pair
        a = fingerprint_trace(TraceIndex(v1).load())
        b = fingerprint_trace(TraceIndex(v2).load())
        assert a.hexdigest == b.hexdigest
        index = TraceIndex(v2)
        for rank in index.ranks:
            assert index.rank_digest(rank) == TraceIndex(v1).rank_digest(rank)

    def test_no_mmap_fallback_identical(self, format_pair, monkeypatch):
        reference, v1, v2 = format_pair
        monkeypatch.setenv("REPRO_NO_MMAP", "1")
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "1")
        session = AnalysisSession(None, source_path=v2, shards=2)
        assert_identical_analysis(reference, session.analysis())


class TestStreamingBatchEquivalence:
    """Chunk boundaries that split an invocation must not matter."""

    @pytest.fixture(scope="class")
    def trace(self):
        return _scenario_synthetic()

    def _series(self, trace, chunk):
        analyzer = StreamingAnalyzer(
            trace.regions, trace.num_processes, dominant="iteration"
        )
        for rank in trace.ranks:
            events = trace.events_of(rank)
            for i in range(0, len(events), chunk):
                analyzer.feed(rank, events[i : i + chunk])
        return {r: analyzer.sos_series(r) for r in trace.ranks}

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_odd_chunks_match_single_feed(self, trace, chunk):
        # Chunks of 1/3/7 events are far smaller than one invocation
        # (enter + leave + nested calls), so every boundary splits one.
        whole = self._series(trace, chunk=10**9)
        chunked = self._series(trace, chunk=chunk)
        for rank in trace.ranks:
            np.testing.assert_array_equal(chunked[rank], whole[rank])

    def test_matches_offline_compute_sos(self, trace):
        tables = replay_trace(trace)
        region = trace.regions.id_of("iteration")
        segmentation = segment_trace(tables, region)
        offline = compute_sos(trace, segmentation, tables)
        chunked = self._series(trace, chunk=5)
        for rank in trace.ranks:
            np.testing.assert_allclose(chunked[rank], offline[rank].sos)

    @given(
        boundaries=st.lists(
            st.integers(min_value=1, max_value=5000),
            min_size=0,
            max_size=24,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_random_chunk_boundaries(self, trace, boundaries):
        """Fragmenting the stream at arbitrary positions never changes
        a single bit of the streamed series (satellite of the cursor
        engine PR: chunking is a transport detail)."""
        whole = self._series(trace, chunk=10**9)
        analyzer = StreamingAnalyzer(
            trace.regions, trace.num_processes, dominant="iteration"
        )
        for rank in trace.ranks:
            events = trace.events_of(rank)
            cuts = sorted({b % (len(events) + 1) for b in boundaries})
            prev = 0
            for cut in cuts + [len(events)]:
                analyzer.feed(rank, events[prev:cut])  # may be empty
                prev = cut
        for rank in trace.ranks:
            np.testing.assert_array_equal(
                analyzer.sos_series(rank), whole[rank]
            )


CURSOR_CHUNKS = (1, 4096, None)  # one event, a page, whole ranks


class TestIncrementalEqualsFused:
    """Incremental analysis from the file's cursor equals the fused
    batch analysis, bitwise.

    ``repro monitor``'s route is the one consumer of the cursor's
    sub-rank chunks: a :class:`StreamingAnalyzer` pinned to the batch
    analysis' dominant function and fed from
    ``index.cursor(chunk_events=chunk)`` must reproduce every rank's
    SOS-times of the fused kernel's analysis, for every golden
    workload, both ``.rpt`` container versions, and chunk sizes from
    one event to whole ranks.
    """

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("chunk", CURSOR_CHUNKS)
    def test_cursor_kernel_matches_fused(
        self, scenario, chunk, version, tmp_path
    ):
        from repro.trace.reader import TraceIndex

        name, trace, reference = scenario
        path = tmp_path / f"{name}-v{version}.rpt"
        kwargs = {"codec": "raw"} if version == 2 else {}
        write_binary(trace, path, version=version, **kwargs)
        index = TraceIndex(path)
        analyzer = StreamingAnalyzer(
            index.regions, len(index.ranks),
            dominant=reference.selection.region,
        )
        for batch in index.cursor(chunk_events=chunk):
            analyzer.feed(batch.rank, batch.events)
            if batch.final:
                analyzer.finish_rank(batch.rank)
        for rank in reference.sos.ranks:
            assert np.array_equal(
                analyzer.sos_series(rank), reference.sos[rank].sos
            ), f"rank {rank} streamed SOS differs"


KERNEL_BATCHES = (1, 4096, None)  # one-rank batches, small ones, default


class TestChunkedShardWorkers:
    """Neither the kernel's rank-batch size nor the shard count leaks
    into analysis products: batches join whole ranks, in process or in
    each shard's pass."""

    _files: dict = {}

    @pytest.fixture()
    def trace_file(self, scenario, tmp_path_factory):
        name, trace, reference = scenario
        if name not in self._files:
            path = tmp_path_factory.mktemp("chunked") / f"{name}.rpt"
            write_binary(trace, path, version=2, codec="raw")
            self._files[name] = path
        return reference, self._files[name]

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("batch", KERNEL_BATCHES)
    def test_all_workloads(self, trace_file, shards, batch, monkeypatch):
        from repro.core import incremental

        reference, path = trace_file
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "1")
        if batch is not None:
            monkeypatch.setattr(incremental, "_BATCH_EVENTS", batch)
        session = AnalysisSession(None, source_path=path, shards=shards)
        assert_identical_analysis(reference, session.analysis())


_MIXED_KINDS = (
    "clean", "empty", "unsorted", "unclosed", "orphan", "crossed",
    "bad_ref", "messages", "duplicate",
)


def _mixed_stream(kind: str, rank: int, n: int, n_ranks: int):
    """One rank's stream: clean nested calls with messages, or one of
    the broken shapes the structural gate rejects."""
    from repro.trace.events import EventList, EventListBuilder

    b = EventListBuilder()
    if kind == "empty":
        return b.freeze()
    if kind == "messages":  # no enter/leave at all
        for i in range(n):
            b.send(float(i), (rank + 1) % n_ranks, size=8, tag=i)
            b.recv(i + 0.5, (rank - 1) % n_ranks, size=8, tag=i)
        return b.freeze()
    b.enter(0.0, 0)
    for i in range(n):
        b.enter(1.0 + i, 1)
        b.enter(1.25 + i, 2)
        b.leave(1.25 + i + 0.03 * (rank % 5), 2)
        b.send(1.5 + i, (rank + 1) % n_ranks, size=8, tag=i)
        if kind == "duplicate":  # TL005: a buffer flushed twice
            b.send(1.5 + i, (rank + 1) % n_ranks, size=8, tag=i)
        b.recv(1.6 + i, (rank - 1) % n_ranks, size=8, tag=i)
        b.leave(1.75 + i, 1)
    if kind != "unclosed":
        b.leave(n + 2.0, 0)
    if kind == "orphan":
        b.leave(n + 3.0, 0)
    ev = b.freeze()
    cols = {f: getattr(ev, f).copy() for f in ev.loaded_columns}
    if kind == "crossed":
        cols["ref"][3] = 1  # the first calc frame closes region 1
    elif kind == "bad_ref":
        cols["ref"][2] = cols["ref"][3] = 99
    elif kind == "unsorted":
        cols["time"][4] = 0.5
        return _unchecked(cols)
    return EventList(*(cols[f] for f in ev.loaded_columns))


def _unchecked(cols):
    """An event list whose time column skips the sortedness check."""
    from repro.trace.events import EventList

    ordered = np.sort(cols["time"])
    ev = EventList(ordered, *(cols[f] for f in list(cols)[1:]))
    ev.time.setflags(write=True)
    ev.time[:] = cols["time"]
    ev.time.setflags(write=False)
    return ev


@st.composite
def mixed_traces(draw):
    from repro.trace import Location, Trace
    from repro.trace.definitions import Paradigm

    kinds = draw(st.lists(st.sampled_from(_MIXED_KINDS), min_size=1, max_size=7))
    trace = Trace(name="mixed")
    trace.regions.register("main")
    trace.regions.register("iter")
    trace.regions.register("MPI_Wait", paradigm=Paradigm.MPI)
    for rank, kind in enumerate(kinds):
        n = draw(st.integers(1, 6))
        trace.add_process(
            Location(rank, f"P{rank}"), _mixed_stream(kind, rank, n, len(kinds))
        )
    return kinds, trace


class TestBatchBoundaries:
    """Batches of any size split back into exactly the one-rank
    products: the kernel at one rank per batch and at one batch for
    the whole trace, against ``lint_trace`` and ``match_invocations``."""

    @settings(max_examples=60, deadline=None)
    @given(case=mixed_traces(), full=st.booleans())
    def test_products_equal_one_rank_batches(self, case, full):
        from repro.core import incremental
        from repro.core.fused import fused_bootstrap
        from repro.lint import LintConfig, lint_trace, validate_config
        from repro.profiles.replay import match_invocations
        from repro.profiles.stats import rank_statistics_arrays

        kinds, trace = case
        lint = LintConfig() if full else None
        runs = []
        for size in (1, trace.num_events + 1):
            saved = incremental._BATCH_EVENTS
            incremental._BATCH_EVENTS = size
            try:
                runs.append(fused_bootstrap(trace, lint=lint))
            finally:
                incremental._BATCH_EVENTS = saved
        want = lint_trace(trace, config=lint or validate_config()).to_json()
        n_regions = len(trace.regions)
        for boot in runs:
            assert boot.report.to_json() == want
            # Every clean rank keeps its table, whatever its neighbours.
            clean = [
                r for r, k in enumerate(kinds)
                if k in ("clean", "messages", "duplicate")
            ]
            assert sorted(boot.tables) == clean
            for rank in clean:
                table = match_invocations(trace.events_of(rank))
                for col in ("region", "t_enter", "t_leave", "inclusive",
                            "exclusive", "depth", "parent", "outermost",
                            "enter_index", "leave_index"):
                    assert np.array_equal(
                        getattr(boot.tables[rank], col), getattr(table, col)
                    ), f"rank {rank} ({kinds[rank]}) column {col}"
                partial = rank_statistics_arrays(table, n_regions)
                for stat, arr in partial.items():
                    assert np.array_equal(boot.partials[rank][stat], arr)
        # Extents, through the cursor-fed kernel at both batch sizes.
        extents = {
            r: (len(ev), float(ev.time[0]), float(ev.time[-1]))
            for r in trace.ranks
            if len(ev := trace.events_of(r))
        }
        for size in (1, trace.num_events + 1):
            saved = incremental._BATCH_EVENTS
            incremental._BATCH_EVENTS = size
            try:
                kernel = incremental.IncrementalKernel(
                    trace.regions, trace.metrics, trace.num_processes,
                    trace.ranks, lint=lint, trace_name=trace.name,
                )
                for rank in trace.ranks:
                    kernel.add_rank(rank, trace.events_of(rank))
                boot = kernel.finalize()
            finally:
                incremental._BATCH_EVENTS = saved
            assert kernel.extents == extents
            assert boot.report.to_json() == want


class TestSessionCursorRoute:
    """A cold path-mode session feeds the kernel rank by rank from the
    file's cursor; its products equal ``fused_bootstrap`` over the
    decoded file, for the structural gate and for every rule, and the
    pass decodes no whole trace."""

    @staticmethod
    def _assert_route_matches(path, lint):
        from repro.core.fused import fused_bootstrap
        from repro.trace import read_trace
        from repro.trace.reader import TraceFormatError

        session = AnalysisSession(None, source_path=path)
        try:
            decoded = read_trace(path)
        except TraceFormatError as err:  # e.g. an unsorted stream
            with pytest.raises(TraceFormatError) as raised:
                fused_bootstrap(session.trace, lint=lint)
            assert str(raised.value) == str(err)
            assert raised.value.path == str(path)
            return
        want = fused_bootstrap(decoded, lint=lint)
        got = fused_bootstrap(session.trace, lint=lint)
        assert not session.trace.decoded
        assert got.report.to_json() == want.report.to_json()
        assert sorted(got.tables) == sorted(want.tables)
        for rank, table in want.tables.items():
            for col in ("region", "t_enter", "t_leave", "inclusive",
                        "exclusive", "depth", "parent", "outermost",
                        "enter_index", "leave_index"):
                assert np.array_equal(
                    getattr(got.tables[rank], col), getattr(table, col)
                ), f"rank {rank} column {col}"
        assert sorted(got.partials) == sorted(want.partials)
        for rank, partial in want.partials.items():
            for stat, arr in partial.items():
                assert np.array_equal(got.partials[rank][stat], arr)
        assert got.extent == (decoded.t_min, decoded.t_max)

    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("fmt", ["v1", "v2", "jsonl"])
    @pytest.mark.parametrize("golden", sorted(
        p.stem for p in (Path(__file__).parent / "golden").glob("*.jsonl")
    ))
    def test_goldens(self, golden, fmt, full, tmp_path):
        from repro.lint import LintConfig
        from repro.trace import read_trace

        src = Path(__file__).parent / "golden" / f"{golden}.jsonl"
        if fmt == "jsonl":
            path = src
        else:
            path = tmp_path / f"{golden}.rpt"
            kwargs = {"version": 2, "codec": "raw"} if fmt == "v2" else {}
            write_binary(read_trace(src), path, **kwargs)
        self._assert_route_matches(path, LintConfig() if full else None)

    @settings(max_examples=40, deadline=None)
    @given(case=mixed_traces(), full=st.booleans(), raw=st.booleans())
    def test_hypothesis_traces(self, case, full, raw):
        import tempfile

        from repro.lint import LintConfig

        _, trace = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mixed.rpt"
            write_binary(trace, path, **({"version": 2, "codec": "raw"} if raw else {}))
            self._assert_route_matches(path, LintConfig() if full else None)


class TestFingerprintRoutes:
    """Every route to a trace's fingerprint gives the same digests: a
    path-mode session (rank by rank from the file's cursor), a decoded
    file, the sharded session (``TraceIndex.rank_digest`` in its
    workers) and the in-memory trace the file was written from."""

    @staticmethod
    def _trace(empty_rank):
        from repro.trace import Location, Trace
        from repro.trace.events import EventList

        base = _scenario_synthetic()
        if not empty_rank:
            return base
        trace = Trace(base.regions, base.metrics, base.name, base.attributes)
        for loc in base.locations():
            trace.add_process(loc, base.events_of(loc.id))
        trace.add_process(Location(len(base.ranks), "idle"), EventList.empty())
        return trace

    @pytest.mark.parametrize("empty_rank", [False, True], ids=["full", "empty"])
    @pytest.mark.parametrize("fmt", ["zlib", "raw", "jsonl"])
    def test_four_routes_agree(self, fmt, empty_rank, tmp_path, monkeypatch):
        from repro.core import AnalysisConfig
        from repro.trace import read_trace
        from repro.trace.fingerprint import fingerprint_trace

        monkeypatch.setenv("REPRO_SHARD_WORKERS", "1")
        trace = self._trace(empty_rank)
        if fmt == "jsonl":
            path = tmp_path / "t.jsonl"
            write_jsonl(trace, path)
        else:
            path = tmp_path / "t.rpt"
            write_binary(trace, path, version=2, codec=fmt)
        cursor = AnalysisSession(None, source_path=path)
        routes = {
            "cursor": cursor.fingerprint,
            "decoded": fingerprint_trace(read_trace(path)),
            # An empty rank fails the structural gate the workers run.
            "sharded": AnalysisSession(
                None, source_path=path, shards=2,
                config=AnalysisConfig(validate=False),
            ).fingerprint,
            "in-memory": fingerprint_trace(trace),
        }
        assert not cursor.trace.decoded
        want = routes.pop("in-memory")
        assert len(want.per_rank) == trace.num_processes
        for route, got in routes.items():
            assert got.definitions == want.definitions, route
            assert got.per_rank == want.per_rank, route
            assert got.hexdigest == want.hexdigest, route

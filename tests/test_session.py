"""Tests for AnalysisSession, artifact caching and trace fingerprints.

The acceptance criteria of the session refactor: warm sessions produce
results array-equal to a fresh eager analysis (including after
refinement), a warm disk cache performs zero replay/profile
recomputation, and fingerprints are stable under codec round-trips.
"""

import os
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core import AnalysisSession, analyze_trace
from repro.core.classify import SyncClassifier
from repro.core.session import ArtifactCache, SessionStats, _LRU
from repro.trace import read_trace, write_binary, write_jsonl
from repro.trace.builder import TraceBuilder
from repro.trace.definitions import Paradigm
from repro.trace.fingerprint import (
    fingerprint_definitions,
    fingerprint_events,
    fingerprint_trace,
)
from repro.trace.reader import TraceFormatError


@st.composite
def small_trace(draw):
    """A tiny SPMD trace with drawn per-rank compute times."""
    p = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=4))
    durations = [
        [draw(st.floats(min_value=0.01, max_value=1.0)) for _ in range(n)]
        for _ in range(p)
    ]
    tb = TraceBuilder(name="fp")
    tb.region("main")
    tb.region("iter")
    tb.region("calc")
    tb.region("MPI_Allreduce", paradigm=Paradigm.MPI)
    for rank in range(p):
        tb.process(rank).enter(0.0, "main")
    t = 0.0
    for it in range(n):
        t_next = t + max(durations[r][it] for r in range(p)) + 0.1
        for rank in range(p):
            pb = tb.process(rank)
            pb.enter(t, "iter")
            pb.call(t, t + durations[rank][it], "calc")
            pb.call(t + durations[rank][it], t_next, "MPI_Allreduce")
            pb.leave(t_next, "iter")
        t = t_next
    for rank in range(p):
        tb.process(rank).leave(t, "main")
    return tb.freeze()


def _assert_analyses_equal(a, b):
    """Array-level equivalence of two VariationAnalysis results."""
    assert a.dominant_name == b.dominant_name
    assert a.selection.level == b.selection.level
    np.testing.assert_array_equal(a.sos.matrix(), b.sos.matrix())
    np.testing.assert_array_equal(
        a.sos.per_rank_total(), b.sos.per_rank_total()
    )
    for rank in a.trace.ranks:
        sa, sb = a.segmentation[rank], b.segmentation[rank]
        np.testing.assert_array_equal(sa.t_start, sb.t_start)
        np.testing.assert_array_equal(sa.t_stop, sb.t_stop)
        ta, tb = a.profile.tables[rank], b.profile.tables[rank]
        np.testing.assert_array_equal(ta.region, tb.region)
        np.testing.assert_array_equal(ta.inclusive, tb.inclusive)
        np.testing.assert_array_equal(ta.exclusive, tb.exclusive)
    ha, _ = a.heat_matrix(bins=32)
    hb, _ = b.heat_matrix(bins=32)
    np.testing.assert_array_equal(ha, hb)
    assert a.hot_ranks() == b.hot_ranks()
    assert a.hot_segments() == b.hot_segments()
    for ra, rb in zip(a.profile.stats.rows(), b.profile.stats.rows()):
        assert ra.name == rb.name
        assert ra.count == rb.count
        np.testing.assert_allclose(ra.inclusive_sum, rb.inclusive_sum)


class TestSessionEquivalence:
    def test_memory_session_matches_eager(self, fig3):
        eager = analyze_trace(fig3)
        session = AnalysisSession(fig3)
        _assert_analyses_equal(session.analysis(), eager)

    def test_warm_disk_session_matches_eager(self, fig3, tmp_path):
        eager = analyze_trace(fig3)
        AnalysisSession(fig3, cache_dir=tmp_path / "c").analysis()
        warm = AnalysisSession(fig3, cache_dir=tmp_path / "c")
        _assert_analyses_equal(warm.analysis(), eager)

    def test_refined_matches_eager_refined(self, fig3, tmp_path):
        eager = analyze_trace(fig3)
        if len(eager.selection.candidates) < 2:
            pytest.skip("needs a second candidate")
        warm = AnalysisSession(fig3, cache_dir=tmp_path / "c")
        warm.analysis()
        _assert_analyses_equal(
            warm.analysis().refined(), eager.refined()
        )

    def test_at_function_matches_eager(self, fig3):
        eager = analyze_trace(fig3)
        name = eager.selection.candidates[-1].name
        session_result = AnalysisSession(fig3).analysis(function=name)
        _assert_analyses_equal(session_result, eager.at_function(name))

    def test_analyze_trace_links_session(self, fig3):
        analysis = analyze_trace(fig3)
        assert analysis.session is not None
        assert analysis.session.trace is fig3

    def test_analyze_trace_rejects_foreign_session(self, fig3, fig2):
        session = AnalysisSession(fig3)
        with pytest.raises(ValueError, match="different trace"):
            analyze_trace(fig2, session=session)


class TestZeroRecomputation:
    def test_refinement_reuses_replay(self, fig3):
        session = AnalysisSession(fig3)
        analysis = session.analysis()
        replayed = session.stats.total_computed("replay")
        stats_runs = session.stats.total_computed("stats")
        analysis.refined()
        analysis.at_function(analysis.selection.candidates[-1].name)
        analysis.heat_matrix(bins=64)
        assert session.stats.total_computed("replay") == replayed
        assert session.stats.total_computed("stats") == stats_runs

    def test_warm_disk_cache_zero_replay(self, fig3, tmp_path):
        cache = tmp_path / "cache"
        cold = AnalysisSession(fig3, cache_dir=cache)
        cold.analysis()
        assert cold.stats.total_computed("replay") == len(fig3.ranks)
        # One fused pass validated, replayed and stored every artifact.
        assert cold.stats.total_computed("validate") == 1
        keys = set(cold.cache.keys())
        assert f"valid-{cold.fingerprint.hexdigest}" in keys
        assert {f"inv-{d}" for _, d in cold.fingerprint.per_rank} <= keys
        warm = AnalysisSession(fig3, cache_dir=cache)
        warm.analysis()
        assert warm.stats.disk_hits["validate"] == 1
        assert warm.stats.total_computed("replay") == 0
        assert warm.stats.total_computed("stats") == 0
        assert warm.stats.total_computed("sos") == 0
        # Statistics and SOS come from disk: no table is loaded until a
        # drill-down path indexes one.
        assert warm.stats.disk_hits.get("replay", 0) == 0
        warm.profile().tables[fig3.ranks[0]]
        assert warm.stats.disk_hits["replay"] == len(fig3.ranks)
        assert warm.stats.total_computed("replay") == 0

    def test_repeated_products_are_memory_hits(self, fig3):
        session = AnalysisSession(fig3)
        region = session.selection().region
        first = session.sos(region)
        assert session.sos(region) is first
        assert session.stats.memory_hits["sos"] >= 1

    def test_partial_artifact_loss_recomputes_only_missing(
        self, fig3, tmp_path
    ):
        cache = tmp_path / "cache"
        AnalysisSession(fig3, cache_dir=cache).replay()
        victim = AnalysisSession(fig3, cache_dir=cache)
        digest = victim.fingerprint.rank_digest(fig3.ranks[0])
        (cache / f"inv-{digest}.npz").unlink()
        tables = victim.replay()
        assert victim.stats.total_computed("replay") == 1
        assert set(tables) == set(fig3.ranks)

    def test_classifier_variants_cached_separately(self, fig3, tmp_path):
        session = AnalysisSession(fig3, cache_dir=tmp_path / "c")
        region = session.selection().region
        strict = SyncClassifier(name_patterns=("MPI_Barrier",))
        a = session.sos(region)
        b = session.sos(region, classifier=strict)
        assert a is not b
        assert session.stats.total_computed("sos") == 2


class TestFingerprint:
    def test_deterministic(self, fig3):
        assert fingerprint_trace(fig3) == fingerprint_trace(fig3)

    def test_sensitive_to_events(self, tiny_trace, fig3):
        assert (
            fingerprint_trace(tiny_trace).hexdigest
            != fingerprint_trace(fig3).hexdigest
        )

    def test_ignores_trace_name(self):
        def build(name):
            tb = TraceBuilder(name=name)
            tb.region("main")
            tb.process(0).call(0.0, 1.0, "main")
            return tb.freeze()

        # Content addressing: display name never enters the digest.
        assert fingerprint_trace(build("a")) == fingerprint_trace(build("b"))

    def test_definitions_digest_exposed(self, fig3):
        fp = fingerprint_trace(fig3)
        assert fingerprint_definitions(fig3) == fp.definitions

    def test_short_is_prefix(self, fig3):
        fp = fingerprint_trace(fig3)
        assert fp.hexdigest.startswith(fp.short())

    @given(small_trace())
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_stable(self, tmp_path_factory, trace):
        """JSONL and binary round-trips preserve the fingerprint, and a
        session hashing its file's column bytes finds it too, with the
        trace's extent and no event decoded."""
        fp = fingerprint_trace(trace)
        base = tmp_path_factory.mktemp("fp")
        jsonl = base / "t.jsonl"
        binary = base / "t.rpt"
        raw = base / "raw.rpt"
        write_jsonl(trace, jsonl)
        write_binary(trace, binary)
        write_binary(trace, raw, codec="raw")
        assert fingerprint_trace(read_trace(jsonl)) == fp
        assert fingerprint_trace(read_trace(binary)) == fp
        for path in (jsonl, binary, raw):
            session = AnalysisSession(None, source_path=path)
            assert session.fingerprint == fp
            assert session.trace.extent == (trace.t_min, trace.t_max)
            assert not session.trace.decoded

    def test_per_rank_digests_match_events(self, fig3):
        fp = fingerprint_trace(fig3)
        for rank, digest in fp.per_rank:
            assert fingerprint_events(fig3.events_of(rank)) == digest


class TestArtifactCache:
    def test_store_load_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("abc-1", {"x": np.arange(5), "y": np.zeros(2)})
        loaded = cache.load("abc-1")
        np.testing.assert_array_equal(loaded["x"], np.arange(5))
        assert cache.keys() == ["abc-1"]

    def test_missing_key_is_none(self, tmp_path):
        assert ArtifactCache(tmp_path).load("nope") is None

    def test_corrupt_artifact_is_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("bad", {"x": np.arange(3)})
        (tmp_path / "bad.npz").write_bytes(b"not a zipfile")
        assert cache.load("bad") is None

    def test_invalid_key_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(ValueError):
            cache.store("../escape", {"x": np.arange(1)})

    def test_info_and_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("k1", {"x": np.arange(10)})
        cache.store("k2", {"x": np.arange(10)})
        info = cache.info()
        assert info.entries == 2
        assert info.total_bytes > 0
        assert "2 artifacts" in info.format()
        assert cache.clear() == 2
        assert cache.info().entries == 0

    def test_session_cache_info(self, fig3, tmp_path):
        session = AnalysisSession(fig3, cache_dir=tmp_path / "c")
        assert session.cache_info().entries == 0
        session.analysis()
        assert session.cache_info().entries > 0
        assert AnalysisSession(fig3).cache_info() is None


class TestLRUAndStats:
    def test_lru_evicts_oldest(self):
        lru = _LRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")
        lru.put("c", 3)  # evicts b (least recently used)
        assert lru.get("b") is not lru.get("a")
        assert lru.get("a") == 1
        assert lru.get("c") == 3
        assert len(lru) == 2

    def test_lru_rejects_zero_size(self):
        with pytest.raises(ValueError):
            _LRU(0)

    def test_bounded_session_memo_still_correct(self, fig3):
        session = AnalysisSession(fig3, memory_entries=2)
        analysis = session.analysis()
        refined = analysis.refined() if len(
            analysis.selection.candidates
        ) > 1 else analysis
        # Evictions may force recomputation but never wrong results.
        again = session.analysis()
        np.testing.assert_array_equal(
            analysis.sos.matrix(), again.sos.matrix()
        )
        assert refined.dominant_name

    def test_stats_describe_lists_stages(self, fig3):
        session = AnalysisSession(fig3)
        session.analysis()
        text = session.stats.describe()
        assert "replay" in text
        assert "sos" in text

    def test_fresh_stats_empty(self):
        stats = SessionStats()
        assert stats.total_computed("replay") == 0
        assert stats.describe().count("\n") == 0


def _spmd(calc: float):
    """Two-rank trace whose shape (and raw file size) ignores ``calc``."""
    tb = TraceBuilder(name="stat")
    tb.region("main")
    tb.region("calc")
    tb.region("MPI_Barrier", paradigm=Paradigm.MPI)
    for rank in range(2):
        pb = tb.process(rank)
        pb.enter(0.0, "main")
        for it in range(4):
            t = float(it)
            pb.call(t, t + calc * (rank + 1), "calc")
            pb.call(t + calc * (rank + 1), t + 0.9, "MPI_Barrier")
        pb.leave(4.0, "main")
    return tb.freeze()


def _rewrite_in_place(path, tmp_path):
    """Overwrite ``path`` with other content of the same size, keeping
    its inode and mtime (only the ctime moves)."""
    before = os.stat(path)
    other = tmp_path / "other.rpt"
    write_binary(_spmd(0.3), other, codec="raw")
    time.sleep(0.05)  # past a timestamp tick, so the ctime moves
    path.write_bytes(other.read_bytes())
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(path).st_size == before.st_size


class TestStatKey:
    """The ``stat-`` shortcut from a file's stat to its fingerprint."""

    @pytest.fixture()
    def settled(self, monkeypatch):
        # Treat every file as old enough to record; the racy-file rule
        # has its own test below.
        monkeypatch.setattr("repro.core.session._RACY_NS", 0)

    @staticmethod
    def _stat_keys(cache):
        return [k for k in ArtifactCache(cache).keys() if k.startswith("stat-")]

    @staticmethod
    def _write(trace, path):
        write_binary(trace, path, codec="raw")

    def test_warm_session_skips_the_hash(self, settled, tmp_path, monkeypatch):
        path, cache = tmp_path / "t.rpt", tmp_path / "cache"
        self._write(_spmd(0.2), path)
        cold = AnalysisSession(None, source_path=path, cache_dir=cache)
        assert cold.fingerprint == fingerprint_trace(read_trace(path))
        assert len(self._stat_keys(cache)) == 1

        def no_hashing(trace):
            raise AssertionError("warm session hashed the trace")

        monkeypatch.setattr("repro.core.session.fingerprint_trace", no_hashing)
        warm = AnalysisSession(None, source_path=path, cache_dir=cache)
        assert warm.fingerprint == cold.fingerprint

    def test_in_place_rewrite_with_restored_mtime(self, settled, tmp_path):
        path, cache = tmp_path / "t.rpt", tmp_path / "cache"
        self._write(_spmd(0.2), path)
        old = AnalysisSession(None, source_path=path, cache_dir=cache).fingerprint
        before = os.stat(path)
        other = tmp_path / "other.rpt"
        self._write(_spmd(0.3), other)
        time.sleep(0.05)  # past a timestamp tick, so the ctime moves
        path.write_bytes(other.read_bytes())
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_ino) == (before.st_size, before.st_ino)
        assert after.st_mtime_ns == before.st_mtime_ns
        assert after.st_ctime_ns != before.st_ctime_ns
        fresh = AnalysisSession(None, source_path=path, cache_dir=cache)
        assert fresh.fingerprint == fingerprint_trace(read_trace(other))
        assert fresh.fingerprint != old

    def test_replaced_by_rename(self, settled, tmp_path):
        path, cache = tmp_path / "t.rpt", tmp_path / "cache"
        self._write(_spmd(0.2), path)
        old = AnalysisSession(None, source_path=path, cache_dir=cache).fingerprint
        before = os.stat(path)
        other = tmp_path / "other.rpt"
        self._write(_spmd(0.3), other)
        os.utime(other, ns=(before.st_atime_ns, before.st_mtime_ns))
        os.replace(other, path)
        assert os.stat(path).st_ino != before.st_ino
        fresh = AnalysisSession(None, source_path=path, cache_dir=cache)
        assert fresh.fingerprint == fingerprint_trace(read_trace(path))
        assert fresh.fingerprint != old

    def test_racy_new_file_is_not_recorded(self, tmp_path):
        path, cache = tmp_path / "t.rpt", tmp_path / "cache"
        self._write(_spmd(0.2), path)
        session = AnalysisSession(None, source_path=path, cache_dir=cache)
        session.analysis()
        assert session.fingerprint == fingerprint_trace(read_trace(path))
        assert self._stat_keys(cache) == []

    @pytest.mark.parametrize("damage", ["garbage", "digest"])
    def test_corrupt_entry_falls_back_to_hashing(self, settled, tmp_path, damage):
        path, cache = tmp_path / "t.rpt", tmp_path / "cache"
        self._write(_spmd(0.2), path)
        want = AnalysisSession(None, source_path=path, cache_dir=cache).fingerprint
        (key,) = self._stat_keys(cache)
        entry = cache / f"{key}.npz"
        if damage == "garbage":
            entry.write_bytes(b"not a zipfile")
        else:
            arrays = ArtifactCache(cache).load(key)
            arrays["digests"] = np.array(["0" * 32] * 2)
            ArtifactCache(cache).store(key, arrays)
        again = AnalysisSession(None, source_path=path, cache_dir=cache)
        assert again.fingerprint == want
        # The fallback re-records a sound entry.
        assert ArtifactCache(cache).load(key)["digests"].tolist() == [
            d for _, d in want.per_rank
        ]

    def test_in_memory_sessions_record_nothing(
        self, settled, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "1")
        path, cache = tmp_path / "t.rpt", tmp_path / "cache"
        self._write(_spmd(0.2), path)
        in_memory = AnalysisSession(read_trace(path), cache_dir=cache)
        in_memory.analysis()
        assert self._stat_keys(cache) == []
        # A sharded session reads its own file: it records the entry an
        # unsharded one would, and a second one hashes nothing.
        sharded = AnalysisSession(None, source_path=path, shards=2, cache_dir=cache)
        sharded.analysis()
        assert sharded.fingerprint == in_memory.fingerprint
        assert len(self._stat_keys(cache)) == 1
        monkeypatch.setattr(
            "repro.core.session.fingerprint_trace",
            lambda trace: pytest.fail("hashed despite a stat- entry"),
        )
        again = AnalysisSession(None, source_path=path, shards=2, cache_dir=cache)
        assert again.fingerprint == in_memory.fingerprint


class TestDeferredDecode:
    """A path-mode session decodes its file's events on first use, and
    a ``stat-`` hit leaves nothing for a report to decode."""

    @pytest.fixture()
    def settled(self, monkeypatch):
        monkeypatch.setattr("repro.core.session._RACY_NS", 0)

    @staticmethod
    def _primed(tmp_path):
        path, cache = tmp_path / "t.rpt", tmp_path / "cache"
        write_binary(_spmd(0.2), path, codec="raw")
        AnalysisSession(None, source_path=path, cache_dir=cache).analysis()
        return path, cache

    @staticmethod
    def _traced_report(path, cache):
        """Report of a fresh session, with the spans and counters it
        recorded."""
        col = obs.enable()
        try:
            session = AnalysisSession(None, source_path=path, cache_dir=cache)
            report = session.analysis().report()
        finally:
            col = obs.disable()
        return report, {s.name for s in col.iter_spans()}, col.counters()

    def test_stat_hit_decodes_no_event(self, settled, tmp_path):
        path, cache = self._primed(tmp_path)
        report, spans, counters = self._traced_report(path, cache)
        assert not spans & {"io.read", "io.load"}
        assert "io.events_loaded" not in counters
        cold = AnalysisSession(None, source_path=path).analysis().report()
        assert report == cold

    def test_stat_hit_restores_the_extent(self, settled, tmp_path):
        path, cache = self._primed(tmp_path)
        warm = AnalysisSession(None, source_path=path, cache_dir=cache)
        warm.fingerprint
        trace = read_trace(path)
        assert warm.trace.extent == (trace.t_min, trace.t_max)
        assert warm.trace.duration == trace.duration
        assert warm.trace.num_events == trace.num_events

    def test_entry_without_extent_is_a_miss_and_rewritten(
        self, settled, tmp_path
    ):
        path, cache = self._primed(tmp_path)
        store = ArtifactCache(cache)
        (key,) = [k for k in store.keys() if k.startswith("stat-")]
        arrays = store.load(key)
        del arrays["extent"]  # an entry as written before it held one
        store.store(key, arrays)
        report, spans, _ = self._traced_report(path, cache)
        # The miss hashes the file's column bytes rank by rank; that
        # pass gives the extent, so no event is decoded.
        assert not spans & {"io.read", "io.load"}
        assert report == AnalysisSession(None, source_path=path).analysis().report()
        trace = read_trace(path)
        assert store.load(key)["extent"].tolist() == [trace.t_min, trace.t_max]
        _, spans, _ = self._traced_report(path, cache)
        assert not spans & {"io.read", "io.load"}

    def test_replaced_by_rename_after_open(self, tmp_path):
        path = tmp_path / "t.rpt"
        write_binary(_spmd(0.2), path, codec="raw")
        session = AnalysisSession(None, source_path=path)
        other = tmp_path / "other.rpt"
        write_binary(_spmd(0.3), other, codec="raw")
        before = os.stat(path)
        os.utime(other, ns=(before.st_atime_ns, before.st_mtime_ns))
        os.replace(other, path)
        with pytest.raises(TraceFormatError, match=re.escape(str(path))) as err:
            session.trace.events_of(0)
        assert err.value.path == str(path)

    def test_in_place_rewrite_after_open(self, tmp_path):
        path = tmp_path / "t.rpt"
        write_binary(_spmd(0.2), path, codec="raw")
        session = AnalysisSession(None, source_path=path)
        _rewrite_in_place(path, tmp_path)
        with pytest.raises(TraceFormatError, match=re.escape(str(path))):
            session.analysis()


class TestColdCursorPass:
    """A cold path-mode session's kernel pass reads the file rank by rank
    from its index: no whole-trace decode, the same products, the same
    extent and the same guards as the decode it replaces."""

    ROUTES = ("analysis", "preflight", "validate")

    def test_analysis_decodes_each_rank_once(self, tmp_path):
        path = tmp_path / "t.rpt"
        trace = _spmd(0.2)
        write_binary(trace, path)
        col = obs.enable()
        try:
            session = AnalysisSession(None, source_path=path)
            report = session.analysis().report()
        finally:
            col = obs.disable()
        spans = [s.name for s in col.iter_spans()]
        assert "io.read" not in spans
        assert spans.count("io.load") == trace.num_processes
        assert col.counters()["io.events_loaded"] == trace.num_events
        assert not session.trace.decoded
        assert report == AnalysisSession(read_trace(path)).analysis().report()

    @pytest.mark.parametrize(
        "empty", [(0,), (1,), (3,), (0, 2), (0, 1, 2, 3)], ids=str
    )
    def test_extent_with_empty_ranks(self, empty, tmp_path):
        from repro.core import AnalysisConfig
        from repro.trace import Location, Trace
        from repro.trace.events import EventList

        spmd = _spmd(0.2)
        trace = Trace(spmd.regions, spmd.metrics, "gaps")
        for rank in range(4):
            events = (
                EventList.empty() if rank in empty
                else spmd.events_of(rank % 2)
            )
            trace.add_process(Location(rank, f"P{rank}"), events)
        path = tmp_path / "gaps.rpt"
        write_binary(trace, path)
        session = AnalysisSession(
            None, source_path=path, config=AnalysisConfig(validate=False)
        )
        session.replay()
        assert not session.trace.decoded
        decoded = read_trace(path)
        got = (session.trace.t_min, session.trace.t_max)
        want = (decoded.t_min, decoded.t_max)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert session.trace.duration == decoded.duration

    @staticmethod
    def _run(session, route):
        if route == "analysis":
            session.analysis()
        elif route == "preflight":
            session.preflight()
        else:
            session.validate()

    @pytest.mark.parametrize("route", ROUTES)
    def test_replaced_by_rename_after_open(self, route, tmp_path):
        path = tmp_path / "t.rpt"
        write_binary(_spmd(0.2), path, codec="raw")
        session = AnalysisSession(None, source_path=path)
        other = tmp_path / "other.rpt"
        write_binary(_spmd(0.3), other, codec="raw")
        before = os.stat(path)
        os.utime(other, ns=(before.st_atime_ns, before.st_mtime_ns))
        os.replace(other, path)
        with pytest.raises(TraceFormatError, match=re.escape(str(path))) as err:
            self._run(session, route)
        assert err.value.path == str(path)
        assert not session.trace.decoded

    # ``analysis`` is TestDeferredDecode's case of the same name.
    @pytest.mark.parametrize("route", ROUTES[1:])
    def test_in_place_rewrite_after_open(self, route, tmp_path):
        path = tmp_path / "t.rpt"
        write_binary(_spmd(0.2), path, codec="raw")
        session = AnalysisSession(None, source_path=path)
        _rewrite_in_place(path, tmp_path)
        with pytest.raises(TraceFormatError, match=re.escape(str(path))) as err:
            self._run(session, route)
        assert err.value.path == str(path)

    def test_replaced_during_the_pass(self, tmp_path, monkeypatch):
        from repro.trace.cursor import IndexCursor

        path = tmp_path / "t.rpt"
        write_binary(_spmd(0.2), path)
        copy = tmp_path / "copy.rpt"
        copy.write_bytes(path.read_bytes())
        batches = IndexCursor._batches

        def replacing(self):
            for i, batch in enumerate(batches(self)):
                if i == 1:  # same bytes, new inode
                    os.replace(copy, path)
                yield batch

        monkeypatch.setattr(IndexCursor, "_batches", replacing)
        session = AnalysisSession(None, source_path=path)
        with pytest.raises(TraceFormatError, match="changed after it was opened"):
            session.analysis()


class TestViewsReadRankByRank:
    """The fingerprint and the counter series read a path-mode
    session's file rank by rank, as its kernel pass does: an ``--html``
    report or a cold ``--cache-dir`` session decodes no whole trace,
    and each pass checks the same stat key."""

    @pytest.fixture()
    def settled(self, monkeypatch):
        monkeypatch.setattr("repro.core.session._RACY_NS", 0)

    @staticmethod
    def _counters(path):
        from repro.sim.workloads.synthetic import SyntheticConfig, generate

        write_binary(generate(SyntheticConfig(ranks=4, iterations=6, seed=1)), path)

    @pytest.mark.parametrize("route", ["html", "cache", "html+cache"])
    def test_no_whole_trace_decode(self, settled, route, tmp_path):
        from repro.htmlreport import render_html_report

        path = tmp_path / "t.rpt"
        self._counters(path)
        cache = tmp_path / "cache" if "cache" in route else None
        col = obs.enable()
        try:
            session = AnalysisSession(None, source_path=path, cache_dir=cache)
            analysis = session.analysis()
            if "html" in route:
                assert "Hardware counters" in render_html_report(analysis)
            else:
                analysis.report()
        finally:
            col = obs.disable()
        assert "io.read" not in {s.name for s in col.iter_spans()}
        assert not session.trace.decoded

    def test_stat_entry_holds_the_kernel_extent(
        self, settled, tmp_path, monkeypatch
    ):
        from repro.core import fused

        # Each rank starts and ends later than the one before, so every
        # rank's extent is needed for the trace's.
        tb = TraceBuilder(name="staggered")
        tb.region("main")
        tb.region("calc")
        for rank in range(3):
            pb = tb.process(rank)
            pb.enter(0.1 * rank, "main")
            pb.call(1.0, 2.0, "calc")
            pb.leave(3.0 + rank, "main")
        path, cache = tmp_path / "t.rpt", tmp_path / "cache"
        write_binary(tb.freeze(), path)
        boots = []
        run = fused.fused_bootstrap
        monkeypatch.setattr(
            fused, "fused_bootstrap",
            lambda *a, **kw: boots.append(run(*a, **kw)) or boots[-1],
        )
        cold = AnalysisSession(None, source_path=path, cache_dir=cache)
        cold.profile()
        (boot,) = boots
        assert not cold.trace.decoded
        store = ArtifactCache(cache)
        (key,) = [k for k in store.keys() if k.startswith("stat-")]
        recorded = store.load(key)["extent"].tolist()
        assert [v.hex() for v in recorded] == [v.hex() for v in boot.extent]
        assert boot.extent == (0.0, 5.0)

        def no_hashing(trace):
            raise AssertionError("warm session hashed the trace")

        monkeypatch.setattr("repro.core.session.fingerprint_trace", no_hashing)
        warm = AnalysisSession(None, source_path=path, cache_dir=cache)
        assert warm.fingerprint == cold.fingerprint
        assert warm.trace.extent == boot.extent

    @pytest.mark.parametrize("first", ["fingerprint", "kernel"])
    def test_rewrite_between_passes(self, first, tmp_path):
        """Either pass may run first; a rewrite after it fails the
        other with the file's path."""
        from repro.core.metrics import metric_series

        path, cache = tmp_path / "t.rpt", tmp_path / "cache"
        write_binary(_spmd(0.2), path, codec="raw")
        session = AnalysisSession(
            None, source_path=path,
            cache_dir=cache if first == "fingerprint" else None,
        )
        if first == "fingerprint":
            session.fingerprint
            later = [session.analysis]
        else:
            session.analysis()
            later = [
                lambda: session.fingerprint,
                lambda: metric_series(session.trace, 0),
            ]
        _rewrite_in_place(path, tmp_path)
        for step in later:
            with pytest.raises(TraceFormatError, match=re.escape(str(path))) as err:
                step()
            assert err.value.path == str(path)
        assert not session.trace.decoded

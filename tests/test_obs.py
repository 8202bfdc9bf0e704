"""Tests for repro.obs: primitives, export, summary, logging, CLI.

The headline contract is circular: telemetry collected while analysing
a trace must itself export as a valid ``.rpt`` v2 trace that survives
``lint`` with zero errors and that ``analyze`` can segment — the
analyzer eats its own dogfood.
"""

from __future__ import annotations

import json
import logging
import re
import threading

import pytest

import repro.obs as obs
from repro.cli import main
from repro.obs.core import ENTER, LEAVE, SAMPLE
from repro.obs.export import SELF_TRACE_ATTR, self_trace, summarize, write_self_trace


@pytest.fixture(autouse=True)
def _obs_clean():
    """Every test starts and ends with telemetry off."""
    obs.disable()
    yield
    obs.disable()


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs") / "syn.rpt"
    assert main([
        "simulate", "synthetic", "--processes", "6", "--iterations", "30",
        "--seed", "5", "-o", str(path),
    ]) == 0
    return path


# ---------------------------------------------------------------------------
# Core primitives
# ---------------------------------------------------------------------------


class TestPrimitives:
    def test_disabled_span_is_shared_noop(self):
        assert not obs.enabled()
        s1 = obs.span("a")
        s2 = obs.span("b")
        assert s1 is s2  # no allocation on the disabled fast path
        with s1:
            pass  # no-op context manager

    def test_disabled_counter_records_nothing(self):
        obs.counter("x").add(5)
        obs.gauge("y").set(2)
        col = obs.enable()
        assert col.counters() == {}
        assert col.gauges() == {}

    def test_span_records_balanced_pair(self):
        col = obs.enable()
        with obs.span("work"):
            pass
        [jrn] = col.journals
        tags = [e[0] for e in jrn.entries]
        assert tags == [ENTER, LEAVE]
        assert jrn.entries[0][2] == jrn.entries[1][2] == "work"
        assert jrn.entries[0][1] <= jrn.entries[1][1]
        assert jrn.stack == []

    def test_nested_spans_and_iter_spans(self):
        col = obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        spans = list(col.iter_spans())
        assert [(s.name, s.depth) for s in spans] == [("inner", 1), ("outer", 0)]
        assert all(s.duration >= 0 for s in spans)

    def test_disable_mid_span_stays_balanced(self):
        col = obs.enable()
        span = obs.span("late")
        with span:
            obs.disable()
        [jrn] = col.journals
        assert [e[0] for e in jrn.entries] == [ENTER, LEAVE]

    def test_traced_decorator_obeys_flag_per_call(self):
        @obs.traced()
        def work() -> int:
            return 7

        assert work() == 7  # disabled: plain call
        col = obs.enable()
        assert work() == 7
        names = [s.name for s in col.iter_spans()]
        assert names == [work.__wrapped__.__qualname__]

    def test_counters_and_gauges_accumulate(self):
        col = obs.enable()
        c = obs.counter("cache.hit")
        c.add()
        c.add(2)
        obs.gauge("depth").set(3)
        obs.gauge("depth").set(1)
        assert col.counters() == {"cache.hit": 3.0}
        assert col.gauges() == {"depth": 1.0}
        # Samples journal the running total / last value.
        samples = [e for e in col.journals[0].entries if e[0] == SAMPLE]
        assert [s[3] for s in samples] == [1.0, 3.0, 3.0, 1.0]

    def test_counter_handles_are_shared(self):
        assert obs.counter("same") is obs.counter("same")
        assert obs.gauge("same") is obs.gauge("same")

    def test_threads_get_separate_journals(self):
        col = obs.enable()

        def worker():
            with obs.span("t"):
                pass

        t = threading.Thread(target=worker, name="obs-worker")
        with obs.span("main-span"):
            t.start()
            t.join()
        assert len(col.journals) == 2
        names = {j.thread_name for j in col.journals}
        assert "obs-worker" in names


class TestSnapshotMerge:
    def test_snapshot_is_picklable_and_merges(self):
        import pickle

        col = obs.enable(obs.Collector(origin="shard-0"))
        with obs.span("shard.phase1"):
            obs.counter("analysis.events").add(10)
        snap = pickle.loads(pickle.dumps(obs.disable().snapshot()))

        parent = obs.enable()
        with obs.span("parent"):
            obs.counter("analysis.events").add(5)
        parent.merge(snap)
        assert parent.counters() == {"analysis.events": 15.0}
        origins = [o for o, _ in parent._all_journals()]
        assert origins == ["main", "shard-0"]  # local first, merge order after

    def test_nested_fork_snapshots_survive_the_hop(self):
        """A worker that merged its own sub-workers loses nothing.

        Shard worker -> hb global phase -> sub-worker: the grandchild
        snapshot rides in the worker snapshot's ``children`` and its
        journals and counters must surface in the parent's totals.
        """
        import pickle

        grand = obs.enable(obs.Collector(origin="shard-0-sub"))
        with obs.span("lint.shard"):
            obs.counter("analysis.events").add(7)
        grand_snap = pickle.loads(pickle.dumps(obs.disable().snapshot()))

        worker = obs.enable(obs.Collector(origin="shard-0"))
        with obs.span("shard.phase1"):
            obs.counter("analysis.events").add(10)
        worker.merge(grand_snap)
        worker_snap = pickle.loads(pickle.dumps(obs.disable().snapshot()))
        assert worker_snap["children"], "merged snaps must ship as children"

        parent = obs.enable()
        obs.counter("analysis.events").add(5)
        parent.merge(worker_snap)
        assert parent.counters() == {"analysis.events": 22.0}
        origins = [o for o, _ in parent._all_journals()]
        assert origins == ["main", "shard-0", "shard-0-sub"]
        spans = {s.name for s in parent.iter_spans()}
        assert {"shard.phase1", "lint.shard"} <= spans

    def test_counters_monotone_across_repeated_snapshots(self):
        """snapshot() is a read: totals never decrease or double-count."""
        col = obs.enable()
        c = obs.counter("analysis.events")
        seen = []
        for i in range(5):
            c.add(3)
            snap = col.snapshot()
            seen.append(snap["counters"]["analysis.events"])
            assert col.counters()["analysis.events"] == seen[-1]
        assert seen == [3.0, 6.0, 9.0, 12.0, 15.0]
        assert seen == sorted(seen)

    def test_worker_inherits_trace_context(self):
        parent = obs.enable()
        with obs.span("stage.sos"):
            ctx = obs.current_context()
        assert ctx["trace_id"] == parent.trace_id
        assert ctx["epoch"] == parent.epoch
        assert ctx["parent_span"] == "stage.sos"
        worker = obs.Collector(
            origin="shard-0",
            trace_id=ctx["trace_id"],
            epoch=ctx["epoch"],
            parent_span=ctx["parent_span"],
        )
        assert worker.trace_id == parent.trace_id
        assert worker.epoch == parent.epoch
        snap = worker.snapshot()
        assert snap["trace_id"] == parent.trace_id
        assert snap["epoch"] == parent.epoch

    def test_current_context_none_when_disabled(self):
        assert obs.current_context() is None
        obs.enable()
        ctx = obs.current_context()
        assert ctx is not None and set(ctx) == {
            "trace_id", "epoch", "parent_span",
        }


# ---------------------------------------------------------------------------
# Export + summary
# ---------------------------------------------------------------------------


class TestExport:
    def _collect(self):
        col = obs.enable()
        with obs.span("phase.a"):
            obs.counter("analysis.events").add(4)
            with obs.span("phase.b"):
                pass
        with obs.span("phase.b"):
            pass
        obs.gauge("shard.queue_depth").set(2)
        return obs.disable()

    def test_self_trace_maps_spans_and_counters(self):
        trace = self_trace(self._collect())
        assert trace.attributes[SELF_TRACE_ATTR] == "1"
        assert trace.attributes["counter.analysis.events"] == "4.0"
        assert trace.attributes["gauge.shard.queue_depth"] == "2.0"
        assert sorted(r.name for r in trace.regions) == ["phase.a", "phase.b"]
        assert [m.name for m in trace.metrics] == ["analysis.events",
                                                   "shard.queue_depth"]
        assert {p.location.group for p in trace.processes()} == {"OBS"}
        events = trace.events_of(trace.ranks[0])
        # 3 spans -> 6 enter/leave events + 2 metric samples.
        assert len(events) == 8
        # Epoch-normalised: t=0 is the collector's enable time, so the
        # first entry lands shortly *after* zero, never before.
        assert 0.0 <= float(events.time[0]) < 1.0

    def test_self_trace_passes_lint_with_zero_errors(self):
        from repro.lint import lint_trace

        report = lint_trace(self_trace(self._collect()))
        assert not [d for d in report.diagnostics
                    if d.severity.name.lower() == "error"]

    def test_export_is_deterministic(self, tmp_path):
        col = self._collect()
        a, b = tmp_path / "a.rpt", tmp_path / "b.rpt"
        write_self_trace(col, a)
        write_self_trace(col, b)
        assert a.read_bytes() == b.read_bytes()

    def test_open_spans_are_closed_at_snapshot_time(self):
        col = obs.enable()
        span = obs.span("unfinished")
        span.__enter__()
        trace = self_trace(obs.disable())
        events = trace.events_of(trace.ranks[0])
        assert len(events) == 2  # synthetic LEAVE appended

    def test_summarize_matches_live_and_file(self, tmp_path):
        col = self._collect()
        path = tmp_path / "s.rpt"
        write_self_trace(col, path)
        from repro.trace import read_trace

        live = summarize(col)
        from_file = summarize(read_trace(str(path)))
        assert [p.name for p in live.phases] == [p.name for p in from_file.phases]
        assert live.counters == from_file.counters
        assert live.wall_s == pytest.approx(from_file.wall_s)

    def test_summary_ratios(self):
        col = obs.enable()
        with obs.span("p"):
            obs.counter("cache.hit").add(3)
            obs.counter("cache.miss").add(1)
        summary = summarize(obs.disable())
        assert summary.cache_hit_ratio == pytest.approx(0.75)
        text = summary.format()
        assert "75.0% hit ratio" in text
        assert "p" in text


# ---------------------------------------------------------------------------
# Instrumented pipeline -> circular analysis
# ---------------------------------------------------------------------------


class TestDogfood:
    def test_session_records_phases(self, trace_path):
        from repro.core.session import AnalysisSession

        col = obs.enable()
        AnalysisSession(None, source_path=str(trace_path)).analysis()
        col = obs.disable()
        names = {s.name for s in col.iter_spans()}
        assert {"session.analysis", "fused.bootstrap", "fused.batch",
                "io.load", "stage.sos"} <= names
        counters = col.counters()
        assert counters["analysis.events"] > 0
        assert counters["io.events_loaded"] > 0

    def test_sharded_workers_ship_snapshots(self, trace_path, monkeypatch):
        from repro.core.session import AnalysisSession

        monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")
        col = obs.enable()
        AnalysisSession(None, source_path=str(trace_path), shards=2).analysis()
        col = obs.disable()
        origins = {o for o, _ in col._all_journals()}
        assert {"main", "shard-0", "shard-1"} <= origins
        trace = self_trace(col)
        assert trace.num_processes >= 3  # main + worker ranks
        # Worker counters folded into the totals.
        assert col.counters()["analysis.events"] > 0

    def test_sharded_lint_scan_ships_snapshots(self, trace_path, monkeypatch):
        from repro.core.session import AnalysisSession

        monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")
        col = obs.enable()
        AnalysisSession(None, source_path=str(trace_path), shards=2).scan()
        col = obs.disable()
        origins = {o for o, _ in col._all_journals()}
        assert {"main", "shard-0", "shard-1"} <= origins
        assert any(k.startswith("lint.rule.") for k in col.counters())

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sharded_preflight_loads_each_event_once(
        self, trace_path, workers, monkeypatch
    ):
        from repro.core.session import AnalysisSession

        monkeypatch.setenv("REPRO_SHARD_WORKERS", workers)
        col = obs.enable()
        session = AnalysisSession(None, source_path=str(trace_path), shards=3)
        assert not session.preflight().counts()["error"]
        session.analysis()
        col = obs.disable()
        assert col.counters()["io.events_loaded"] == session.trace.num_events
        names = {s.name for s in col.iter_spans()}
        assert "shard.phase1" in names
        assert not {"lint.path", "lint.shard"} & names

    def test_cache_counters(self, trace_path, tmp_path):
        from repro.core.session import AnalysisSession

        cache_dir = tmp_path / "cache"
        col = obs.enable()
        AnalysisSession(
            None, source_path=str(trace_path), cache_dir=cache_dir
        ).analysis()
        cold = dict(col.counters())
        AnalysisSession(
            None, source_path=str(trace_path), cache_dir=cache_dir
        ).analysis()
        warm = obs.disable().counters()
        assert cold.get("cache.miss", 0) > 0
        assert warm["cache.hit"] > cold.get("cache.hit", 0)

    def test_lint_rule_timings(self, trace_path):
        from repro.core.session import AnalysisSession

        col = obs.enable()
        AnalysisSession(None, source_path=str(trace_path)).scan()
        col = obs.disable()
        timed = [k for k in col.counters() if k.startswith("lint.rule.")]
        assert timed and all(k.endswith(".s") for k in timed)


# ---------------------------------------------------------------------------
# Sampling profiler
# ---------------------------------------------------------------------------


def _busy(deadline: float) -> float:
    import time

    acc = 0.0
    while time.perf_counter() < deadline:
        acc += sum(i * i for i in range(200))
    return acc


class TestProfiler:
    @pytest.mark.parametrize("backend", ["signal", "thread"])
    def test_backends_capture_samples(self, backend):
        import time

        from repro.obs.profiler import Profiler

        prof = Profiler(interval=0.001, backend=backend)
        prof.start()
        _busy(time.perf_counter() + 0.08)
        prof.stop()
        assert prof.samples, f"{backend} backend captured nothing"
        assert prof.duration > 0
        # Every stack is root-first and non-empty.
        for _, stack in prof.samples:
            assert stack and all(isinstance(f, str) for f in stack)
        assert any("_busy" in f for _, stack in prof.samples for f in stack)

    def test_collapsed_and_speedscope_formats(self):
        import time

        from repro.obs.profiler import Profiler

        prof = Profiler(interval=0.001, backend="thread")
        with prof:
            _busy(time.perf_counter() + 0.05)
        collapsed = prof.collapsed()
        assert collapsed
        for line in collapsed.splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) >= 1

        doc = prof.speedscope("unit")
        assert doc["$schema"].endswith("file-format-schema.json")
        assert doc["profiles"][0]["type"] == "sampled"
        n = len(doc["profiles"][0]["samples"])
        assert n == len(prof.samples)
        assert len(doc["profiles"][0]["weights"]) == n
        frames = doc["shared"]["frames"]
        for sample in doc["profiles"][0]["samples"]:
            assert all(0 <= i < len(frames) for i in sample)

    def test_write_chooses_format_by_suffix(self, tmp_path):
        import time

        from repro.obs.profiler import Profiler

        prof = Profiler(interval=0.001, backend="thread")
        with prof:
            _busy(time.perf_counter() + 0.03)
        js = tmp_path / "p.speedscope.json"
        txt = tmp_path / "p.collapsed"
        prof.write(js)
        prof.write(txt)
        assert json.loads(js.read_text())["profiles"]
        assert txt.read_text() == prof.collapsed()

    def test_journal_is_balanced(self):
        import time

        from repro.obs.core import ENTER as J_ENTER
        from repro.obs.core import LEAVE as J_LEAVE
        from repro.obs.profiler import Profiler

        prof = Profiler(interval=0.001, backend="thread")
        with prof:
            _busy(time.perf_counter() + 0.05)
        jrn = prof.journal()
        depth = 0
        open_names: list[str] = []
        last_t = 0.0
        for entry in jrn["entries"]:
            kind, t, name = entry[0], entry[1], entry[2]
            assert t >= last_t
            last_t = t
            if kind == J_ENTER:
                depth += 1
                open_names.append(name)
            elif kind == J_LEAVE:
                depth -= 1
                assert open_names.pop() == name  # LIFO nesting
            assert depth >= 0
        assert depth == 0  # every ENTER closed

    def test_attach_profile_folds_into_self_trace(self):
        import time

        from repro.obs.profiler import Profiler

        col = obs.enable()
        prof = Profiler(interval=0.001, backend="thread", clock=col.clock)
        with obs.span("phase.a"):
            with prof:
                _busy(time.perf_counter() + 0.05)
        col = obs.disable()
        col.attach_profile(prof)
        assert col.counters()["profile.samples"] == float(len(prof.samples))
        trace = self_trace(col)
        # The profiler rank shows up alongside the main journal.
        assert trace.num_processes == 2
        names = {r.name for r in trace.regions}
        assert any("_busy" in n for n in names)

    def test_attach_profile_without_samples_is_noop(self):
        from repro.obs.profiler import Profiler

        col = obs.enable()
        obs.counter("x").add(1)
        col = obs.disable()
        col.attach_profile(Profiler(backend="thread"))
        assert "profile.samples" not in col.counters()


# ---------------------------------------------------------------------------
# Logging
# ---------------------------------------------------------------------------


class TestLogging:
    def test_verbosity_mapping(self):
        assert obs.verbosity_level() == logging.WARNING
        assert obs.verbosity_level(verbose=1) == logging.INFO
        assert obs.verbosity_level(verbose=2) == logging.DEBUG
        assert obs.verbosity_level(quiet=1) == logging.ERROR
        assert obs.verbosity_level(quiet=5) == logging.CRITICAL
        assert obs.verbosity_level(verbose=1, quiet=1) == logging.WARNING

    def test_configure_logging_json(self, capsys):
        import io

        stream = io.StringIO()
        logger = obs.configure_logging(
            level="INFO", fmt="json", stream=stream
        )
        obs.get_logger("core.shard").info("hello", extra={"shard": 3})
        payload = json.loads(stream.getvalue())
        assert payload["msg"] == "hello"
        assert payload["logger"] == "repro.core.shard"
        assert payload["shard"] == 3
        # Reconfiguration replaces the handler rather than stacking.
        obs.configure_logging(level="WARNING", fmt="text", stream=stream)
        assert len([h for h in logger.handlers
                    if getattr(h, "_repro_obs", False)]) == 1

    def test_env_level_fallback(self, monkeypatch):
        import io

        monkeypatch.setenv("REPRO_LOG_LEVEL", "DEBUG")
        logger = obs.configure_logging(stream=io.StringIO())
        assert logger.level == logging.DEBUG

    def test_bad_level_raises(self):
        with pytest.raises(ValueError):
            obs.configure_logging(level="NOPE")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCLI:
    def test_analyze_self_trace_round_trip(self, trace_path, tmp_path, capsys):
        self_path = tmp_path / "self.rpt"
        assert main([
            "analyze", str(trace_path),
            "--self-trace", str(self_path), "--stats",
        ]) == 0
        out = capsys.readouterr()
        assert "phase" in out.out and "session.analysis" in out.out
        assert "wrote self-trace" in out.err
        assert self_path.exists()
        # Circular: the self-trace analyses and names an analyzer phase
        # (which phase wins is a timing race; any own-phase is truthful).
        assert main(["analyze", str(self_path)]) == 0
        report = capsys.readouterr().out
        assert re.search(r"selected: '(session|stage|fused|io|shard|lint)\.",
                         report)
        # ... and lints with zero errors.
        assert main(["lint", str(self_path)]) in (0, 1)
        lint_out = capsys.readouterr().out
        assert "0 errors" in lint_out

    def test_self_trace_bit_stable_without_mmap(
        self, trace_path, tmp_path, monkeypatch, capsys
    ):
        from repro.trace.fingerprint import fingerprint_trace
        from repro.trace.reader import TraceIndex

        self_path = tmp_path / "self.rpt"
        assert main([
            "analyze", str(trace_path), "--self-trace", str(self_path),
        ]) == 0
        capsys.readouterr()
        with_mmap = fingerprint_trace(TraceIndex(str(self_path)).load())
        monkeypatch.setenv("REPRO_NO_MMAP", "1")
        no_mmap = fingerprint_trace(TraceIndex(str(self_path)).load())
        assert with_mmap.hexdigest == no_mmap.hexdigest

    def test_stats_subcommand(self, trace_path, tmp_path, capsys):
        self_path = tmp_path / "self.rpt"
        assert main([
            "baselines", str(trace_path), "--self-trace", str(self_path),
        ]) == 0
        capsys.readouterr()
        assert main(["stats", str(self_path)]) == 0
        out = capsys.readouterr().out
        assert "wall time" in out and "fused.bootstrap" in out
        assert "not a self-trace" not in out

    def test_stats_on_plain_trace_notes_it(self, trace_path, capsys):
        assert main(["stats", str(trace_path)]) == 0
        assert "not a self-trace" in capsys.readouterr().out

    def test_stats_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.rpt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_self_trace_unwritable_exit_2(self, trace_path, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "self.rpt"
        assert main([
            "analyze", str(trace_path), "--self-trace", str(target),
        ]) == 2
        assert "cannot write self-trace" in capsys.readouterr().err

    def test_verbose_flag_positions(self, trace_path, capsys):
        # Before and after the subcommand, plus --log-level override.
        assert main(["-v", "info", str(trace_path)]) == 0
        assert main(["info", str(trace_path), "-v"]) == 0
        assert main(["info", str(trace_path), "--log-level", "DEBUG"]) == 0
        assert logging.getLogger("repro").level == logging.DEBUG
        assert main(["info", str(trace_path), "-q"]) == 0
        assert logging.getLogger("repro").level == logging.ERROR
        capsys.readouterr()

    def test_bad_log_level_exit_2(self, trace_path, capsys):
        assert main(["info", str(trace_path), "--log-level", "NOPE"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_heartbeat_logged_at_info(self, trace_path, monkeypatch):
        import io

        from repro.core.session import AnalysisSession

        monkeypatch.setenv("REPRO_SHARD_WORKERS", "1")
        stream = io.StringIO()
        obs.configure_logging(level="INFO", stream=stream)
        AnalysisSession(None, source_path=str(trace_path), shards=2).scan()
        obs.configure_logging(level="WARNING")  # restore default
        logged = stream.getvalue()
        assert "shard 1/2 done" in logged and "shard 2/2 done" in logged

    def test_obs_disabled_after_cli_run(self, trace_path, tmp_path, capsys):
        assert main([
            "analyze", str(trace_path),
            "--self-trace", str(tmp_path / "s.rpt"),
        ]) == 0
        capsys.readouterr()
        assert not obs.enabled()
        assert obs.collector() is None

    def test_removed_metrics_flag_is_unknown(self, trace_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(trace_path), "--metrics-file", "m.prom"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --metrics-file" in capsys.readouterr().err

    def test_profile_flag_writes_speedscope(self, trace_path, tmp_path, capsys):
        prof_path = tmp_path / "prof.speedscope.json"
        assert main([
            "analyze", str(trace_path), "--profile", str(prof_path),
        ]) == 0
        err = capsys.readouterr().err
        assert "wrote profile" in err
        doc = json.loads(prof_path.read_text())
        assert doc["profiles"][0]["type"] == "sampled"

    def test_profile_bad_interval_exit_2(self, trace_path, tmp_path, capsys):
        assert main([
            "analyze", str(trace_path),
            "--profile", str(tmp_path / "p.json"),
            "--profile-interval", "0",
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sharded_self_trace_has_single_trace_id(
        self, trace_path, tmp_path, monkeypatch, capsys
    ):
        from repro.trace import read_trace

        monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")
        self_path = tmp_path / "self.rpt"
        assert main([
            "analyze", str(trace_path), "--shards", "2",
            "--self-trace", str(self_path),
        ]) == 0
        capsys.readouterr()
        trace = read_trace(str(self_path))
        trace_id = trace.attributes["repro.trace_id"]
        assert re.fullmatch(r"[0-9a-f]{16}", trace_id)
        # Worker origins stitched in with their forking span recorded.
        ctx_keys = [k for k in trace.attributes if k.startswith("ctx.shard-")]
        assert ctx_keys
        for key in ctx_keys:
            assert trace.attributes[key]  # parent span name, non-empty
        # All origins share the epoch: every event time is >= 0 and the
        # journals interleave on one clock.
        for rank in trace.ranks:
            events = trace.events_of(rank)
            assert float(events.time[0]) >= 0.0

    def test_stats_graceful_on_counter_only_trace(self, tmp_path, capsys):
        obs.enable()
        obs.counter("cache.hit").add(2)
        col = obs.disable()
        path = tmp_path / "counters.rpt"
        write_self_trace(col, path)
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "counters only" in out
        assert "cache.hit" in out

    def test_live_stats_graceful_when_nothing_recorded(self, capsys):
        from repro.cli import _emit_telemetry

        class _Args:
            stats = True

        obs.enable()
        col = obs.disable()
        _emit_telemetry(_Args(), col)
        assert "no telemetry recorded" in capsys.readouterr().out

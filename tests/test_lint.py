"""Tests for the tracelint static-analysis pass.

Covers: each built-in rule firing on a minimal broken trace and
staying silent on a well-formed one, diagnostic determinism across
shard counts, SARIF output shape, config handling, the structural
``validate_config`` subset, pre-flight wiring, and hypothesis-driven
mutation robustness (lint never crashes on broken input and flags
every mutation class).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lint import (
    Finding,
    LintConfig,
    LintError,
    LintReport,
    Severity,
    all_rules,
    get_rule,
    lint_trace,
    register_rule,
    sarif_dict,
    validate_config,
)
from repro.lint.registry import _REGISTRY
from repro.trace import Location, Trace, write_jsonl
from repro.trace.builder import TraceBuilder
from repro.trace.definitions import Paradigm
from repro.trace.events import EventKind, EventList, EventListBuilder


def stream(rows):
    """rows: (time, kind, ref) triples."""
    b = EventListBuilder()
    for t, kind, ref in rows:
        b.append(t, kind, ref=ref)
    return b.freeze()


def trace_of(streams, regions=("main",), paradigms=None, name="t"):
    trace = Trace(name=name)
    for rname in regions:
        trace.regions.register(
            rname, paradigm=(paradigms or {}).get(rname, Paradigm.USER)
        )
    for rank, ev in streams.items():
        trace.add_process(Location(rank, f"P{rank}"), ev)
    return trace


def unsorted_stream():
    ev = stream([(0.0, EventKind.ENTER, 0), (1.0, EventKind.LEAVE, 0)])
    ev.time.setflags(write=True)
    ev.time[:] = [1.0, 0.5]
    ev.time.setflags(write=False)
    return ev


def balanced_rows(count, region=0, t0=0.0):
    rows = []
    for i in range(count):
        rows += [
            (t0 + i, EventKind.ENTER, region),
            (t0 + i + 0.5, EventKind.LEAVE, region),
        ]
    return rows


def codes(report: LintReport) -> set[str]:
    return {d.code for d in report.diagnostics}


def healthy_trace(ranks=2, iterations=8):
    """A trace that passes every rule (enough invocations, no messages)."""
    tb = TraceBuilder(name="healthy")
    tb.region("main")
    tb.region("iter")
    for rank in range(ranks):
        p = tb.process(rank)
        p.enter(0.0, "main")
        for i in range(iterations):
            p.call(float(i + 1), i + 1.75, "iter")
        p.leave(iterations + 2.0)
    return tb.freeze()


class TestRegistry:
    def test_all_rules_sorted_and_unique(self):
        rules = all_rules()
        assert [r.code for r in rules] == sorted({r.code for r in rules})
        assert len(rules) >= 12

    def test_rule_metadata(self):
        rule = get_rule("TL001")
        assert rule.category == "structural"
        assert rule.scope == "rank"
        assert rule.short_help.endswith(".")
        assert rule.short_help in rule.full_help

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError, match="TL999"):
            get_rule("TL999")

    def test_duplicate_code_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):

            @register_rule(
                "TL001", category="x", scope="rank", severity=Severity.INFO
            )
            def dupe(view):
                yield Finding("nope")

    def test_bad_code_and_scope_rejected(self):
        with pytest.raises(ValueError, match="TL123"):
            register_rule(
                "X1", category="x", scope="rank", severity=Severity.INFO
            )
        with pytest.raises(ValueError, match="scope"):
            register_rule(
                "TL998", category="x", scope="galaxy", severity=Severity.INFO
            )

    def test_custom_rule_runs_and_unregisters(self):
        @register_rule(
            "TL901", category="custom", scope="rank", severity=Severity.INFO
        )
        def always(view):
            """Always fires."""
            for slot in range(len(view.ranks)):
                yield view.finding(slot, "hello", position=0)

        try:
            trace = healthy_trace()
            report = lint_trace(trace)
            fired = [d for d in report.diagnostics if d.code == "TL901"]
            assert [d.rank for d in fired] == sorted(trace.ranks)
            assert {d.position for d in fired} == {0}
            # The kernel scans every rank in one batch: same findings.
            from repro.core.fused import fused_bootstrap

            batched = fused_bootstrap(trace, lint=LintConfig()).report
            assert batched.to_json() == report.to_json()
        finally:
            del _REGISTRY["TL901"]


class TestStructuralRules:
    def test_clean_trace_is_clean(self):
        assert lint_trace(healthy_trace()).ok

    def test_tl001_unmatched_leave(self):
        report = lint_trace(trace_of({0: stream([(0.0, EventKind.LEAVE, 0)])}))
        diag = next(d for d in report.diagnostics if d.code == "TL001")
        assert diag.rank == 0
        assert diag.position == 0
        assert diag.time == 0.0
        assert diag.severity is Severity.ERROR

    def test_tl002_unclosed_regions(self):
        report = lint_trace(trace_of({0: stream([(0.0, EventKind.ENTER, 0)])}))
        assert "TL002" in codes(report)
        assert "TL001" not in codes(report)

    def test_tl003_mismatched_leave(self):
        report = lint_trace(
            trace_of(
                {0: stream([(0.0, EventKind.ENTER, 0), (1.0, EventKind.LEAVE, 1)])},
                regions=("a", "b"),
            )
        )
        assert "TL003" in codes(report)

    def test_tl004_time_order(self):
        report = lint_trace(trace_of({0: unsorted_stream()}))
        assert "TL004" in codes(report)
        # Pairing-dependent rules must not also fire on unsorted input.
        assert {"TL001", "TL002", "TL003"}.isdisjoint(codes(report))

    def test_tl005_duplicate_events(self):
        rows = [
            (0.0, EventKind.ENTER, 0),
            (1.0, EventKind.LEAVE, 0),
            (1.0, EventKind.LEAVE, 0),
        ]
        report = lint_trace(trace_of({0: stream(rows)}))
        assert "TL005" in codes(report)

    def test_tl006_negative_time(self):
        ev = stream([(0.0, EventKind.ENTER, 0), (1.0, EventKind.LEAVE, 0)])
        ev.time.setflags(write=True)
        ev.time[:] = [-2.0, 1.0]
        ev.time.setflags(write=False)
        report = lint_trace(trace_of({0: ev}))
        assert "TL006" in codes(report)

    def test_tl007_bad_region_ref(self):
        report = lint_trace(
            trace_of({0: stream([(0.0, EventKind.ENTER, 9), (1.0, EventKind.LEAVE, 9)])})
        )
        assert "TL007" in codes(report)

    def test_tl008_bad_metric_ref(self):
        b = EventListBuilder()
        b.metric(0.0, metric=5, value=1.0)
        report = lint_trace(trace_of({0: b.freeze()}))
        assert "TL008" in codes(report)

    def test_tl009_bad_partner(self):
        b = EventListBuilder()
        b.send(0.0, partner=9)
        report = lint_trace(trace_of({0: b.freeze()}))
        assert "TL009" in codes(report)

    def test_tl009_respects_known_ranks(self):
        b = EventListBuilder()
        b.send(0.0, partner=9)
        report = lint_trace(
            trace_of({0: b.freeze()}), known_ranks=(0, 9)
        )
        assert "TL009" not in codes(report)

    def test_tl010_empty_stream_and_suppression(self):
        trace = trace_of({0: EventList.empty()})
        assert "TL010" in codes(lint_trace(trace))
        relaxed = LintConfig(allow_empty_streams=True)
        assert "TL010" not in codes(lint_trace(trace, config=relaxed))

    def test_tl011_no_processes(self):
        report = lint_trace(Trace(name="empty"))
        assert "TL011" in codes(report)
        assert report.diagnostics[0].rank == -1


class TestSemanticRules:
    def test_tl101_p2p_mismatch(self):
        b0 = EventListBuilder()
        b0.enter(0.0, 0)
        b0.send(0.5, partner=1)
        b0.leave(1.0, 0)
        report = lint_trace(
            trace_of({0: b0.freeze(), 1: stream(balanced_rows(1))})
        )
        diag = next(d for d in report.diagnostics if d.code == "TL101")
        assert "rank 0 sent 1" in diag.message

    def test_tl101_matched_messages_clean(self):
        b0 = EventListBuilder()
        b0.enter(0.0, 0)
        b0.send(0.5, partner=1)
        b0.leave(1.0, 0)
        b1 = EventListBuilder()
        b1.enter(0.0, 0)
        b1.recv(0.6, partner=0)
        b1.leave(1.0, 0)
        report = lint_trace(trace_of({0: b0.freeze(), 1: b1.freeze()}))
        assert "TL101" not in codes(report)

    def test_tl102_collective_mismatch(self):
        report = lint_trace(
            trace_of(
                {
                    0: stream(balanced_rows(2, region=1)),
                    1: stream(balanced_rows(1, region=1)),
                },
                regions=("main", "MPI_Barrier"),
                paradigms={"MPI_Barrier": Paradigm.MPI},
            )
        )
        assert "TL102" in codes(report)

    def test_tl102_even_collectives_clean(self):
        report = lint_trace(
            trace_of(
                {
                    0: stream(balanced_rows(2, region=1)),
                    1: stream(balanced_rows(2, region=1)),
                },
                regions=("main", "MPI_Barrier"),
                paradigms={"MPI_Barrier": Paradigm.MPI},
            )
        )
        assert "TL102" not in codes(report)

    def test_tl103_self_message(self):
        b = EventListBuilder()
        b.enter(0.0, 0)
        b.send(0.5, partner=0)
        b.leave(1.0, 0)
        report = lint_trace(trace_of({0: b.freeze()}))
        assert "TL103" in codes(report)

    def test_tl104_zero_duration_sync_storm(self):
        rows = []
        for i in range(10):
            rows += [(float(i), EventKind.ENTER, 1), (float(i), EventKind.LEAVE, 1)]
        report = lint_trace(
            trace_of(
                {0: stream(rows)},
                regions=("main", "MPI_Barrier"),
                paradigms={"MPI_Barrier": Paradigm.MPI},
            )
        )
        assert "TL104" in codes(report)

    def test_tl104_quiet_below_threshold(self):
        rows = []
        for i in range(10):
            rows += [
                (float(i), EventKind.ENTER, 1),
                (float(i) + 0.25, EventKind.LEAVE, 1),
            ]
        report = lint_trace(
            trace_of(
                {0: stream(rows)},
                regions=("main", "MPI_Barrier"),
                paradigms={"MPI_Barrier": Paradigm.MPI},
            )
        )
        assert "TL104" not in codes(report)


class TestPreconditionRules:
    def test_tl201_no_dominant_candidate(self):
        report = lint_trace(
            trace_of({0: stream(balanced_rows(1)), 1: stream(balanced_rows(1))})
        )
        assert "TL201" in codes(report)
        assert report.exit_code() == 2

    def test_tl201_satisfied_quiet(self):
        assert "TL201" not in codes(lint_trace(healthy_trace()))

    def test_tl203_segment_divergence(self):
        report = lint_trace(
            trace_of({0: stream(balanced_rows(4)), 1: stream(balanced_rows(5))})
        )
        assert "TL203" in codes(report)

    def test_tl204_clock_skew(self):
        report = lint_trace(
            trace_of(
                {
                    0: stream(balanced_rows(4)),
                    1: stream(balanced_rows(4)),
                    2: stream(balanced_rows(4, t0=50.0)),
                }
            )
        )
        skewed = [d for d in report.diagnostics if d.code == "TL204"]
        assert [d.rank for d in skewed] == [2]

    def test_tl204_tolerance_configurable(self):
        trace = trace_of(
            {
                0: stream(balanced_rows(4)),
                1: stream(balanced_rows(4, t0=50.0)),
            }
        )
        relaxed = LintConfig(clock_skew_tolerance=10.0)
        assert "TL204" not in codes(lint_trace(trace, config=relaxed))

    def test_workloads_lint_clean(self):
        from repro.sim.workloads import synthetic

        assert lint_trace(synthetic.generate()).ok


class TestConfig:
    def test_select_and_ignore(self):
        trace = trace_of({0: stream([(0.0, EventKind.LEAVE, 0)])})
        only_structural = lint_trace(trace, config=LintConfig(select=("TL0*",)))
        assert codes(only_structural) <= {f"TL{i:03d}" for i in range(100)}
        ignored = lint_trace(trace, config=LintConfig(ignore=("TL001", "TL201")))
        assert "TL001" not in codes(ignored)

    def test_severity_override(self):
        trace = trace_of({0: stream([(0.0, EventKind.LEAVE, 0)])})
        cfg = LintConfig(
            select=("TL001",),
            severity_overrides=(("TL001", Severity.WARNING),),
        )
        report = lint_trace(trace, config=cfg)
        assert report.max_severity is Severity.WARNING
        assert report.exit_code() == 1

    def test_from_mapping_roundtrip(self):
        cfg = LintConfig.from_mapping(
            {
                "select": ["TL0*"],
                "min_severity": "warning",
                "severity_overrides": {"TL005": "error"},
                "clock_skew_tolerance": 0.5,
            }
        )
        assert cfg.select == ("TL0*",)
        assert cfg.min_severity is Severity.WARNING
        assert cfg.severity_of("TL005", Severity.WARNING) is Severity.ERROR
        assert cfg.clock_skew_tolerance == 0.5

    def test_from_mapping_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown lint config key"):
            LintConfig.from_mapping({"bogus": 1})

    def test_report_filtered(self):
        trace = trace_of({0: stream([(0.0, EventKind.LEAVE, 0)])})
        report = lint_trace(trace)
        errors_only = report.filtered(min_severity=Severity.ERROR)
        assert all(d.severity >= Severity.ERROR for d in errors_only.diagnostics)
        none = report.filtered(ignore=("TL*",))
        assert not none.diagnostics

    def test_raise_for_errors(self):
        trace = trace_of({0: stream([(0.0, EventKind.LEAVE, 0)])})
        report = lint_trace(trace)
        with pytest.raises(LintError, match=r"TL001"):
            report.raise_for_errors()
        try:
            report.raise_for_errors()
        except LintError as err:
            assert err.report is report


def lint_file(path, config=None, shards=None):
    """``repro lint``'s route: a path-mode session's kernel scan."""
    from repro.core.session import AnalysisSession

    session = AnalysisSession(None, source_path=path, shards=shards)
    return session.scan(config)[0]


class TestDeterminism:
    @pytest.fixture()
    def messy_path(self, tmp_path):
        """Multi-rank trace with warnings and errors spread over ranks."""
        trace = trace_of(
            {
                0: stream(balanced_rows(4)),
                1: stream(balanced_rows(5)),
                2: stream([(0.0, EventKind.LEAVE, 0)]),
                3: stream(balanced_rows(4, t0=80.0)),
            },
            name="messy",
        )
        path = tmp_path / "messy.jsonl"
        write_jsonl(trace, str(path))
        return str(path)

    def test_byte_identical_across_shards(self, messy_path):
        rendered = {
            shards: lint_file(messy_path, shards=shards).to_json()
            for shards in (None, 1, 2, 3, 7)
        }
        assert len(set(rendered.values())) == 1
        assert json.loads(rendered[1])["diagnostics"]

    def test_path_matches_in_memory(self, messy_path):
        from repro.trace import read_trace

        from_path = lint_file(messy_path)
        in_memory = lint_trace(read_trace(messy_path), source=messy_path)
        assert from_path.diagnostics == in_memory.diagnostics

    def test_diagnostics_sorted(self, messy_path):
        report = lint_file(messy_path, shards=3)
        keys = [d.sort_key for d in report.diagnostics]
        assert keys == sorted(keys)


class TestSarif:
    def test_sarif_required_fields(self):
        trace = trace_of({0: stream([(0.0, EventKind.LEAVE, 0)])})
        report = lint_trace(trace)
        sarif = sarif_dict(report)
        assert sarif["version"] == "2.1.0"
        assert sarif["$schema"].endswith("sarif-schema-2.1.0.json")
        run = sarif["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "tracelint"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert {"TL001", "TL101", "TL201"} <= set(rule_ids)
        for descriptor in driver["rules"]:
            assert descriptor["shortDescription"]["text"]
            assert descriptor["defaultConfiguration"]["level"] in (
                "note", "warning", "error",
            )
        result = run["results"][0]
        assert result["ruleId"] in set(rule_ids)
        assert result["level"] == "error"
        assert result["message"]["text"]
        assert result["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
        assert driver["rules"][result["ruleIndex"]]["id"] == result["ruleId"]
        json.dumps(sarif)  # must be serialisable

    def test_sarif_levels_match_severities(self):
        trace = trace_of({0: stream(balanced_rows(4)), 1: stream(balanced_rows(5))})
        report = lint_trace(trace)
        sarif = sarif_dict(report)
        levels = {r["level"] for r in sarif["runs"][0]["results"]}
        assert "warning" in levels


class TestValidateShim:
    """``validate_config``: the structural error rules every analysis
    runs before replay (formerly wrapped by a ``validate_trace`` shim)."""

    def test_reports_lint_codes(self):
        trace = trace_of({0: stream([(0.0, EventKind.LEAVE, 0)])})
        report = lint_trace(trace, config=validate_config())
        assert codes(report) == {"TL001"}

    def test_shim_excludes_warning_rules(self):
        # Duplicate events are a lint warning, not a validation failure.
        rows = [
            (0.0, EventKind.ENTER, 0),
            (1.0, EventKind.LEAVE, 0),
            (1.0, EventKind.LEAVE, 0),
        ]
        trace = trace_of({0: stream(rows)})
        report = lint_trace(trace, config=validate_config())
        assert codes(report) == {"TL001"}

    def test_issue_position_and_time(self):
        trace = trace_of({0: stream([(0.0, EventKind.ENTER, 0), (2.5, EventKind.LEAVE, 1)])},
                         regions=("a", "b"))
        report = lint_trace(trace, config=validate_config())
        diag = next(d for d in report.diagnostics if d.code == "TL003")
        assert diag.position == 1
        assert diag.time == 2.5
        assert "@ event 1" in str(diag)
        assert "t=2.5" in str(diag)
        payload = diag.to_dict()
        assert payload["position"] == 1
        assert payload["time"] == 2.5

    def test_validate_config_selects_legacy_subset(self):
        selected = set(validate_config().select)
        for rule in all_rules():
            assert (rule.code in selected) == (
                rule.category == "structural"
                and rule.default_severity is Severity.ERROR
            )
        assert selected == {
            "TL001", "TL002", "TL003", "TL004", "TL007",
            "TL008", "TL009", "TL010", "TL011",
        }


class TestPreflightWiring:
    def test_session_preflight_reports(self, tiny_trace):
        from repro.core.session import AnalysisSession

        report = AnalysisSession(tiny_trace).preflight()
        assert isinstance(report, LintReport)
        assert report.num_ranks == tiny_trace.num_processes

    def test_analyze_trace_lint_gate_raises(self):
        from repro.core.pipeline import analyze_trace

        trace = trace_of(
            {0: stream(balanced_rows(1)), 1: stream(balanced_rows(1))}
        )
        with pytest.raises(LintError, match="TL201"):
            analyze_trace(trace, lint=True)

    def test_analyze_trace_lint_gate_passes(self, tiny_trace):
        from repro.core.pipeline import analyze_trace

        analysis = analyze_trace(tiny_trace, lint=True)
        assert analysis.dominant_name

    def test_sharded_preflight_matches_in_memory(self, tmp_path, tiny_trace):
        from repro.core.session import AnalysisSession

        path = tmp_path / "tiny.jsonl"
        write_jsonl(tiny_trace, str(path))
        sharded = AnalysisSession(
            None, source_path=str(path), shards=2
        ).preflight()
        direct = lint_trace(tiny_trace)
        assert sharded.diagnostics == direct.diagnostics

    def test_replay_now_validates(self):
        from repro.core.session import AnalysisSession

        broken = trace_of({0: stream([(0.0, EventKind.LEAVE, 0)])})
        with pytest.raises(LintError, match=r"error\[TL001\] rank 0 "):
            AnalysisSession(broken).replay()

    @pytest.mark.parametrize(
        "lint, code",
        [
            (None, "TL001"),
            (True, "TL001"),
            (LintConfig(select=("TL1*",)), "TL001"),
            (LintConfig(ignore=("TL001",)), "TL201"),
        ],
        ids=["plain", "default", "select-TL1", "ignore-TL001"],
    )
    def test_lint_config_keeps_structural_gate(self, lint, code):
        """A ``lint=`` config that skips structural rules still gets the
        structural verdict, not a bare replay ``ValueError``."""
        from repro.core.session import AnalysisSession

        broken = trace_of({0: stream([(0.0, EventKind.LEAVE, 0)])})
        with pytest.raises(LintError, match=rf"error\[{code}\]"):
            AnalysisSession(broken, lint=lint).analysis()

    @pytest.fixture()
    def pairings(self, monkeypatch):
        """Count the ranks every enter/leave pairing covers: lint batch
        views and plain replay (the kernel's no-scan batches and
        ``match_invocations``)."""
        from repro.core import incremental
        from repro.lint import engine
        from repro.profiles import replay

        calls = {"view": 0, "replay": 0}
        view_init = engine.BatchView.__init__

        def counting_init(self, shared, ranks, *args, **kwargs):
            calls["view"] += len(ranks)
            view_init(self, shared, ranks, *args, **kwargs)

        real_pair = incremental.pair_events

        def pair_events(time, kind, starts, **kwargs):
            calls["replay"] += len(starts) - 1
            return real_pair(time, kind, starts, **kwargs)

        real_match = replay.match_invocations

        def match_invocations(*args, **kwargs):
            calls["replay"] += 1
            return real_match(*args, **kwargs)

        monkeypatch.setattr(engine.BatchView, "__init__", counting_init)
        monkeypatch.setattr(incremental, "pair_events", pair_events)
        monkeypatch.setattr(replay, "match_invocations", match_invocations)
        return calls

    @pytest.mark.parametrize("warn", [False, True], ids=["clean", "warning"])
    def test_clean_preflight_feeds_analysis(self, warn, pairings):
        """A report without errors (warnings allowed) hands the scan's
        tables to the analysis, which then pairs no rank again."""
        from repro.core.session import AnalysisSession

        tb = TraceBuilder(name="warn" if warn else "clean")
        tb.region("main")
        tb.region("iter")
        for rank in range(3):
            p = tb.process(rank)
            p.enter(0.0, "main")
            for i in range(4):
                p.call(i + 1.0, i + 1.5 + 0.1 * rank, "iter")
            if warn and rank == 1:  # TL103: a message to itself
                p.send(6.0, 1, size=8, tag=0)
                p.recv(6.5, 1, size=8, tag=0)
            p.leave(7.0)
        trace = tb.freeze()
        session = AnalysisSession(trace)
        report = session.preflight()
        assert not report.counts()["error"]
        assert {d.code for d in report.diagnostics} == ({"TL103"} if warn else set())
        assert pairings["view"] == len(trace.ranks)
        pairings.update(view=0, replay=0)
        session.analysis()
        assert pairings == {"view": 0, "replay": 0}
        assert session.stats.computed["validate"] == 1
        assert session.stats.computed["replay"] == len(trace.ranks)

    def test_preflight_with_errors_adopts_nothing(self):
        from repro.core.session import AnalysisSession

        broken = trace_of(
            {0: stream(balanced_rows(3)), 1: stream([(0.0, EventKind.LEAVE, 0)])}
        )
        session = AnalysisSession(broken)
        assert session.preflight().counts()["error"]
        assert session._tables is None and session._partials is None
        assert session.stats.computed == {}
        with pytest.raises(LintError, match="TL001"):
            session.analysis()

    def test_preflight_without_structural_rules_adopts_nothing(self):
        """A scan that skips the structural rules builds no tables: it
        cannot tell a stream replay would choke on (here a region id
        of -1, balanced) from a sound one."""
        from repro.core.fused import fused_bootstrap
        from repro.core.session import AnalysisSession

        bad_ref = [(0.0, EventKind.ENTER, -1), (1.0, EventKind.LEAVE, -1)]
        trace = trace_of({0: stream(bad_ref), 1: stream(balanced_rows(3))})
        boot = fused_bootstrap(trace, lint=LintConfig(select=("TL1*",)))
        assert boot.tables == {} and boot.partials == {}
        session = AnalysisSession(trace, lint=LintConfig(select=("TL1*",)))
        assert session.preflight().ok
        assert session._tables is None and session._partials is None
        assert session.stats.computed == {}
        with pytest.raises(LintError, match=r"error\[TL00\d\] rank 0 "):
            session.analysis()

    def test_cached_preflight_builds_no_tables(
        self, tiny_trace, tmp_path, pairings, monkeypatch
    ):
        from repro.core import incremental
        from repro.core.session import AnalysisSession

        built = []
        real = incremental.table_from_pairing
        monkeypatch.setattr(
            incremental,
            "table_from_pairing",
            lambda *args: built.append(1) or real(*args),
        )
        cold = AnalysisSession(tiny_trace, cache_dir=tmp_path)
        report = cold.preflight()
        assert built == [] and cold._tables is None
        assert cold.cache.contains(f"valid-{cold.fingerprint.hexdigest}")
        want = cold.analysis().report()

        built.clear()
        pairings.update(view=0, replay=0)
        warm = AnalysisSession(tiny_trace, cache_dir=tmp_path)
        assert warm.preflight() == report
        assert warm.analysis().report() == want
        assert built == [] and pairings["replay"] == 0
        assert pairings["view"] == len(tiny_trace.ranks)  # the lint scan
        assert warm.stats.disk_writes == {}


class TestLintCLI:
    @pytest.fixture()
    def broken_path(self, tmp_path):
        trace = trace_of(
            {
                0: stream([(0.0, EventKind.LEAVE, 0)]),
                1: stream(balanced_rows(1)),
            },
            name="broken",
        )
        path = tmp_path / "broken.jsonl"
        write_jsonl(trace, str(path))
        return str(path)

    @pytest.fixture()
    def healthy_path(self, tmp_path):
        path = tmp_path / "healthy.jsonl"
        write_jsonl(healthy_trace(), str(path))
        return str(path)

    def test_exit_codes(self, broken_path, healthy_path, capsys):
        from repro.cli import main

        assert main(["lint", healthy_path]) == 0
        assert main(["lint", broken_path]) == 2
        capsys.readouterr()

    def test_select_and_severity_flags(self, broken_path, capsys):
        from repro.cli import main

        # Selecting a rule that cannot fire here yields a clean run.
        assert main(["lint", broken_path, "--select", "TL005"]) == 0
        capsys.readouterr()
        code = main(["lint", broken_path, "--severity", "error", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        assert payload["diagnostics"]
        assert all(d["severity"] == "error" for d in payload["diagnostics"])

    def test_sarif_output_file(self, broken_path, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.sarif"
        assert main(["lint", broken_path, "--format", "sarif", "-o", str(out)]) == 2
        capsys.readouterr()
        sarif = json.loads(out.read_text())
        assert sarif["runs"][0]["tool"]["driver"]["rules"]
        assert sarif["runs"][0]["results"]

    def test_config_file(self, broken_path, tmp_path, capsys):
        from repro.cli import main

        cfg = tmp_path / "lint.json"
        cfg.write_text(json.dumps({"ignore": ["TL001", "TL201"]}))
        assert main(["lint", broken_path, "--config", str(cfg)]) == 0
        capsys.readouterr()

    def test_bad_config_rejected(self, broken_path, tmp_path, capsys):
        from repro.cli import EXIT_BAD_INPUT, main

        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["lint", broken_path, "--config", str(cfg)]) == EXIT_BAD_INPUT
        assert main(["lint", str(tmp_path / "nope.jsonl")]) == EXIT_BAD_INPUT
        capsys.readouterr()

    def test_rules_listing(self, capsys):
        from repro.cli import main

        assert main(["lint", "--rules", "ignored"]) == 0
        out = capsys.readouterr().out
        assert "TL001" in out and "TL204" in out

    def test_cli_shard_determinism(self, broken_path, capsys):
        from repro.cli import main

        outputs = []
        for shards in ("1", "3"):
            main(["lint", broken_path, "--format", "json", "--shards", shards])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_analyze_preflight_aborts(self, broken_path, capsys):
        from repro.cli import EXIT_BAD_INPUT, main

        assert main(["analyze", broken_path, "--preflight"]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert "TL001" in captured.out


# -- mutation robustness ----------------------------------------------------

_MUTATIONS = ("drop_leave", "drop_enter", "corrupt_ref", "unsort",
              "negate_time", "self_partner")

#: diagnostics each mutation class must produce (any of the set)
_EXPECTED = {
    "drop_leave": {"TL001", "TL002", "TL003"},
    "drop_enter": {"TL001", "TL002", "TL003"},
    "corrupt_ref": {"TL007"},
    "unsort": {"TL004"},
    "negate_time": {"TL006"},
    "self_partner": {"TL103"},
}


def _mutate(trace: Trace, mutation: str, rng: np.random.Generator) -> Trace:
    rank = int(rng.choice(trace.ranks))
    ev = trace.events_of(rank)
    cols = {
        name: getattr(ev, name).copy()
        for name in ("time", "kind", "ref", "partner", "size", "tag", "value")
    }
    n = len(cols["time"])
    if mutation in ("drop_leave", "drop_enter"):
        want = EventKind.LEAVE if mutation == "drop_leave" else EventKind.ENTER
        candidates = np.flatnonzero(cols["kind"] == np.uint8(want))
        victim = int(rng.choice(candidates))
        cols = {name: np.delete(col, victim) for name, col in cols.items()}
    elif mutation == "corrupt_ref":
        enters = np.flatnonzero(cols["kind"] == np.uint8(EventKind.ENTER))
        cols["ref"][int(rng.choice(enters))] = 10_000
    elif mutation == "unsort":
        cols["time"][0] = cols["time"][-1] + 1.0
    elif mutation == "negate_time":
        cols["time"][0] = -abs(cols["time"][-1]) - 1.0
    elif mutation == "self_partner":
        victim = int(rng.integers(n))
        cols["kind"][victim] = np.uint8(EventKind.SEND)
        cols["partner"][victim] = rank
    mutated = Trace(name=trace.name, regions=trace.regions, metrics=trace.metrics)
    for r in trace.ranks:
        if r != rank:
            mutated.add_process(Location(r, f"P{r}"), trace.events_of(r))
            continue
        # Bypass EventList's constructor: mutations deliberately break
        # the sortedness invariant the constructor enforces.
        broken = object.__new__(EventList)
        for name, col in cols.items():
            arr = np.ascontiguousarray(col)
            arr.setflags(write=False)
            setattr(broken, name, arr)
        mutated.add_process(Location(r, f"P{r}"), broken)
    return mutated


class TestMutationRobustness:
    @settings(max_examples=60, deadline=None)
    @given(
        mutation=st.sampled_from(_MUTATIONS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        ranks=st.integers(min_value=1, max_value=3),
        iterations=st.integers(min_value=2, max_value=6),
    )
    def test_lint_never_crashes_and_flags_mutation(
        self, mutation, seed, ranks, iterations
    ):
        rng = np.random.default_rng(seed)
        base = healthy_trace(ranks=ranks, iterations=iterations)
        mutated = _mutate(base, mutation, rng)
        report = lint_trace(mutated)  # must never raise
        assert codes(report) & _EXPECTED[mutation], (
            f"{mutation} produced {codes(report)}"
        )

    @settings(max_examples=20, deadline=None)
    @given(
        mutation=st.sampled_from(_MUTATIONS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_mutated_traces_shim_never_crashes(self, mutation, seed):
        rng = np.random.default_rng(seed)
        mutated = _mutate(healthy_trace(ranks=2, iterations=4), mutation, rng)
        lint_trace(mutated, config=validate_config())  # must never raise

"""Tests for structural trace validation (the lint gate of every analysis)."""

import pytest

from repro.lint import LintError, lint_trace, validate_config
from repro.trace import Location, Trace
from repro.trace.events import EventKind, EventList, EventListBuilder


def stream(rows):
    """rows: (time, kind, ref) triples."""
    b = EventListBuilder()
    for t, kind, ref in rows:
        b.append(t, kind, ref=ref)
    return b.freeze()


def single_process_trace(events, regions=("main",), metrics=()):
    trace = Trace(name="t")
    for name in regions:
        trace.regions.register(name)
    for name in metrics:
        trace.metrics.register(name)
    trace.add_process(Location(0, "P0"), events)
    return trace


def validate(trace, allow_empty_streams=False):
    return lint_trace(
        trace, config=validate_config(allow_empty_streams=allow_empty_streams)
    )


def codes(report):
    return {d.code for d in report.diagnostics}


class TestValidateTrace:
    def test_valid_trace(self, fig2):
        assert validate(fig2).ok

    def test_no_processes(self):
        report = validate(Trace(name="empty"))
        assert codes(report) == {"TL011"}

    def test_empty_stream_flagged_and_suppressed(self):
        trace = single_process_trace(EventList.empty())
        assert codes(validate(trace)) == {"TL010"}
        assert validate(trace, allow_empty_streams=True).ok

    def test_unmatched_leave(self):
        trace = single_process_trace(stream([(0.0, EventKind.LEAVE, 0)]))
        assert "TL001" in codes(validate(trace))

    def test_mismatched_leave(self):
        trace = single_process_trace(
            stream([(0.0, EventKind.ENTER, 0), (1.0, EventKind.LEAVE, 1)]),
            regions=("a", "b"),
        )
        assert "TL003" in codes(validate(trace))

    def test_unclosed_regions(self):
        trace = single_process_trace(stream([(0.0, EventKind.ENTER, 0)]))
        assert "TL002" in codes(validate(trace))

    def test_bad_region_ref(self):
        trace = single_process_trace(
            stream([(0.0, EventKind.ENTER, 7), (1.0, EventKind.LEAVE, 7)])
        )
        assert "TL007" in codes(validate(trace))

    def test_bad_metric_ref(self):
        b = EventListBuilder()
        b.metric(0.0, metric=5, value=1.0)
        trace = single_process_trace(b.freeze())
        report = validate(trace, allow_empty_streams=True)
        assert "TL008" in codes(report)

    def test_bad_partner(self):
        b = EventListBuilder()
        b.send(0.0, partner=9)
        trace = single_process_trace(b.freeze())
        assert "TL009" in codes(validate(trace))

    def test_raise_for_errors(self):
        trace = single_process_trace(stream([(0.0, EventKind.ENTER, 0)]))
        report = validate(trace)
        with pytest.raises(LintError, match=r"invalid trace:\nerror\[TL002\]"):
            report.raise_for_errors()

    def test_report_bool_and_len(self, fig1):
        report = validate(fig1)
        assert report.ok and len(report) == 0
        report.raise_for_errors()  # no-op on valid traces

    def test_issue_str_includes_rank(self):
        trace = single_process_trace(stream([(0.0, EventKind.LEAVE, 0)]))
        text = str(validate(trace).diagnostics[0])
        assert text.startswith("error[TL001] rank 0 @ event 0 (t=0)")

    def test_time_order_detected(self):
        # The builder cannot create unsorted streams, so corrupt a valid
        # one in place (the arrays are merely flagged read-only).
        good = stream([(0.0, EventKind.ENTER, 0), (1.0, EventKind.LEAVE, 0)])
        good.time.setflags(write=True)
        good.time[:] = [1.0, 0.5]
        trace = single_process_trace(good)
        assert "TL004" in codes(validate(trace))

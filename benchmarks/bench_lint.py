"""E15 — tracelint throughput versus replay-based analysis.

The lint pass exists to be a pre-flight gate, so its whole value rests
on being much cheaper than the analysis it guards.  This benchmark
measures, on a >= 500k-event synthetic trace:

* full-rule-set lint wall-clock: the in-memory reference
  (``lint_trace``), the fused kernel's scan without tables on the
  in-memory trace, and the route ``repro lint`` takes (a path-mode
  session's kernel scan, chunked from the file, no tables),
* the replay-based full analysis wall-clock on the same trace,
* the resulting speedup factor (acceptance target: >= 3x; the
  original 10x gap was structural and E16's fused kernel closed most
  of it from the analysis side),
* lint events/second throughput.

The trace is generated healthy, so the run also re-asserts the
"bundled workloads lint clean" contract at benchmark scale.

Results land in ``benchmarks/results/E15_lint_throughput.txt`` and
EXPERIMENTS.md (E15).
"""

import time

import pytest

from repro.core import analyze_trace
from repro.core.fused import fused_bootstrap
from repro.core.session import AnalysisSession
from repro.lint import LintConfig, lint_trace
from repro.trace import write_binary

# Was 10.0 before the fused analysis kernel (E16): lint's margin
# shrank because the analysis it guards got ~3x faster, not because
# lint regressed.  It must still comfortably undercut the analysis.
TARGET_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def big_trace(tmp_path_factory):
    from repro.sim.workloads.synthetic import SyntheticConfig, generate

    config = SyntheticConfig(
        ranks=16,
        iterations=1500,
        base_compute=0.001,
        slow_ranks={11: 1.3},
        seed=11,
    )
    trace = generate(config)
    total = sum(len(trace.events_of(r)) for r in trace.ranks)
    assert total >= 500_000, f"only {total} events"
    path = tmp_path_factory.mktemp("lint_bench") / "big.rpt"
    write_binary(trace, path)
    return trace, path, total


def _timed(fn, repeats=3):
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return value, best


def test_lint_vs_replay_throughput(big_trace, report, bench_meta):
    trace, path, total = big_trace

    lint_report, t_lint = _timed(lambda: lint_trace(trace))
    assert lint_report.ok, lint_report.to_text()
    assert lint_report.num_events == total

    kernel_report, t_kernel = _timed(
        lambda: fused_bootstrap(trace, lint=LintConfig(), table_ranks=()).report
    )
    assert kernel_report.diagnostics == lint_report.diagnostics

    # `repro lint`: the path-mode session's kernel scan, no tables.
    scan_report, t_lint_scan = _timed(
        lambda: AnalysisSession(None, source_path=path).scan()[0]
    )
    assert scan_report.ok, scan_report.to_text()
    assert scan_report.diagnostics == lint_report.diagnostics

    _, t_analyze = _timed(lambda: analyze_trace(trace), repeats=2)

    bench_meta(
        wall_s=t_lint,
        timer="best-of-3",
        events=total,
        trace_bytes=path.stat().st_size,
        kernel_scan_wall_s=t_kernel,
        lint_scan_wall_s=t_lint_scan,
        analyze_wall_s=t_analyze,
    )
    speedup = t_analyze / t_lint

    lines = [
        f"trace: 16 ranks x 1500 iterations, {total} events",
        f"rules run: {len(lint_report.rules_run)} (full default set)",
        "",
        f"{'pass':>28} | {'best of 3 (ms)':>14} | {'Mevents/s':>9}",
        f"{'lint (in-memory)':>28} | {t_lint * 1e3:>14.1f} | "
        f"{total / t_lint / 1e6:>9.2f}",
        f"{'kernel scan (in-memory)':>28} | {t_kernel * 1e3:>14.1f} | "
        f"{total / t_kernel / 1e6:>9.2f}",
        f"{'repro lint (kernel, .rpt)':>28} | {t_lint_scan * 1e3:>14.1f} | "
        f"{total / t_lint_scan / 1e6:>9.2f}",
        f"{'replay-based full analysis':>28} | {t_analyze * 1e3:>14.1f} | "
        f"{total / t_analyze / 1e6:>9.2f}",
        "",
        f"lint speedup vs replay analysis: {speedup:.1f}x "
        f"(target >= {TARGET_SPEEDUP:.0f}x)",
        "diagnostics: 0 (healthy workload lints clean at this scale)",
    ]
    # Written before the gate, so a red run still records its numbers.
    report("E15_lint_throughput", lines)
    assert speedup >= TARGET_SPEEDUP, (
        f"lint is only {speedup:.1f}x faster than replay analysis "
        f"(target {TARGET_SPEEDUP}x)"
    )

"""E16 — zero-copy trace I/O (.rpt v2) + fused single-pass analysis.

The fast path attacks both ends of the pipeline measured in E15:

* the **fused kernel** (:func:`repro.core.fused.fused_bootstrap`) folds
  validation, stack replay and the per-rank statistics partial into one
  pass over each event stream, and the downstream trend/imbalance
  detectors run vectorised row-wise kernels;
* **`.rpt` v2 with raw columns** serves ``np.frombuffer`` views of an
  mmap — a cold full-trace load touches no decompressor and copies no
  bytes — and **lazy column projection** loads only the columns a pass
  declares (replay needs 3 of 7).

Acceptance targets (ISSUE 4): end-to-end analysis of the E15 workload
(16 ranks × 1500 iterations, 504k events) >= 3x faster than the pre-PR
324.0 ms baseline, and cold v2 reads of a >= 2M-event trace >= 5x
faster than the v1 zlib path.  The rank-batched kernel adds a scaling
gate: per event, ``fused_bootstrap`` on 1024 ranks costs at most twice
what it costs on 16 ranks of about as many events.

Results land in ``benchmarks/results/E16_fastpath.txt`` and
``BENCH_fastpath.json``; EXPERIMENTS.md (E16) records the trajectory.
"""

import time

import pytest

from repro.core import analyze_trace
from repro.profiles.replay import REPLAY_COLUMNS
from repro.trace import write_binary
from repro.trace.reader import TraceIndex

#: Best-of-3 `analyze_trace` wall-clock on the E15 workload at the
#: commit preceding the fast path (same host class as EXPERIMENTS E15).
PRE_PR_ANALYZE_S = 0.324
ANALYZE_TARGET_SPEEDUP = 3.0
COLD_READ_TARGET_SPEEDUP = 5.0
#: Largest allowed ratio of the fused kernel's per-event cost on 1024
#: ranks to its cost on 16 ranks at about equal events.
RANK_SCALING_MAX_RATIO = 2.0


def _timed(fn, repeats=3):
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return value, best


@pytest.fixture(scope="module")
def e15_trace():
    """The E15-scale workload: 16 ranks x 1500 iterations, 504k events."""
    from repro.sim.workloads.synthetic import SyntheticConfig, generate

    trace = generate(SyntheticConfig(ranks=16, iterations=1500, seed=3))
    assert trace.num_events >= 500_000, f"only {trace.num_events} events"
    return trace


@pytest.fixture(scope="module")
def wide_trace():
    """1024 ranks x 23 iterations: as many events as the E15 trace."""
    from repro.sim.workloads.synthetic import SyntheticConfig, generate

    return generate(SyntheticConfig(ranks=1024, iterations=23, seed=3))


@pytest.fixture(scope="module")
def big_rpt_pair(tmp_path_factory):
    """A >= 2M-event trace written as .rpt v1 (zlib) and v2 (raw)."""
    from repro.sim.workloads.synthetic import SyntheticConfig, generate

    trace = generate(SyntheticConfig(ranks=32, iterations=3000, seed=5))
    assert trace.num_events >= 2_000_000, f"only {trace.num_events} events"
    root = tmp_path_factory.mktemp("fastpath")
    v1 = root / "big_v1.rpt"
    v2 = root / "big_v2.rpt"
    write_binary(trace, v1, version=1)
    write_binary(trace, v2, version=2, codec="raw")
    return trace, v1, v2


def test_fused_analyze_speedup(e15_trace, report, bench_meta):
    trace = e15_trace
    total = trace.num_events
    for _ in range(2):  # warm-up: imports, ufunc dispatch, caches
        analyze_trace(trace)

    analysis, t_analyze = _timed(lambda: analyze_trace(trace))
    assert analysis.dominant_name is not None

    speedup = PRE_PR_ANALYZE_S / t_analyze
    bench_meta(
        wall_s=t_analyze,
        timer="best-of-3",
        events=total,
        baseline_wall_s=PRE_PR_ANALYZE_S,
        speedup_vs_baseline=speedup,
    )
    report(
        "E16_fastpath",
        [
            f"trace: 16 ranks x 1500 iterations, {total} events",
            "",
            f"end-to-end analyze (fused kernel), best of 3: "
            f"{t_analyze * 1e3:.1f} ms "
            f"({total / t_analyze / 1e6:.2f} M events/s)",
            f"pre-PR baseline: {PRE_PR_ANALYZE_S * 1e3:.1f} ms",
            f"speedup: {speedup:.2f}x "
            f"(target >= {ANALYZE_TARGET_SPEEDUP:.0f}x)",
        ],
    )
    assert speedup >= ANALYZE_TARGET_SPEEDUP, (
        f"fused analyze is only {speedup:.2f}x faster than the "
        f"{PRE_PR_ANALYZE_S * 1e3:.0f} ms baseline "
        f"(target {ANALYZE_TARGET_SPEEDUP}x)"
    )


def test_cold_v2_read_speedup(big_rpt_pair, report, bench_meta):
    trace, v1, v2 = big_rpt_pair
    total = trace.num_events

    t1, t_v1 = _timed(lambda: TraceIndex(v1).load())
    t2, t_v2 = _timed(lambda: TraceIndex(v2).load())
    _, t_v2_proj = _timed(
        lambda: TraceIndex(v2).load(None, columns=REPLAY_COLUMNS)
    )
    # v2 raw serves the identical events straight off the mmap.
    assert all(t1.events_of(r) == t2.events_of(r) for r in t1.ranks)

    speedup = t_v1 / t_v2
    bench_meta(
        wall_s=t_v2,
        timer="best-of-3",
        events=total,
        trace_bytes=v2.stat().st_size,
        v1_wall_s=t_v1,
        v1_trace_bytes=v1.stat().st_size,
        projected_wall_s=t_v2_proj,
        speedup_vs_v1=speedup,
    )
    report(
        "E16_fastpath_cold_read",
        [
            f"trace: 32 ranks x 3000 iterations, {total} events",
            "",
            f"v1 (all-zlib) full load, best of 3:  {t_v1 * 1e3:.1f} ms",
            f"v2 (raw/mmap) full load, best of 3:  {t_v2 * 1e3:.1f} ms",
            f"v2 load projected to {'/'.join(REPLAY_COLUMNS)}: "
            f"{t_v2_proj * 1e3:.1f} ms",
            f"cold-read speedup: {speedup:.1f}x "
            f"(target >= {COLD_READ_TARGET_SPEEDUP:.0f}x)",
        ],
    )
    assert speedup >= COLD_READ_TARGET_SPEEDUP, (
        f"v2 cold read is only {speedup:.1f}x faster than v1 "
        f"(target {COLD_READ_TARGET_SPEEDUP}x)"
    )


def test_fused_rank_scaling(e15_trace, wide_trace, report, bench_meta):
    from repro.core.fused import fused_bootstrap
    from repro.lint import LintConfig

    traces = {16: e15_trace, 1024: wide_trace}
    scans = {"gate": None, "every_rule": LintConfig()}
    for trace in traces.values():  # warm-up: imports, ufunc dispatch
        fused_bootstrap(trace)
    best = {}
    for _ in range(3):  # best of 3, alternating so drift hits both sides
        for ranks, trace in traces.items():
            for scan, lint in scans.items():
                t0 = time.perf_counter()
                fused_bootstrap(trace, lint=lint)
                ns = (time.perf_counter() - t0) / trace.num_events * 1e9
                best[ranks, scan] = min(best.get((ranks, scan), float("inf")), ns)
    ratio = {scan: best[1024, scan] / best[16, scan] for scan in scans}
    bench_meta(
        wall_s=best[1024, "every_rule"] * wide_trace.num_events * 1e-9,
        timer="best-of-3",
        events=wide_trace.num_events,
        **{f"ns_per_event_{r}r_{scan}": best[r, scan] for r, scan in best},
        **{f"ratio_{scan}": value for scan, value in ratio.items()},
    )
    report(
        "E16_fastpath_rank_scaling",
        [
            f"traces: 16 ranks x 1500 iterations ({e15_trace.num_events} "
            f"events), 1024 ranks x 23 iterations "
            f"({wide_trace.num_events} events)",
            "",
            "fused_bootstrap, best of 3, ns/event:",
            *(
                f"  {scan:<10} 16 ranks {best[16, scan]:6.1f}   "
                f"1024 ranks {best[1024, scan]:6.1f}   "
                f"ratio {ratio[scan]:.2f} (max {RANK_SCALING_MAX_RATIO:.0f})"
                for scan in scans
            ),
        ],
    )
    for scan, value in ratio.items():
        assert value <= RANK_SCALING_MAX_RATIO, (
            f"{scan}: the kernel costs {value:.2f}x more per event on 1024 "
            f"ranks than on 16 (max {RANK_SCALING_MAX_RATIO})"
        )

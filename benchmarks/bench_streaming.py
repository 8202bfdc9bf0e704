"""E11 (extension) — streaming vs. post-mortem analysis.

The paper states in-situ analysis "is feasible as well" (Section III);
our :class:`~repro.core.streaming.StreamingAnalyzer` implements it.
This benchmark measures the streaming path's event throughput against
the batch pipeline and verifies the alert arrives *during* the stream,
long before the run ends.  Two more benchmarks drive the steady state
over a dense synthetic stream: 64k-event chunks, and 256-event chunks
(a short-chunk live feed).  Both record throughput plus peak RSS into
``BENCH_streaming.json`` (and the canonical repo-root copy
``BENCH_stream.json``).
"""

import resource

import numpy as np

from repro.core import analyze_trace
from repro.core.streaming import StreamingAnalyzer
from repro.sim.workloads.synthetic import SyntheticConfig, generate


def _trace():
    return generate(
        SyntheticConfig(
            ranks=16,
            iterations=40,
            subiters=2,
            outliers={(9, 25): 0.08},
            jitter_sigma=0.005,
            seed=21,
        )
    )


def stream_all(trace, chunk=256):
    analyzer = StreamingAnalyzer(
        trace.regions, trace.num_processes, dominant="iteration"
    )
    for rank in trace.ranks:
        events = trace.events_of(rank)
        for i in range(0, len(events), chunk):
            analyzer.feed(rank, events[i : i + chunk])
    return analyzer


def test_streaming_analysis(benchmark, report, bench_meta):
    trace = _trace()
    analyzer = benchmark(stream_all, trace)
    bench_meta(events=trace.num_events)

    assert len(analyzer.alerts) >= 1
    alert = analyzer.alerts[0]
    assert alert.segment.rank == 9 and alert.segment.index == 25

    batch = analyze_trace(trace)
    for rank in trace.ranks:
        np.testing.assert_allclose(
            analyzer.sos_series(rank), batch.sos[rank].sos
        )

    events = trace.num_events
    mean = benchmark.stats["mean"]
    # How early does the alert fire?  It completes with segment 25 of
    # 40, i.e. with ~37% of the run still ahead.
    remaining = 1.0 - (alert.segment.index + 1) / 40
    report(
        "E11_streaming_in_situ",
        [
            "Streaming (in-situ) analysis — the paper's Section III remark",
            f"  events streamed: {events}",
            f"  streaming pass: {mean * 1e3:.1f} ms "
            f"({events / mean / 1e6:.2f} M events/s)",
            f"  alert: {alert}",
            f"  raised with {100 * remaining:.0f}% of the run still ahead",
            "  SOS values identical to the post-mortem analysis (asserted)",
        ],
    )


def _dense_stream(n_invocations=120_000, inner=12):
    """Millions of synthetic events straight from NumPy tiles.

    An ``iteration { work*inner, MPI_Allreduce }`` pattern per
    invocation — the steady-state shape the vectorised chunk processor
    is built for — without paying the simulator's per-event Python
    cost to construct it.
    """
    from repro.trace.definitions import Paradigm, RegionRegistry
    from repro.trace.events import EventList

    regions = RegionRegistry()
    r_iter = regions.register("iteration")
    r_work = regions.register("work")
    r_sync = regions.register("MPI_Allreduce", paradigm=Paradigm.MPI)

    pattern = (
        [(0, r_iter)]
        + [(0, r_work), (1, r_work)] * inner
        + [(0, r_sync), (1, r_sync), (1, r_iter)]
    )
    kinds = np.tile(np.array([k for k, _ in pattern], np.uint8),
                    n_invocations)
    refs = np.tile(np.array([r for _, r in pattern], np.int32),
                   n_invocations)
    n = kinds.size
    events = EventList(
        time=np.arange(n, dtype=np.float64) * 1e-7,
        kind=kinds,
        ref=refs,
        partner=np.full(n, -1, np.int32),
        size=np.zeros(n, np.int64),
        tag=np.zeros(n, np.int32),
        value=np.zeros(n, np.float64),
    )
    return regions, events


def test_streaming_throughput(benchmark, report, bench_meta):
    """Steady-state throughput on 64k-event chunks.

    The acceptance bar for the cursor-engine PR is 5 M events/s on the
    large-chunk path; the recorded number lands in
    ``BENCH_streaming.json`` and the repo-root ``BENCH_stream.json``.
    """
    regions, events = _dense_stream()
    n = len(events)
    chunk = 65536

    def run():
        analyzer = StreamingAnalyzer(regions, 16, dominant="iteration")
        for i in range(0, n, chunk):
            analyzer.feed(0, events[i : i + chunk])
        return analyzer

    analyzer = benchmark(run)
    assert len(analyzer.segments(0)) == 120_000

    best = float(benchmark.stats.stats.min)
    throughput = n / best
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    # The repo-root BENCH_stream.json canonical copy is written by the
    # shared _bench_record fixture (one writer, two paths) — no inline
    # duplicate here, so the copies cannot drift.
    bench_meta(
        events=n,
        chunk_events=chunk,
        peak_rss_bytes=peak_rss,
        throughput_events_per_s=throughput,
    )

    report(
        "E12_streaming_throughput",
        [
            "Streaming steady state (64k-event chunks)",
            f"  events streamed: {n}",
            f"  best round: {best * 1e3:.1f} ms "
            f"({throughput / 1e6:.2f} M events/s)",
            f"  peak RSS: {peak_rss / 1e6:.0f} MB",
            "  target: >= 5 M events/s on the large-chunk path",
        ],
    )


def test_streaming_throughput_short_chunks(benchmark, report, bench_meta):
    """Steady-state throughput on 256-event chunks.

    The cost of a live feed that delivers short chunks, or of ``repro
    monitor --chunk 256``; the monitor's default feeds whole ranks (up
    to :data:`repro.trace.cursor.BATCH_EVENTS` events).
    """
    invocations = 30_000
    regions, events = _dense_stream(invocations)
    n = len(events)
    chunk = 256

    def run():
        analyzer = StreamingAnalyzer(regions, 16, dominant="iteration")
        for i in range(0, n, chunk):
            analyzer.feed(0, events[i : i + chunk])
        return analyzer

    analyzer = benchmark(run)
    assert len(analyzer.segments(0)) == invocations

    best = float(benchmark.stats.stats.min)
    throughput = n / best
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    bench_meta(
        events=n,
        chunk_events=chunk,
        peak_rss_bytes=peak_rss,
        throughput_events_per_s=throughput,
    )

    report(
        "E12_streaming_short_chunks",
        [
            "Streaming steady state (256-event chunks)",
            f"  events streamed: {n}",
            f"  best round: {best * 1e3:.1f} ms "
            f"({throughput / 1e6:.2f} M events/s)",
            f"  peak RSS: {peak_rss / 1e6:.0f} MB",
        ],
    )

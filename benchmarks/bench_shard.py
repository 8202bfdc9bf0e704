"""E14 — sharded multi-process analysis scaling study.

Generates a >= 1M-event synthetic trace, writes it to the binary
``.rpt`` format and analyzes it through the sharded engine with 1, 2,
4 and 8 worker processes (``REPRO_SHARD_WORKERS``), plus the
single-process unsharded baseline.  Three things are recorded:

* cold wall-clock per worker count (workers read only their ranks
  from disk via the chunked reader),
* the parallelizable fraction (phase-1 replay+stats time share),
  yielding an Amdahl projection for multi-core hosts,
* peak working-set bound per worker (the point of ``--max-memory-mb``).

Determinism is asserted, not assumed: every sharded run's dominant
selection and heat matrix must equal the unsharded baseline's.

Results land in ``benchmarks/results/`` and EXPERIMENTS.md (E14).
"""

import os
import time

import numpy as np
import pytest

from repro.core import analyze_trace
from repro.core.session import AnalysisSession
from repro.core.engine import BYTES_PER_EVENT, ShardEngine, plan_shards
from repro.trace import write_binary

WORKER_COUNTS = (1, 2, 4, 8)
SHARDS = 8


@pytest.fixture(scope="module")
def million_event_rpt(tmp_path_factory):
    """Synthetic trace with >= 1M events, stored as .rpt."""
    from repro.sim.workloads.synthetic import SyntheticConfig, generate

    config = SyntheticConfig(
        ranks=24,
        iterations=2000,
        base_compute=0.001,
        slow_ranks={17: 1.4},
        seed=7,
    )
    trace = generate(config)
    total = sum(len(trace.events_of(r)) for r in trace.ranks)
    assert total >= 1_000_000, f"only {total} events"
    path = tmp_path_factory.mktemp("shard_bench") / "million.rpt"
    write_binary(trace, path)
    return trace, path, total


def _timed(fn, repeats=2):
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return value, best


def test_shard_scaling(million_event_rpt, report, bench_meta):
    trace, path, total = million_event_rpt

    baseline, t_base = _timed(lambda: analyze_trace(trace))
    bench_meta(
        wall_s=t_base,
        timer="best-of-2",
        events=total,
        trace_bytes=path.stat().st_size,
    )
    base_heat, base_edges = baseline.heat_matrix(bins=128)

    # Parallelizable fraction: time phase 1 (replay + stats partials)
    # alone inside a one-shard engine, relative to the full analysis.
    def phase1_only():
        engine = ShardEngine(plan_shards(trace.event_counts()), trace)
        return engine.bootstrap()

    _, t_phase1 = _timed(phase1_only)
    p = min(t_phase1 / t_base, 0.99)

    lines = [
        f"trace: 24 ranks x 2000 iterations, {total} events "
        f"({total * BYTES_PER_EVENT / 1e6:.0f} MB est. working set)",
        f"unsharded baseline: {t_base * 1e3:.1f} ms",
        f"parallelizable phase-1 fraction: {p:.2f}",
        "",
        f"{'workers':>7} | {'cold (ms)':>10} | {'vs base':>8} | "
        f"{'Amdahl bound':>12} | identical",
    ]

    for workers in WORKER_COUNTS:
        os.environ["REPRO_SHARD_WORKERS"] = str(workers)
        try:
            def run():
                session = AnalysisSession(
                    None, source_path=path, shards=SHARDS
                )
                return session.analysis()

            result, t = _timed(run)
        finally:
            os.environ.pop("REPRO_SHARD_WORKERS", None)
        heat, edges = result.heat_matrix(bins=128)
        identical = (
            result.dominant_name == baseline.dominant_name
            and np.array_equal(edges, base_edges)
            and np.array_equal(heat, base_heat, equal_nan=True)
        )
        assert identical, f"sharded run ({workers} workers) diverged"
        amdahl = 1.0 / ((1 - p) + p / workers)
        lines.append(
            f"{workers:>7} | {t * 1e3:>10.1f} | {t_base / t:>7.2f}x | "
            f"{amdahl:>11.2f}x | yes"
        )

    cores = len(os.sched_getaffinity(0))
    lines += [
        "",
        f"host cores available: {cores}",
        "note: wall-clock speedup requires >1 core; on a single-core",
        "host the table records honest (flat) timings while the Amdahl",
        "column gives the multi-core bound from the measured fraction.",
    ]
    report("E14_shard_scaling", lines)


def test_memory_bounded_plan(million_event_rpt, report):
    """--max-memory-mb keeps the per-worker working set under budget."""
    trace, path, total = million_event_rpt
    counts = {r: len(trace.events_of(r)) for r in trace.ranks}
    lines = [f"{'budget (MB)':>11} | {'shards':>6} | {'peak shard (MB)':>15}"]
    for budget in (256, 64, 16, 8):
        plan = plan_shards(counts, max_memory_mb=budget)
        peak = plan.max_shard_bytes() / 1e6
        assert peak <= budget * 1.0 + 1e-9 or plan.num_shards == len(counts)
        lines.append(
            f"{budget:>11} | {plan.num_shards:>6} | {peak:>15.1f}"
        )
    report("E14_memory_bounds", lines)

"""E19 — vectorized simulator fast path + direct-to-v2 columnar emission.

The trace *generators* became the bottleneck once analysis went fused
(E16: 504k events analysed in ~50 ms but simulated in ~1.8 s).  This
PR rebuilds the emission pipeline:

* the engine records through the ``TraceBuilder``'s preallocated NumPy
  column buffers instead of per-event Python objects;
* declarative iteration structure (a ``Loop`` of Region / Work /
  Halo / Collective phases) lets the engine skip the generator
  protocol entirely and compute whole timestamp columns with array
  arithmetic — proven bitwise-identical to the interpreted path by
  ``tests/test_sim_sink.py`` and pinned by the golden fingerprints in
  ``tests/test_recorder_golden.py``;
* ``SimResult.write`` serialises the buffers straight into ``.rpt`` v2
  codec blobs without ever building a ``Trace``.

Acceptance target (ISSUE 9): >= 10x events/s on the W1-class workload
(16 ranks x 1500 iterations, 504k events) against the pre-PR engine,
measured best-of-3.  The asserts below double as the CI perf-smoke
throughput gate.

Results land in ``benchmarks/results/E19_sim_throughput.txt`` and
``BENCH_sim.json`` (canonical copy at the repo root).
"""

import time

from repro.sim.workloads.synthetic import SyntheticConfig, generate_result

#: Pre-PR best-of-3 generation throughput (events/s) on the same host
#: class, measured at commit fc99823 (the engine before this PR).
PRE_PR_EVENTS_PER_S = {
    "w1": 279_561,  # synthetic 16 x 1500, seed=3
    "idle_wave": 261_102,  # 64 ranks x 100 iterations
    "late_sender": 383_346,  # 12 ranks x 20 iterations, scaled run
    "serialization": 348_702,
}
W1_TARGET_SPEEDUP = 10.0
IDLE_WAVE_TARGET_SPEEDUP = 8.0
#: Fast path vs engine on the paper's Fig. 4 workload at 144 ranks.
COSMO_TARGET_SPEEDUP = 10.0
#: Floor for the general (non-fast-path) interpreter: it was rebuilt
#: too (dict dispatch, list-cursor ready queue, columnar recording)
#: and must not regress below the pre-PR engine.
GENERAL_FLOOR_EVENTS_PER_S = 250_000


def _timed(fn, repeats=3):
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return value, best


def _throughput(make_result, repeats=3):
    result, best = _timed(make_result, repeats=repeats)
    return result, best, result.events / best


def test_w1_generation_throughput(report, bench_meta):
    """The headline gate: 504k-event W1 workload, fast path, >= 10x."""
    config = SyntheticConfig(ranks=16, iterations=1500, seed=3)
    generate_result(config)  # warm-up: imports, ufunc dispatch

    result, best, events_per_s = _throughput(lambda: generate_result(config))
    assert result.events >= 500_000, f"only {result.events} events"

    baseline = PRE_PR_EVENTS_PER_S["w1"]
    speedup = events_per_s / baseline
    bench_meta(
        wall_s=best,
        timer="best-of-3",
        events=result.events,
        baseline_events_per_s=baseline,
        speedup_vs_baseline=speedup,
    )
    report(
        "E19_sim_throughput",
        [
            f"workload: synthetic 16 ranks x 1500 iterations, "
            f"{result.events} events",
            "",
            f"fast-path generation, best of 3: {best * 1e3:.1f} ms "
            f"({events_per_s / 1e6:.2f} M events/s)",
            f"pre-PR baseline: {baseline / 1e3:.0f} k events/s",
            f"speedup: {speedup:.1f}x (target >= "
            f"{W1_TARGET_SPEEDUP:.0f}x)",
        ],
    )
    assert speedup >= W1_TARGET_SPEEDUP, (
        f"fast path is only {speedup:.2f}x the pre-PR engine "
        f"({events_per_s:.0f} vs {baseline} events/s, "
        f"target {W1_TARGET_SPEEDUP}x)"
    )


def test_idle_wave_throughput(report, bench_meta):
    """Phenomenon workload on the fast path (larger rank count)."""
    from repro.sim.workloads.idle_wave import IdleWaveConfig
    from repro.sim.workloads.idle_wave import generate_result as idle_wave

    config = IdleWaveConfig(ranks=64, iterations=100, source_rank=32)
    idle_wave(config)  # warm-up

    result, best, events_per_s = _throughput(lambda: idle_wave(config))
    baseline = PRE_PR_EVENTS_PER_S["idle_wave"]
    speedup = events_per_s / baseline
    bench_meta(
        wall_s=best,
        timer="best-of-3",
        events=result.events,
        baseline_events_per_s=baseline,
        speedup_vs_baseline=speedup,
    )
    report(
        "E19_sim_idle_wave",
        [
            f"workload: idle_wave 64 ranks x 100 iterations, "
            f"{result.events} events",
            "",
            f"fast-path generation, best of 3: {best * 1e3:.1f} ms "
            f"({events_per_s / 1e6:.2f} M events/s)",
            f"speedup vs pre-PR: {speedup:.1f}x "
            f"(target >= {IDLE_WAVE_TARGET_SPEEDUP:.0f}x)",
        ],
    )
    assert speedup >= IDLE_WAVE_TARGET_SPEEDUP


def test_general_engine_throughput(report, bench_meta, monkeypatch):
    """The interpreted path (fast path disabled) must not regress."""
    monkeypatch.setenv("REPRO_SIM_NO_FASTPATH", "1")
    config = SyntheticConfig(ranks=16, iterations=1500, seed=3)
    generate_result(config)  # warm-up

    result, best, events_per_s = _throughput(lambda: generate_result(config))
    bench_meta(
        wall_s=best,
        timer="best-of-3",
        events=result.events,
        floor_events_per_s=GENERAL_FLOOR_EVENTS_PER_S,
    )
    report(
        "E19_sim_general_engine",
        [
            f"workload: synthetic 16 ranks x 1500 iterations, "
            f"{result.events} events (REPRO_SIM_NO_FASTPATH=1)",
            "",
            f"general-engine generation, best of 3: {best * 1e3:.1f} ms "
            f"({events_per_s / 1e3:.0f} k events/s)",
            f"floor: {GENERAL_FLOOR_EVENTS_PER_S / 1e3:.0f} k events/s "
            f"(pre-PR engine: "
            f"{PRE_PR_EVENTS_PER_S['w1'] / 1e3:.0f} k events/s)",
        ],
    )
    assert events_per_s >= GENERAL_FLOOR_EVENTS_PER_S, (
        f"general engine fell to {events_per_s:.0f} events/s "
        f"(floor {GENERAL_FLOOR_EVENTS_PER_S})"
    )


def test_cosmo_specs_generation(report, bench_meta, monkeypatch):
    """COSMO-SPECS 144 x 60 (jitter, 2-D halos, three collectives per
    step): the fast path must hold >= 10x the engine's events/s."""
    from repro.sim.workloads.cosmo_specs import CosmoSpecsConfig
    from repro.sim.workloads.cosmo_specs import generate_result as cosmo

    config = CosmoSpecsConfig(px=12, py=12, iterations=60, seed=7)
    cosmo(config)  # warm-up

    result, best, events_per_s = _throughput(lambda: cosmo(config))
    monkeypatch.setenv("REPRO_SIM_NO_FASTPATH", "1")
    engine, engine_s = _timed(lambda: cosmo(config), repeats=1)
    assert engine.events == result.events
    engine_events_per_s = engine.events / engine_s
    speedup = events_per_s / engine_events_per_s
    bench_meta(
        wall_s=best,
        timer="best-of-3 (fast path); one run (engine)",
        events=result.events,
        engine_wall_s=engine_s,
        engine_events_per_s=engine_events_per_s,
        speedup_vs_engine=speedup,
    )
    report(
        "E19_sim_cosmo_specs",
        [
            f"workload: cosmo_specs 144 ranks x 60 iterations, seed 7, "
            f"{result.events} events",
            "",
            f"fast-path generation, best of 3: {best * 1e3:.1f} ms "
            f"({events_per_s / 1e6:.2f} M events/s)",
            f"engine (REPRO_SIM_NO_FASTPATH=1), one run: "
            f"{engine_s * 1e3:.0f} ms ({engine_events_per_s / 1e3:.0f} k events/s)",
            f"speedup: {speedup:.1f}x (target >= {COSMO_TARGET_SPEEDUP:.0f}x)",
        ],
    )
    assert speedup >= COSMO_TARGET_SPEEDUP, (
        f"fast path is only {speedup:.2f}x the engine on cosmo_specs "
        f"({events_per_s:.0f} vs {engine_events_per_s:.0f} events/s)"
    )


def test_direct_write_throughput(tmp_path, report, bench_meta):
    """Column buffers straight to .rpt v2 — no Trace, no EventLists."""
    config = SyntheticConfig(ranks=16, iterations=1500, seed=3)
    result = generate_result(config)
    path = tmp_path / "w1.rpt"

    total, best = _timed(lambda: result.write(path, codec="raw"))
    events_per_s = result.events / best
    bench_meta(
        wall_s=best,
        timer="best-of-3",
        events=result.events,
        trace_bytes=total,
        bytes_per_s=total / best,
    )
    report(
        "E19_sim_direct_write",
        [
            f"workload: {result.events} events, {total / 1e6:.1f} MB v2/raw",
            "",
            f"direct columnar write, best of 3: {best * 1e3:.1f} ms "
            f"({total / best / 1e6:.0f} MB/s, "
            f"{events_per_s / 1e6:.2f} M events/s)",
        ],
    )


def test_congestion_generation(report, bench_meta):
    """Topology + per-link queueing workload (general path, no gate —
    first measurement of the new congestion model)."""
    from repro.sim.workloads.congestion import CongestionConfig
    from repro.sim.workloads.congestion import generate_result as congestion

    config = CongestionConfig(ranks=64, iterations=30)
    congestion(config)  # warm-up

    result, best, events_per_s = _throughput(lambda: congestion(config))
    bench_meta(wall_s=best, timer="best-of-3", events=result.events)
    report(
        "E19_sim_congestion",
        [
            f"workload: congestion incast 64 ranks x 30 iterations "
            f"(fat-tree, per-link queueing), {result.events} events",
            "",
            f"generation, best of 3: {best * 1e3:.1f} ms "
            f"({events_per_s / 1e3:.0f} k events/s)",
        ],
    )

"""E-session — AnalysisSession caching.

Measures what the session refactor buys on the two heavyweight case
studies (W1 = COSMO-SPECS at 100 ranks, W2 = WRF at 64 ranks):

* cold analysis (empty disk cache) vs warm analysis (all artifacts
  present) — the warm path must perform zero replay/profile
  recomputation and be substantially faster,
* in-session refinement cost (``refined()`` as a pure cache hit).

Timings and speedups land in ``benchmarks/results/`` and are copied
into EXPERIMENTS.md.
"""

import shutil
import time

from repro.core import AnalysisSession


def _timed(fn, repeats=3):
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return value, best


def _cold_vs_warm(trace, cache_root):
    """One cold run filling the cache, then timed warm sessions."""
    shutil.rmtree(cache_root, ignore_errors=True)

    def cold():
        shutil.rmtree(cache_root, ignore_errors=True)
        return AnalysisSession(trace, cache_dir=cache_root).analysis()

    _, t_cold = _timed(cold)

    warm_session = None

    def warm():
        nonlocal warm_session
        warm_session = AnalysisSession(trace, cache_dir=cache_root)
        return warm_session.analysis()

    _, t_warm = _timed(warm)
    assert warm_session.stats.total_computed("replay") == 0
    assert warm_session.stats.total_computed("stats") == 0
    assert warm_session.stats.total_computed("sos") == 0
    return t_cold, t_warm


def _refinement_cost(trace):
    session = AnalysisSession(trace)
    analysis, t_first = _timed(lambda: session.analysis(), repeats=1)
    if len(analysis.selection.candidates) < 2:
        return t_first, float("nan")
    _, t_refine = _timed(lambda: analysis.refined())
    return t_first, t_refine


def _workload_lines(name, trace, tmp_root):
    t_cold, t_warm = _cold_vs_warm(trace, tmp_root / f"{name}-cache")
    t_first, t_refine = _refinement_cost(trace)
    return [
        f"{name}: {trace.num_processes} ranks, {trace.num_events} events",
        f"  cold analysis (empty cache):   {t_cold * 1e3:8.1f} ms",
        f"  warm analysis (disk cache):    {t_warm * 1e3:8.1f} ms"
        f"   ({t_cold / t_warm:4.1f}x speedup, zero recomputation)",
        f"  first in-session analysis:     {t_first * 1e3:8.1f} ms",
        f"  refined() (session cache hit): {t_refine * 1e3:8.1f} ms",
        "",
    ]


def test_session_cache_speedups(
    benchmark, report, bench_meta, cosmo_trace, wrf_trace, tmp_path_factory
):
    tmp_root = tmp_path_factory.mktemp("session-bench")
    bench_meta(events=cosmo_trace.num_events)
    lines = ["Session caching — cold vs warm", ""]
    lines += _workload_lines("W1 cosmo_specs", cosmo_trace, tmp_root)
    lines += _workload_lines("W2 wrf", wrf_trace, tmp_root)

    # The benchmarked statement: a fully warm session analysis on W1.
    cache = tmp_root / "W1 cosmo_specs-cache"
    benchmark.pedantic(
        lambda: AnalysisSession(cosmo_trace, cache_dir=cache).analysis(),
        rounds=3,
        iterations=1,
    )
    report("Esession_cache", lines)

"""E6 — Figure 6: WRF floating-point-exception case study.

Regenerates all three panels: (a) the ~11 s init phase and ~25% MPI
share during iterations, (b) the SOS heat map flagging rank 39 and
(c) the FPU-exception counter whose per-rank pattern matches the SOS
analysis.  Benchmarks the counter heat-map binning.
"""

import numpy as np

from repro.core.metrics import (
    binned_metric_matrix,
    metric_sos_correlation,
    per_rank_metric_total,
)
from repro.profiles import profile_trace, replay_trace
from repro.sim.countermodel import FPU_EXCEPTIONS


def test_fig6_wrf(benchmark, report, bench_meta, wrf_trace, wrf_analysis):
    bench_meta(events=wrf_trace.num_events)
    matrix, _edges = benchmark(
        binned_metric_matrix, wrf_trace, FPU_EXCEPTIONS, bins=512
    )
    assert matrix.shape[0] == 64

    stats = profile_trace(wrf_trace, replay_trace(wrf_trace)).stats
    init_seconds = stats.of("wrf_init").inclusive_max
    iters_start = wrf_analysis.segmentation.t_min
    mpi_share = wrf_analysis.profile.mpi_fraction(
        iters_start, wrf_trace.t_max
    )
    hot = wrf_analysis.hot_ranks()
    fpu = per_rank_metric_total(wrf_trace, FPU_EXCEPTIONS)
    sos = wrf_analysis.sos.per_rank_total()
    corr = metric_sos_correlation(fpu, sos)

    assert hot == [39]

    lines = [
        "Figure 6a — timeline structure",
        f"  init + I/O phase: {init_seconds:.1f} s (paper: about 11 s)",
        f"  MPI share during iterations: {100 * mpi_share:.1f}% "
        "(paper: 25%)",
        "",
        "Figure 6b — SOS heat map findings",
        f"  flagged ranks: {hot} (paper: Process 39)",
        f"  rank 39 SOS total: {sos[39]:.2f} s vs median "
        f"{np.median(sos):.2f} s",
        "",
        "Figure 6c — FR_FPU_EXCEPTIONS_SSE_MICROTRAPS",
        f"  max counter on rank: {int(np.argmax(fpu))} "
        f"({fpu.max():.3e} exceptions)",
        f"  next-highest rank total: {np.sort(fpu)[-2]:.3e}",
        f"  per-rank correlation counter vs SOS: r = {corr:.4f} "
        "(paper: 'perfectly match')",
        "",
        f"trace: {wrf_trace.num_processes} processes, "
        f"{wrf_trace.num_events} events, {wrf_trace.duration:.1f} s",
    ]
    report("E6_fig6_wrf", lines)

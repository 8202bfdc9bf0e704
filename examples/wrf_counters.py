"""Case study C: WRF floating-point exceptions (Section VII-C, Fig 6).

Simulates the WRF 12km CONUS stand-in on 64 MPI processes: ~11 s of
init + I/O, then iterations with ~25% MPI share caused by rank 39
computing slower under a storm of SSE floating-point exception
microtraps.  Shows how the SOS heat map (Fig 6b) and the hardware
counter heat map (Fig 6c) tell the same story.

Run::

    python examples/wrf_counters.py
"""

from pathlib import Path

import numpy as np

from repro.core import analyze_trace
from repro.core.metrics import (
    binned_metric_matrix,
    metric_sos_correlation,
    per_rank_metric_total,
)
from repro.sim.countermodel import FPU_EXCEPTIONS
from repro.sim.workloads import wrf
from repro.viz import heat_to_ansi, render_analysis

OUT = Path(__file__).parent / "output" / "wrf"


def main() -> None:
    print("simulating WRF 12km CONUS (64 ranks, 40 timesteps)...")
    trace = wrf.generate()
    print(f"  {trace.num_events} events, {trace.duration:.1f}s simulated\n")

    # --- Fig 6a: run structure -----------------------------------------
    analysis = analyze_trace(trace)
    stats = analysis.profile.stats
    print(f"init + I/O phase: {stats.of('wrf_init').inclusive_max:.1f} s "
          "(paper: ~11 s)")
    mpi = analysis.profile.mpi_fraction(
        analysis.segmentation.t_min, trace.t_max
    )
    print(f"MPI share during iterations: {100 * mpi:.1f}% (paper: 25%)\n")

    # --- Fig 6b: SOS analysis -------------------------------------------
    print(analysis.report())
    print(f"\nflagged ranks: {analysis.hot_ranks()} (paper: Process 39)")

    # --- Fig 6c: the counter confirms the root cause ---------------------
    fpu = per_rank_metric_total(trace, FPU_EXCEPTIONS)
    sos = analysis.sos.per_rank_total()
    corr = metric_sos_correlation(fpu, sos)
    print(f"\n{FPU_EXCEPTIONS}:")
    print(f"  rank with most exceptions: {int(np.argmax(fpu))} "
          f"({fpu.max():.2e} total)")
    print(f"  correlation with per-rank SOS: r = {corr:.4f} "
          "(paper: 'perfectly match')")

    matrix, _ = binned_metric_matrix(trace, FPU_EXCEPTIONS, bins=100)
    print("\ncounter heat map (exceptions/s per rank over time, Fig 6c):")
    print(heat_to_ansi(matrix, row_labels=trace.ranks, max_rows=20))

    written = render_analysis(analysis, OUT)
    print("\nrendered views (incl. the Fig 6c counter chart):")
    for name, path in written.items():
        print(f"  {name}: {path}")


if __name__ == "__main__":
    main()

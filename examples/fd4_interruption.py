"""Case study B: COSMO-SPECS+FD4 process interruption (Section VII-B, Fig 5).

Simulates the dynamically load-balanced weather code on 200 MPI
processes and reproduces the paper's drill-down workflow:

1. the coarse analysis flags a single iteration on rank 20 (Fig 5b);
2. refining the dominant function ("choosing a function with a smaller
   inclusive time") isolates the one interrupted invocation (Fig 5c);
3. PAPI_TOT_CYC confirms the OS interruption: the invocation burned
   far fewer cycles per second of wall time than its peers.

Also demonstrates trace zooming: the slow iteration is clipped out and
rendered on its own, like the paper's second measurement run that kept
only slow iterations.

Run::

    python examples/fd4_interruption.py
"""

from pathlib import Path

import numpy as np

from repro.core import analyze_trace
from repro.core.metrics import segment_metric_delta
from repro.profiles import replay_trace
from repro.sim.countermodel import PAPI_TOT_CYC
from repro.sim.workloads import cosmo_specs_fd4
from repro.trace import clip_trace
from repro.viz import render_analysis, render_timeline_png

OUT = Path(__file__).parent / "output" / "fd4"


def main() -> None:
    print("simulating COSMO-SPECS+FD4 (200 ranks, dynamic balancing)...")
    result = cosmo_specs_fd4.generate_result()
    trace = result.trace
    print(f"  {trace.num_events} events; balanced compute imbalance "
          f"{trace.attributes['mean_balanced_imbalance']}\n")

    # --- coarse pass (Fig 5b) ------------------------------------------
    analysis = analyze_trace(trace)
    coarse_hot = analysis.imbalance.hottest_segment()
    print(f"coarse segmentation by {analysis.dominant_name!r}:")
    print(f"  hottest segment: rank {coarse_hot.rank}, iteration "
          f"{coarse_hot.segment_index} "
          f"[{coarse_hot.t_start:.3f}s, {coarse_hot.t_stop:.3f}s]")
    print(f"  -> paper: 'a high SOS-time for Process 20'\n")

    # --- refinement (Fig 5c) ------------------------------------------
    fine = analysis.at_function("specs_timestep")
    fine_hot = fine.imbalance.hottest_segment()
    print("finer segmentation by 'specs_timestep':")
    print(f"  hottest invocation: rank {fine_hot.rank}, invocation "
          f"{fine_hot.segment_index}, SOS {fine_hot.sos * 1e3:.1f} ms "
          f"(anomaly score {fine_hot.score:.0f})")

    # --- PAPI_TOT_CYC root-cause confirmation ---------------------------
    deltas = segment_metric_delta(trace, PAPI_TOT_CYC, fine.segmentation)
    row = fine.sos.ranks.index(fine_hot.rank)
    durations = fine.segmentation[fine_hot.rank].duration
    with np.errstate(invalid="ignore"):
        rates = deltas[row] / durations
    hot_rate = rates[fine_hot.segment_index]
    typical = float(np.nanmedian(np.delete(rates, fine_hot.segment_index)))
    print("\nPAPI_TOT_CYC rate of that invocation vs its peers:")
    print(f"  interrupted: {hot_rate:.3e} cycles/s")
    print(f"  typical:     {typical:.3e} cycles/s")
    print(f"  -> the process was interrupted (wall time without cycles);")
    print("     paper attributes it to operating-system influence.\n")

    # --- zoom into the slow iteration, like the paper's Figure 5a ------
    pad = (coarse_hot.t_stop - coarse_hot.t_start) * 0.1
    zoom = clip_trace(
        trace, coarse_hot.t_start - pad, coarse_hot.t_stop + pad,
        name="slow iteration",
    )
    OUT.mkdir(parents=True, exist_ok=True)
    render_timeline_png(zoom, replay_trace(zoom),
                        OUT / "slow_iteration_timeline.png",
                        show_messages=True, max_messages=800)
    print(f"zoomed timeline: {OUT / 'slow_iteration_timeline.png'}")

    written = render_analysis(fine, OUT, bins=512)
    print("fine-grained views:")
    for name, path in written.items():
        print(f"  {name}: {path}")


if __name__ == "__main__":
    main()

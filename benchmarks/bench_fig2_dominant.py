"""E2 — Figure 2: time-dominant function identification.

Regenerates the paper's selection example (``main`` wins on inclusive
time but fails the 2p invocation criterion; ``a`` is dominant) and
benchmarks the selection on the full COSMO-SPECS trace.
"""

from repro.core import select_dominant
from repro.paper import figure2_trace
from repro.profiles import profile_trace, replay_trace


def test_fig2_dominant_selection(benchmark, report, cosmo_trace, cosmo_analysis):
    profile = cosmo_analysis.profile
    selection = benchmark(
        select_dominant, cosmo_trace, stats=profile.stats, tables=profile.tables
    )
    assert selection.name == "timeloop_iteration"

    fig2 = figure2_trace()
    stats = profile_trace(fig2, replay_trace(fig2)).stats
    toy = select_dominant(fig2, tables=replay_trace(fig2))
    assert toy.name == "a"

    lines = [
        "Figure 2 — dominant-function selection (3 processes, 2p = 6)",
        f"{'function':<10}{'incl':>8}{'count':>8}   eligible?",
    ]
    for name in ("main", "i", "a", "b", "c"):
        row = stats.of(name)
        eligible = "yes" if row.count >= 6 else "no (count < 2p)"
        marker = "  <- dominant" if name == toy.name else ""
        lines.append(
            f"{name:<10}{row.inclusive_sum:>8g}{row.count:>8}   {eligible}{marker}"
        )
    lines += [
        "",
        "paper: main has aggregated inclusive time 54 but only 3",
        "invocations; a (36 time steps, 9 invocations) is dominant.",
        "",
        "benchmark payload: selection over the COSMO-SPECS trace; "
        f"selected {selection.name!r} from "
        f"{len(selection.candidates)} candidates",
    ]
    report("E2_fig2_dominant_function", lines)

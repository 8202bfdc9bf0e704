"""E1 — Figure 1: inclusive vs. exclusive time.

Regenerates the paper's definitional example (``foo`` inclusive 6,
exclusive 4) and benchmarks the profiling substrate that computes
those quantities at scale.
"""


from repro.paper import figure1_trace
from repro.profiles import profile_trace, replay_trace


def test_fig1_inclusive_exclusive(benchmark, report, bench_meta, cosmo_trace):
    profile = benchmark(lambda: profile_trace(cosmo_trace, replay_trace(cosmo_trace)))
    bench_meta(events=cosmo_trace.num_events)

    trace = figure1_trace()
    fig1 = profile_trace(trace, replay_trace(trace))
    foo = fig1.stats.of("foo")
    bar = fig1.stats.of("bar")
    assert foo.inclusive_sum == 6.0 and foo.exclusive_sum == 4.0

    report(
        "E1_fig1_inclusive_exclusive",
        [
            "Figure 1 — inclusive vs. exclusive time of one invocation",
            f"{'function':<10}{'inclusive':>12}{'exclusive':>12}   paper",
            f"{'foo':<10}{foo.inclusive_sum:>12g}{foo.exclusive_sum:>12g}"
            "   incl=6, excl=4",
            f"{'bar':<10}{bar.inclusive_sum:>12g}{bar.exclusive_sum:>12g}"
            "   incl=2 (sub-call)",
            "",
            "benchmark payload: full profile of the COSMO-SPECS trace "
            f"({cosmo_trace.num_events} events, "
            f"{cosmo_trace.num_processes} processes)",
        ],
    )

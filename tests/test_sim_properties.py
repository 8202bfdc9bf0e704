"""Property-based tests of the simulator engine.

Random SPMD programs are generated from a small op grammar; for every
program the engine must produce a well-formed trace with physically
sensible timings (no rank finishes before its own compute time;
collectives synchronise; message counts are conserved).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import analyze_trace
from repro.profiles import profile_trace, replay_trace
from repro.sim import ops
from repro.sim.engine import simulate
from repro.sim.network import NetworkModel
from repro.lint import lint_trace, validate_config
from repro.trace.events import EventKind

NET = NetworkModel(latency=1e-4, bandwidth=1e8, eager_threshold=4096)


@st.composite
def spmd_program(draw):
    """A random SPMD iteration body shared by all ranks.

    Each element is one phase of the iteration; all ranks execute the
    same sequence (with rank-dependent compute times), which guarantees
    deadlock freedom for the blocking collectives.
    """
    phases = draw(
        st.lists(
            st.sampled_from(
                ["compute", "barrier", "allreduce", "ring", "bcast", "elapse"]
            ),
            min_size=1,
            max_size=6,
        )
    )
    iterations = draw(st.integers(min_value=1, max_value=4))
    compute_scale = draw(st.floats(min_value=1e-4, max_value=1e-2))
    return phases, iterations, compute_scale


def build_program(phases, iterations, compute_scale):
    def program(rank, size):
        yield ops.Enter("main")
        for it in range(iterations):
            yield ops.Enter("iteration")
            for p, phase in enumerate(phases):
                if phase == "compute":
                    yield ops.Compute(
                        compute_scale * (1 + 0.3 * rank), region="work"
                    )
                elif phase == "barrier":
                    yield ops.Barrier()
                elif phase == "allreduce":
                    yield ops.Allreduce(size=64)
                elif phase == "bcast":
                    yield ops.Bcast(size=128)
                elif phase == "elapse":
                    yield ops.Elapse(compute_scale / 2)
                elif phase == "ring":
                    left = (rank - 1) % size
                    right = (rank + 1) % size
                    r = yield ops.Irecv(left, size=256, tag=it * 16 + p)
                    yield ops.Send(right, size=256, tag=it * 16 + p)
                    yield ops.Wait(r)
            yield ops.Leave("iteration")
        yield ops.Leave("main")

    return program


@given(spmd_program(), st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_random_spmd_programs_produce_valid_traces(spec, size):
    phases, iterations, compute_scale = spec
    result = simulate(size, build_program(*spec), network=NET)
    trace = result.trace
    assert lint_trace(trace, config=validate_config()).ok

    # Physical sanity: every rank's end time covers its own compute.
    own_compute = {
        rank: compute_scale * (1 + 0.3 * rank)
        * phases.count("compute") * iterations
        + (compute_scale / 2) * phases.count("elapse") * iterations
        for rank in range(size)
    }
    for rank, end in result.end_times.items():
        assert end >= own_compute[rank] - 1e-12

    # Synchronising phases: if any collective is present and size > 1,
    # all ranks must cover the *slowest* rank's compute time.
    has_sync = any(p in ("barrier", "allreduce", "bcast") for p in phases)
    if has_sync and size > 1 and "compute" in phases:
        slowest = max(own_compute.values())
        sync_positions = [
            i for i, p in enumerate(phases)
            if p in ("barrier", "allreduce", "bcast")
        ]
        compute_positions = [i for i, p in enumerate(phases) if p == "compute"]
        # Only guaranteed when a sync phase follows the last compute of
        # the last iteration... a final collective is enough:
        if sync_positions and sync_positions[-1] > compute_positions[-1]:
            for end in result.end_times.values():
                assert end >= slowest - 1e-12

    # Message conservation: every SEND has a matching RECV.
    sends = recvs = 0
    for rank in trace.ranks:
        ev = trace.events_of(rank)
        sends += int(np.count_nonzero(ev.kind == EventKind.SEND))
        recvs += int(np.count_nonzero(ev.kind == EventKind.RECV))
    assert sends == recvs
    expected = phases.count("ring") * iterations * size
    assert sends == expected


@given(spmd_program(), st.integers(min_value=2, max_value=5))
@settings(max_examples=20, deadline=None)
def test_random_programs_are_analyzable(spec, size):
    phases, iterations, compute_scale = spec
    result = simulate(size, build_program(*spec), network=NET)
    # The iteration region always qualifies as dominant candidate when
    # it is invoked >= 2p times.
    if iterations * size >= 2 * size:
        analysis = analyze_trace(result.trace)
        assert analysis.dominant_name in ("iteration", "work", "main")
        assert analysis.segmentation.total_segments > 0


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=20))
@settings(max_examples=30, deadline=None)
def test_compute_only_program_timing_exact(size, n_ops):
    """Without communication, end time equals the sum of computes."""

    def program(rank, size_):
        yield ops.Enter("main")
        for i in range(n_ops):
            yield ops.Compute(0.001 * (i + 1))
        yield ops.Leave("main")

    result = simulate(size, program)
    expected = 0.001 * n_ops * (n_ops + 1) / 2
    for end in result.end_times.values():
        assert end == pytest.approx(expected)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=4))
@settings(max_examples=25, deadline=None)
def test_inclusive_time_conservation(size, extra):
    """main's inclusive time equals the rank's end time; the total
    exclusive time across regions equals total inclusive of main."""

    def program(rank, size_):
        yield ops.Enter("main")
        yield ops.Compute(0.01, region="a")
        for _ in range(extra):
            yield ops.Compute(0.002, region="b")
        yield ops.Barrier()
        yield ops.Leave("main")

    result = simulate(size, program, network=NET)
    profile = profile_trace(result.trace, replay_trace(result.trace))
    main_incl = profile.stats.of("main").inclusive_sum
    total_excl = float(profile.stats.exclusive_sum.sum())
    assert main_incl == pytest.approx(total_excl)
    assert main_incl == pytest.approx(sum(result.end_times.values()))

"""Shared fixtures: paper figure traces and scaled-down workload runs.

Expensive simulations (the three case studies at published scale) are
session-scoped so the whole suite pays for them once; unit tests use
small hand-built traces instead.
"""

from __future__ import annotations

import os

import pytest

# The scenario oracle's shared assertions report like the tests' own.
pytest.register_assert_rewrite("scenario_oracle")

from repro.paper import figure1_trace, figure2_trace, figure3_trace
from repro.trace.builder import TraceBuilder
from repro.trace.definitions import Paradigm

# Shared hypothesis settings profiles.  ``ci`` bounds example counts
# and disables per-example deadlines (shared runners have noisy
# clocks); ``dev`` is a fast local loop; ``thorough`` is for manual
# deep runs.  Select with HYPOTHESIS_PROFILE=<name>; per-test
# @settings(...) decorators still override profile values.
try:
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "ci",
        max_examples=25,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile("dev", max_examples=10, deadline=None)
    settings.register_profile("thorough", max_examples=400, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
except ImportError:  # pragma: no cover - hypothesis is optional
    pass


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="regenerate the golden analysis snapshots under tests/golden/ "
        "instead of comparing against them",
    )
    parser.addoption(
        "--fuzz-seed", type=int, default=0,
        help="first seed of the fuzz-marked tests' scenario window (default 0)",
    )
    parser.addoption(
        "--fuzz-runs", type=int, default=10,
        help="number of seeds in that window (default 10)",
    )


def pytest_generate_tests(metafunc):
    """A test that takes ``fuzz_seed`` runs once per seed of the window
    ``--fuzz-seed`` .. ``--fuzz-seed + --fuzz-runs - 1``."""
    if "fuzz_seed" in metafunc.fixturenames:
        seed = metafunc.config.getoption("--fuzz-seed")
        runs = metafunc.config.getoption("--fuzz-runs")
        if runs < 1:
            raise pytest.UsageError("--fuzz-runs must be at least 1")
        metafunc.parametrize("fuzz_seed", range(seed, seed + runs))


@pytest.fixture()
def update_goldens(request):
    return request.config.getoption("--update-goldens")


@pytest.fixture()
def fig1():
    return figure1_trace()


@pytest.fixture()
def fig2():
    return figure2_trace()


@pytest.fixture()
def fig3():
    return figure3_trace()


@pytest.fixture()
def tiny_trace():
    """Two processes, two iterations with MPI waits, one metric."""
    tb = TraceBuilder(name="tiny")
    tb.region("main")
    tb.region("iter")
    tb.region("calc")
    tb.region("MPI_Barrier", paradigm=Paradigm.MPI)
    tb.metric("CYC")
    for rank, calc in ((0, 3.0), (1, 1.0)):
        p = tb.process(rank)
        p.enter(0.0, "main")
        for it in range(2):
            t0 = it * 4.0
            p.enter(t0, "iter")
            p.call(t0, t0 + calc, "calc")
            p.metric(t0 + calc, "CYC", (it + 1) * calc * 1e9)
            p.call(t0 + calc, t0 + 4.0, "MPI_Barrier")
            p.leave(t0 + 4.0, "iter")
        p.leave(8.0, "main")
    return tb.freeze()


@pytest.fixture(scope="session")
def cosmo_trace():
    """Full-scale COSMO-SPECS run (100 ranks, 60 iterations)."""
    from repro.sim.workloads import cosmo_specs

    return cosmo_specs.generate(processes=100, iterations=60)


@pytest.fixture(scope="session")
def cosmo_analysis(cosmo_trace):
    from repro.core import analyze_trace

    return analyze_trace(cosmo_trace)


@pytest.fixture(scope="session")
def fd4_result():
    """Full-scale COSMO-SPECS+FD4 run (200 ranks)."""
    from repro.sim.workloads import cosmo_specs_fd4

    return cosmo_specs_fd4.generate_result()


@pytest.fixture(scope="session")
def fd4_analysis(fd4_result):
    from repro.core import analyze_trace

    return analyze_trace(fd4_result.trace)


@pytest.fixture(scope="session")
def wrf_trace():
    """Full-scale WRF run (64 ranks, 40 iterations)."""
    from repro.sim.workloads import wrf

    return wrf.generate(processes=64, iterations=40)


@pytest.fixture(scope="session")
def wrf_analysis(wrf_trace):
    from repro.core import analyze_trace

    return analyze_trace(wrf_trace)


@pytest.fixture(scope="session")
def small_synthetic():
    """Small synthetic run with one planted slow rank and one outlier."""
    from repro.sim.workloads.synthetic import SyntheticConfig, generate

    config = SyntheticConfig(
        ranks=8,
        iterations=12,
        base_compute=0.01,
        slow_ranks={5: 1.6},
        outliers={(2, 7): 0.05},
        seed=3,
    )
    return generate(config), config

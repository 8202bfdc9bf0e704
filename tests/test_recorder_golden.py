"""Golden fingerprints of every trace-recording path.

The simulator (fast path and general interpreter), the fuzz scenario
builder, the paper's figure traces and the measurement layer all write
through :class:`repro.trace.builder.TraceBuilder`.  This suite pins the
``fingerprint_trace`` digests — whole trace and per rank — of their
output, so a change to the recorder that alters one event, one region
id, one location name or one location group fails here.

Regenerate after an intentional change with::

    pytest tests/test_recorder_golden.py --update-goldens
"""

import json
from pathlib import Path

import pytest

from repro._record import replace
from test_sim_sink import (
    COSMO_SEEDS,
    COSMO_VARIANTS,
    PHENOMENON_CASES,
    SYNTHETIC_VARIANTS,
)

GOLDEN = Path(__file__).parent / "golden" / "recorder_fingerprints.json"


def _measured_trace():
    """Two measured processes on manual clocks: regions, counters,
    samples and a message pair."""
    from repro.measure.clock import ManualClock
    from repro.measure.measurement import Measurement

    clocks = [ManualClock(), ManualClock(0.25)]
    m = Measurement(name="measured", clock=clocks[0])
    recs = [m.process(r, clock=clocks[r]) for r in range(2)]
    for step in range(3):
        for rank, rec in enumerate(recs):
            clock = clocks[rank]
            with rec.region("step"):
                with rec.region("solve"):
                    clock.advance(0.5 + 0.125 * rank * step)
                    rec.add_counter("flops", 1e6 * (step + 1))
                rec.sample("temperature", 60.0 + step + rank, unit="C")
                if rank == 0:
                    rec.message_send(1, size=64, tag=step)
                else:
                    rec.message_recv(0, size=64, tag=step)
                clock.advance(0.0625)
    return m.finish()


def _grouped_trace():
    """Hand-built trace with two location groups and every event kind."""
    from repro.trace.builder import TraceBuilder
    from repro.trace.definitions import Paradigm

    tb = TraceBuilder(name="groups")
    tb.region("main")
    tb.region("MPI_Send", paradigm=Paradigm.MPI)
    tb.metric("bytes")
    p0 = tb.process(0, name="host:main", group="OBS")
    p1 = tb.process(1)
    for p in (p0, p1):
        p.enter(0.0, "main")
    p0.enter(0.5, "MPI_Send")
    p0.send(0.5, 1, size=16, tag=3)
    p0.leave(0.75)
    p1.recv(1.0, 0, size=16, tag=3)
    p0.metric(1.5, "bytes", 16.0)
    for p in (p0, p1):
        p.leave(2.0, "main")
    return tb.freeze()


def _cases():
    from repro import paper
    from repro.sim.fuzz import build_trace, generate_spec
    from repro.sim.workloads import cosmo_specs
    from repro.sim.workloads.synthetic import generate_result

    cases = {}
    for name, config in sorted(SYNTHETIC_VARIANTS.items()):
        for seed in (1, 2, 3):
            cases[f"synthetic/{name}/seed{seed}"] = (
                lambda c=replace(config, seed=seed): generate_result(c).trace
            )
    for name, config in sorted(COSMO_VARIANTS.items()):
        for seed in COSMO_SEEDS:
            cases[f"{name}/seed{seed}"] = (
                lambda c=replace(config, seed=seed): (
                    cosmo_specs.generate_result(c).trace
                )
            )
    for module, kwargs in PHENOMENON_CASES:
        label = module.__name__.rsplit(".", 1)[-1]
        cases[f"phenomenon/{label}"] = (
            lambda m=module, kw=kwargs: m.generate(**kw)
        )
    for seed in (0, 11, 29):
        cases[f"fuzz/{seed}"] = lambda s=seed: build_trace(generate_spec(s))
    for n in (1, 2, 3):
        cases[f"paper/figure{n}"] = getattr(paper, f"figure{n}_trace")
    cases["measure/manual-clock"] = _measured_trace
    cases["builder/groups"] = _grouped_trace
    return cases


CASES = _cases()


def _digests(trace):
    from repro.trace.fingerprint import fingerprint_trace

    fp = fingerprint_trace(trace)
    return {
        "trace": fp.hexdigest,
        "ranks": {str(rank): digest for rank, digest in fp.per_rank},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.mark.parametrize("case", sorted(CASES))
def test_recorder_fingerprint(case, golden, update_goldens):
    got = _digests(CASES[case]())
    if update_goldens:
        golden[case] = got
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    assert case in golden, f"no golden for {case}; run with --update-goldens"
    assert got["trace"] == golden[case]["trace"], (
        f"{case}: trace fingerprint changed"
    )
    assert got["ranks"] == golden[case]["ranks"]


def test_goldens_have_no_stale_cases(golden):
    assert sorted(golden) == sorted(CASES)

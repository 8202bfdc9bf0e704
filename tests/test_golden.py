"""Golden-snapshot regression suite.

Canonical traces live under ``tests/golden/`` as ``.jsonl`` files next
to an ``.expected.json`` snapshot of their full analysis.  The test
re-analyzes the *stored* trace (so reader + pipeline are both locked)
and compares a float-stable serialization against the snapshot; any
drift fails with a readable unified diff.

Regenerate after an intentional behaviour change with::

    pytest tests/test_golden.py --update-goldens

which rewrites the ``.expected.json`` files (and re-emits any missing
trace file from its in-repo generator).
"""

import difflib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core import analyze_trace
from repro.trace import read_trace, write_jsonl

GOLDEN_DIR = Path(__file__).parent / "golden"


def _tiny_trace():
    # Mirrors the conftest ``tiny_trace`` fixture: two ranks, two
    # iterations, a barrier wait and one metric — the smallest trace
    # the full pipeline analyzes end to end.
    from repro.trace.builder import TraceBuilder
    from repro.trace.definitions import Paradigm

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


def _generators():
    # figure1 is the paper's single-process call-tree illustration —
    # too degenerate for dominant-function selection, so the golden
    # set uses figure2/figure3 plus a hand-built minimal trace.
    from repro.paper import figure2_trace, figure3_trace
    from repro.sim.workloads import idle_wave, late_sender, serialization
    from repro.sim.workloads.synthetic import SyntheticConfig, generate

    return {
        "tiny": _tiny_trace,
        "figure2": figure2_trace,
        "figure3": figure3_trace,
        "synthetic_small": lambda: generate(
            SyntheticConfig(
                ranks=8,
                iterations=12,
                base_compute=0.01,
                slow_ranks={5: 1.6},
                outliers={(2, 7): 0.05},
                seed=3,
            )
        ),
        # Named phenomenon corpus (see docs/fuzzing.md): each locks the
        # analysis of one textbook inefficiency pattern.
        "idle_wave_small": lambda: idle_wave.generate(
            ranks=8, iterations=12
        ),
        "late_sender_small": lambda: late_sender.generate(
            ranks=6, iterations=12
        ),
        "serialization_small": lambda: serialization.generate(
            ranks=6, iterations=10
        ),
    }


CASES = sorted(_generators())


def _round(x):
    """Round to 12 significant digits; NaN/inf become JSON-safe tags."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(f"{x:.12g}")


def _round_list(arr):
    return [_round(v) for v in np.asarray(arr, dtype=float).ravel()]


def snapshot(analysis) -> dict:
    """Stable, human-diffable serialization of one analysis."""
    trace = analysis.trace
    stats = analysis.profile.stats
    region_names = [r.name for r in trace.regions]
    heat, edges = analysis.heat_matrix(bins=16)
    imb = analysis.imbalance
    return {
        "trace": {
            "name": trace.name,
            "ranks": list(trace.ranks),
            "regions": region_names,
            "events": int(
                sum(len(trace.events_of(r)) for r in trace.ranks)
            ),
        },
        "dominant": analysis.dominant_name,
        "profile": {
            name: {
                "count": int(stats.count[i]),
                "inclusive_sum": _round(stats.inclusive_sum[i]),
                "exclusive_sum": _round(stats.exclusive_sum[i]),
            }
            for i, name in enumerate(region_names)
        },
        "sos": {
            str(rank): _round_list(analysis.sos[rank].sos)
            for rank in analysis.sos.ranks
        },
        "segment_starts": {
            str(rank): _round_list(analysis.segmentation[rank].t_start)
            for rank in analysis.sos.ranks
        },
        "imbalance": {
            "pct": _round(imb.imbalance_pct),
            "hot_ranks": [
                {"rank": h.rank, "zscore": _round(h.zscore)}
                for h in imb.hot_ranks
            ],
            "hot_segments": [
                {
                    "rank": h.rank,
                    "segment": h.segment_index,
                    "score": _round(h.score),
                }
                for h in imb.hot_segments
            ],
        },
        "trend": {
            "slope": _round(analysis.trend.slope),
            "tau": _round(analysis.trend.tau),
            "p_value": _round(analysis.trend.p_value),
            "increasing": bool(analysis.trend.increasing),
            "decreasing": bool(analysis.trend.decreasing),
        },
        "heat": {
            "edges": _round_list(edges),
            "matrix": [_round_list(row) for row in heat],
        },
    }


def _dump(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("case", CASES)
def test_golden(case, update_goldens):
    trace_path = GOLDEN_DIR / f"{case}.jsonl"
    expected_path = GOLDEN_DIR / f"{case}.expected.json"

    if update_goldens and not trace_path.exists():
        GOLDEN_DIR.mkdir(exist_ok=True)
        write_jsonl(_generators()[case](), trace_path)

    assert trace_path.exists(), (
        f"missing golden trace {trace_path}; run with --update-goldens"
    )
    actual = _dump(snapshot(analyze_trace(read_trace(trace_path))))

    if update_goldens:
        expected_path.write_text(actual)
        return

    assert expected_path.exists(), (
        f"missing golden snapshot {expected_path}; run with --update-goldens"
    )
    expected = expected_path.read_text()
    if actual != expected:
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile=f"golden/{case}.expected.json",
                tofile="current analysis",
                n=3,
            )
        )
        pytest.fail(
            f"analysis of {case} drifted from its golden snapshot "
            f"(regenerate with --update-goldens if intentional):\n{diff}"
        )


def test_stored_traces_match_generators():
    """The stored golden traces still equal their in-repo generators.

    Guards the other direction: if a simulator or figure builder
    changes, the stored trace keeps the old analysis green — this test
    makes such drift visible instead of silent.
    """
    from repro.trace.fingerprint import fingerprint_trace

    gens = _generators()
    for case in CASES:
        trace_path = GOLDEN_DIR / f"{case}.jsonl"
        if not trace_path.exists():
            pytest.skip("golden traces not generated yet")
        stored = fingerprint_trace(read_trace(trace_path)).hexdigest
        fresh = fingerprint_trace(gens[case]()).hexdigest
        assert stored == fresh, (
            f"{case}: generator output no longer matches stored golden "
            f"trace; regenerate with --update-goldens if intentional"
        )

#!/usr/bin/env python
"""CI gate: bounded-memory analysis of a multi-million-event trace.

The memory contract (docs/streaming.md) is that peak memory follows
the rank groups ``--max-memory-mb`` sizes, rather than the trace size:
the kernel reads one rank group at a time, each rank whole, and
spills every rank's invocation table as it is built.  This script
enforces the claim end to end:

1. it synthesises a ~2M-event ``.rpt`` v2 (raw columns) trace,
2. computes an unconstrained reference analysis in-process,
3. re-runs the same analysis in a child process whose address space is
   capped with ``resource.setrlimit(RLIMIT_AS)`` just above the
   interpreter baseline plus the configured budget, under
   ``AnalysisSession(max_memory_mb=64)``,
4. fails if the child dies (OOM => MemoryError) or its result
   fingerprint drifts from the reference.

The cap leaves room for the analysis *products* (invocation tables,
profiles — proportional to the trace) but not for materialising the
full event arrays plus their working copies, which is what the
pre-cursor reader did; running the child without ``max_memory_mb``
(``--no-bound``, for tuning) exhausts the same cap.

Usage::

    PYTHONPATH=src python scripts/check_stream_memory.py
    PYTHONPATH=src python scripts/check_stream_memory.py --events 4000000
"""

from __future__ import annotations

import argparse
import hashlib
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.session import AnalysisSession  # noqa: E402
from repro.trace import write_binary  # noqa: E402
from repro.trace.definitions import (  # noqa: E402
    Location,
    Paradigm,
    RegionRegistry,
)
from repro.trace.events import EventKind, EventList  # noqa: E402
from repro.trace.trace import Trace  # noqa: E402

RANKS = 16
#: Events per dominant-function invocation in the synthetic pattern
#: (iteration { work*inner, MPI_Allreduce }) with ``inner = 12``.
_PATTERN_EVENTS = 29


def build_trace(total_events: int) -> Trace:
    """A dense steady-state trace straight from NumPy tiles."""
    regions = RegionRegistry()
    r_iter = regions.register("iteration")
    r_work = regions.register("work")
    r_sync = regions.register("MPI_Allreduce", paradigm=Paradigm.MPI)

    inner = 12
    pattern = (
        [(EventKind.ENTER, r_iter)]
        + [(EventKind.ENTER, r_work), (EventKind.LEAVE, r_work)] * inner
        + [
            (EventKind.ENTER, r_sync),
            (EventKind.LEAVE, r_sync),
            (EventKind.LEAVE, r_iter),
        ]
    )
    invocations = max(total_events // (RANKS * len(pattern)), 1)
    kinds = np.tile(
        np.array([k for k, _ in pattern], np.uint8), invocations
    )
    refs = np.tile(
        np.array([r for _, r in pattern], np.int32), invocations
    )
    n = kinds.size

    trace = Trace(regions=regions, name="stream-memory-gate")
    rng = np.random.default_rng(7)
    for rank in range(RANKS):
        # Distinct per-rank time scales keep the statistics
        # non-degenerate without per-event Python cost.
        step = 1e-7 * (1.0 + 0.01 * rank)
        times = np.arange(n, dtype=np.float64) * step
        times += float(rng.uniform(0, 1e-8))
        trace.add_process(
            Location(id=rank, name=f"rank {rank}"),
            EventList(
                time=times,
                kind=kinds.copy(),
                ref=refs.copy(),
                partner=np.full(n, -1, np.int32),
                size=np.zeros(n, np.int64),
                tag=np.zeros(n, np.int32),
                value=np.zeros(n, np.float64),
            ),
        )
    return trace


def fingerprint(analysis) -> str:
    """Stable digest over the products the differential suite pins."""
    h = hashlib.sha256()
    h.update(str(analysis.dominant_name).encode())
    for rank in analysis.sos.ranks:
        sos = analysis.sos[rank]
        for arr in (sos.duration, sos.sync_time, sos.sos):
            h.update(np.ascontiguousarray(arr).tobytes())
    heat, edges = analysis.heat_matrix(bins=64)
    h.update(np.ascontiguousarray(heat).tobytes())
    h.update(np.ascontiguousarray(edges).tobytes())
    return h.hexdigest()


def _vm_size_bytes() -> int | None:
    try:
        with open("/proc/self/status") as fp:
            for line in fp:
                if line.startswith("VmSize:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _vm_peak_bytes() -> int | None:
    try:
        with open("/proc/self/status") as fp:
            for line in fp:
                if line.startswith("VmPeak:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def run_child(args: argparse.Namespace) -> int:
    """Constrained analysis under an RLIMIT_AS cap (child process)."""
    baseline = _vm_size_bytes()
    if baseline is None:
        print("no /proc/self/status; skipping the address-space cap",
              file=sys.stderr)
    elif not args.no_cap:
        limit = baseline + args.budget_bytes
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    kwargs = {} if args.no_bound else {"max_memory_mb": 64}
    session = AnalysisSession(None, source_path=args.trace, **kwargs)
    analysis = session.analysis()
    peak = _vm_peak_bytes()
    if baseline is not None and peak is not None:
        print(
            f"child baseline {baseline >> 20} MiB, "
            f"peak {peak >> 20} MiB (+{(peak - baseline) >> 20} MiB), "
            f"cap +{args.budget_bytes >> 20} MiB",
            file=sys.stderr,
        )
    print(f"FINGERPRINT {fingerprint(analysis)}")
    return 0


def run_parent(args: argparse.Namespace) -> int:
    workdir = Path(tempfile.mkdtemp(prefix="stream-memory-gate-"))
    trace_path = workdir / "gate.rpt"
    trace = build_trace(args.events)
    n_events = trace.num_events
    write_binary(trace, trace_path, version=2, codec="raw")
    size_mb = trace_path.stat().st_size / 1e6
    print(f"trace: {n_events} events, {size_mb:.0f} MB -> {trace_path}")

    reference = fingerprint(
        AnalysisSession(None, source_path=trace_path).analysis()
    )
    print(f"reference fingerprint: {reference[:16]}...")

    env = dict(os.environ)
    env["REPRO_NO_MMAP"] = "1"  # mapped files count against RLIMIT_AS
    env["REPRO_SHARD_WORKERS"] = "1"
    env.setdefault(
        "PYTHONPATH",
        str(Path(__file__).resolve().parent.parent / "src"),
    )
    cmd = [
        sys.executable, os.fspath(Path(__file__).resolve()),
        "--child", "--trace", os.fspath(trace_path),
        "--budget-bytes", str(args.budget_bytes),
    ]
    if args.no_bound:
        cmd.append("--no-bound")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(proc.stdout)
        print(
            f"FAIL: constrained child exited {proc.returncode} "
            f"(out of memory under the {args.budget_bytes >> 20} MiB cap?)"
        )
        return 1
    lines = [
        ln for ln in proc.stdout.splitlines() if ln.startswith("FINGERPRINT ")
    ]
    if not lines:
        print(proc.stdout)
        print("FAIL: child produced no fingerprint")
        return 1
    got = lines[-1].split(None, 1)[1]
    if got != reference:
        print(f"FAIL: result drift under the memory bound\n"
              f"  reference {reference}\n  bounded   {got}")
        return 1
    print(
        f"OK: {n_events} events analyzed under --max-memory-mb 64 with a "
        f"{args.budget_bytes >> 20} MiB address-space allowance; result "
        "identical to the unconstrained run"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=2_000_000,
                        help="approximate total event count")
    parser.add_argument("--budget-bytes", type=int, default=128 << 20,
                        help="address space allowed on top of the "
                             "interpreter baseline (the bounded run "
                             "peaks ~90 MiB above it; the unbounded "
                             "reader needs ~150 MiB and trips the cap)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--trace", help=argparse.SUPPRESS)
    parser.add_argument("--no-cap", action="store_true",
                        help="child: skip setrlimit (tuning)")
    parser.add_argument("--no-bound", action="store_true",
                        help="omit max_memory_mb (demonstrates the cap "
                             "catching the unbounded reader)")
    args = parser.parse_args(argv)
    if args.child:
        return run_child(args)
    return run_parent(args)


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""CI gate: a 100 000-rank scenario generates to ``.rpt`` v2 in bounded memory.

The vectorized fast path's contract (docs/simulation.md) is that
generation cost scales with *columns*, not per-event Python objects:
timestamps are computed as whole NumPy arrays, the kind/ref/size/tag
columns are shared templates across ranks, and ``SimResult.write``
serialises the buffers straight into v2 codec blobs without ever
building a ``Trace`` or ``EventList``.  This script enforces the claim
end to end:

1. it runs a 100k-rank x 2-iteration synthetic scenario (4.8M events)
   in a child process whose address space is capped with
   ``resource.setrlimit(RLIMIT_AS)`` just above the interpreter
   baseline, and writes the result directly to ``.rpt`` v2,
2. fails if the child dies (OOM => MemoryError) or materialises a
   ``Trace`` on the way out,
3. regenerates the scenario unconstrained in the parent and fails if
   the capped child's file does not load back bitwise-identical.

A per-event object path would need hundreds of bytes per event (tens of
GiB at this scale) before even reaching the writer; the cap is sized
so only the columnar pipeline fits.

Usage::

    PYTHONPATH=src python scripts/check_sim_memory.py
    PYTHONPATH=src python scripts/check_sim_memory.py --ranks 50000
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

RANKS = 100_000
ITERATIONS = 2


def _config(args: argparse.Namespace):
    from repro.sim.workloads.synthetic import SyntheticConfig

    return SyntheticConfig(ranks=args.ranks, iterations=args.iterations)


def _vm_bytes(field: str) -> int | None:
    try:
        with open("/proc/self/status") as fp:
            for line in fp:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def run_child(args: argparse.Namespace) -> int:
    """Capped generation + direct write (child process)."""
    import numpy  # noqa: F401  (count it in the baseline)

    baseline = _vm_bytes("VmSize")
    if baseline is None:
        print("no /proc/self/status; skipping the address-space cap",
              file=sys.stderr)
    elif not args.no_cap:
        limit = baseline + args.budget_bytes
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    from repro.sim.workloads.synthetic import generate_result

    result = generate_result(_config(args))
    total = result.write(args.trace, codec="raw")
    if result._trace is not None:
        print("FAIL: the direct write path materialised a Trace")
        return 1

    peak = _vm_bytes("VmPeak")
    if baseline is not None and peak is not None:
        print(
            f"child baseline {baseline >> 20} MiB, "
            f"peak {peak >> 20} MiB (+{(peak - baseline) >> 20} MiB), "
            f"cap +{args.budget_bytes >> 20} MiB",
            file=sys.stderr,
        )
    print(f"GENERATED {result.events} {total}")
    return 0


def run_parent(args: argparse.Namespace) -> int:
    workdir = Path(tempfile.mkdtemp(prefix="sim-memory-gate-"))
    trace_path = workdir / "huge.rpt"

    env = dict(os.environ)
    env.setdefault(
        "PYTHONPATH",
        str(Path(__file__).resolve().parent.parent / "src"),
    )
    cmd = [
        sys.executable, os.fspath(Path(__file__).resolve()),
        "--child", "--trace", os.fspath(trace_path),
        "--ranks", str(args.ranks),
        "--iterations", str(args.iterations),
        "--budget-bytes", str(args.budget_bytes),
    ]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(proc.stdout)
        print(
            f"FAIL: capped child exited {proc.returncode} "
            f"(out of memory under the {args.budget_bytes >> 20} MiB cap?)"
        )
        return 1
    lines = [
        ln for ln in proc.stdout.splitlines() if ln.startswith("GENERATED ")
    ]
    if not lines:
        print(proc.stdout)
        print("FAIL: child reported no generation result")
        return 1
    events, total = (int(x) for x in lines[-1].split()[1:3])
    size = trace_path.stat().st_size
    if size != total:
        print(f"FAIL: reported {total} bytes but the file has {size}")
        return 1
    print(
        f"child wrote {events} events across {args.ranks} ranks "
        f"({size / 1e6:.0f} MB v2/raw)"
    )

    if args.no_verify:
        print("OK (verification skipped)")
        return 0

    # Unconstrained reference: same scenario through SimResult.trace,
    # fingerprinted against a full load of the capped child's file.
    from repro.sim.workloads.synthetic import generate_result
    from repro.trace.fingerprint import fingerprint_trace
    from repro.trace.reader import TraceIndex

    reference = fingerprint_trace(generate_result(_config(args)).trace)
    loaded = TraceIndex(trace_path).load()
    if loaded.num_processes != args.ranks or loaded.num_events != events:
        print(
            f"FAIL: file loads as {loaded.num_processes} ranks / "
            f"{loaded.num_events} events (expected {args.ranks} / {events})"
        )
        return 1
    got = fingerprint_trace(loaded)
    if got.hexdigest != reference.hexdigest:
        print(f"FAIL: capped generation drifted from the reference\n"
              f"  reference {reference.hexdigest}\n"
              f"  capped    {got.hexdigest}")
        return 1
    print(
        f"OK: {events} events ({args.ranks} ranks) generated and written "
        f"to v2 under a {args.budget_bytes >> 20} MiB allowance, "
        "bitwise identical to the unconstrained run"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ranks", type=int, default=RANKS)
    parser.add_argument("--iterations", type=int, default=ITERATIONS)
    parser.add_argument("--budget-bytes", type=int, default=1024 << 20,
                        help="address space allowed on top of the "
                             "interpreter baseline (the columnar run "
                             "peaks ~815 MiB above it at 100k ranks — "
                             "column matrices plus the v2 blob staging; "
                             "per-event objects would need tens of GiB)")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the parent-side fingerprint check")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--trace", help=argparse.SUPPRESS)
    parser.add_argument("--no-cap", action="store_true",
                        help="child: skip setrlimit (tuning)")
    args = parser.parse_args(argv)
    if args.child:
        return run_child(args)
    return run_parent(args)


if __name__ == "__main__":
    raise SystemExit(main())

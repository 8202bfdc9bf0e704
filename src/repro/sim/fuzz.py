"""Seeded scenario fuzzer, differential oracle and trace minimizer.

The repo computes the same analysis several ways — the staged
reference (structural lint → replay → statistics), the fused kernel
(:func:`~repro.core.fused.fused_bootstrap`, each rank whole), the
sharded session engine, and the streaming analyzer fed from a file's
cursor in chunks — over two ``.rpt`` container versions.  Their
contract is *bitwise* agreement, locked so far by differential tests
over a handful of hand-written scenarios.  This module grows the
evidence: random-but-reproducible scenarios, an oracle that runs every
engine/shard/chunk/format combination over each one, and a shrinker
that turns any divergence into a small self-contained repro.

Three pieces:

* :func:`generate_spec` — a single integer seed deterministically
  expands into a :class:`ScenarioSpec`: rank count, communication
  pattern (ring/grid/pairs/chain/token), collective mix, per-rank
  imbalance weights, clock skew, and injections drawn from the
  :mod:`repro.sim.noise` knobs (jitter, bursts, imbalance ramps,
  stragglers, scheduled interruptions).
* :func:`run_oracle` — simulates the spec and checks (a) structural
  invariants (monotone per-rank clocks, lint-clean structure,
  internally consistent statistics tables, v1/v2 fingerprint parity)
  and (b) the differential matrix: the fused kernel against the
  staged reference, the sharded session engine across shard counts ×
  container versions against the unsharded reference analysis, and
  the streaming analyzer, pinned to the reference's dominant function
  and fed from the file's cursor across chunk sizes × container
  versions, against the reference SOS-times.
* :func:`minimize` — greedy scenario shrinking (drop ranks, drop
  iterations, zero injections, simplify patterns) while a failure
  predicate holds; :func:`write_repro` persists the minimized spec,
  its trace, and a runnable reproduction script.

Everything is deterministic from the seed: same seed → same spec,
same trace bytes, same oracle verdict.
"""

from __future__ import annotations

import os
import random
import json
import tempfile
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from . import ops
from .._record import field, record, replace
from .countermodel import CounterSet
from .engine import SimResult, simulate
from .noise import (
    CompositeNoise,
    GaussianJitter,
    ImbalanceRamp,
    NoNoise,
    NoiseBursts,
    NoiseModel,
    ScheduledInterruptions,
    Straggler,
)
from .program import halo_exchange, neighbors_2d

__all__ = [
    "InjectionSpec",
    "ScenarioSpec",
    "OracleFailure",
    "OracleReport",
    "PATTERNS",
    "COLLECTIVES",
    "INJECTION_KINDS",
    "generate_spec",
    "build_program",
    "build_result",
    "build_trace",
    "run_oracle",
    "run_oracle_trace",
    "kind_preserving_predicate",
    "minimize",
    "write_repro",
    "fuzz_run",
    "ADVERSARY_KINDS",
    "ADVERSARY_EXPECT",
    "AdversarialScenario",
    "generate_adversarial",
    "build_adversarial_traces",
    "run_adversarial_oracle",
    "adversarial_run",
]

#: Deadlock-free-by-construction communication patterns.
PATTERNS = (
    "none",
    "halo_ring",
    "sendrecv_ring",
    "halo_grid",
    "pairs",
    "chain",
    "token_ring",
)

#: Collectives the generator mixes into iterations.
COLLECTIVES = (
    "none",
    "barrier",
    "allreduce",
    "bcast",
    "reduce",
    "allgather",
    "alltoall",
    "gather",
    "scatter",
)

#: Injection knobs sampled from :mod:`repro.sim.noise`.
INJECTION_KINDS = ("jitter", "burst", "ramp", "straggler", "interruption")

#: Default differential-oracle matrix axes.
SHARD_COUNTS = (1, 2, 3, 7)
CHUNK_SIZES = (1, 4096, None)  # stream cells: one event, a page, whole ranks
VERSIONS = (1, 2)


# ---------------------------------------------------------------------------
# Scenario specification
# ---------------------------------------------------------------------------


@record(frozen=True)
class InjectionSpec:
    """One sampled perturbation, mapped onto a noise model.

    ``magnitude`` is interpreted per kind: jitter sigma, burst/
    interruption duration in units of the scenario's base compute,
    ramp rate, or straggler slowdown minus one.
    """

    kind: str
    ranks: tuple[int, ...] = ()
    magnitude: float = 1.0
    t0: float = 0.0
    period: float = 1.0
    seed: int = 0

    def to_noise(self, base_compute: float) -> NoiseModel:
        if self.kind == "jitter":
            return GaussianJitter(sigma=self.magnitude, seed=self.seed)
        if self.kind == "burst":
            return NoiseBursts(
                ranks=self.ranks,
                period=self.period,
                duration=self.magnitude * base_compute,
                phase=self.t0,
                window=self.period / 4,
            )
        if self.kind == "ramp":
            return ImbalanceRamp(ranks=self.ranks, rate=self.magnitude)
        if self.kind == "straggler":
            return Straggler(ranks=self.ranks, factor=1.0 + self.magnitude)
        if self.kind == "interruption":
            return ScheduledInterruptions(
                events=tuple(
                    (rank, self.t0, self.t0 + self.period,
                     self.magnitude * base_compute)
                    for rank in self.ranks
                )
            )
        raise ValueError(f"unknown injection kind {self.kind!r}")


@record(frozen=True)
class ScenarioSpec:
    """Complete, deterministic description of one fuzzed scenario."""

    seed: int
    ranks: int
    iterations: int
    pattern: str = "halo_ring"
    collective: str = "allreduce"
    collective_every: int = 1
    base_compute: float = 0.005
    msg_bytes: int = 1024
    subiters: int = 1
    #: Per-rank multiplicative compute weight (persistent imbalance).
    imbalance: tuple[float, ...] = ()
    #: Per-rank start offset in seconds (unsynchronized clocks).
    clock_skew: tuple[float, ...] = ()
    injections: tuple[InjectionSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.ranks < 2:
            raise ValueError("scenarios need at least 2 ranks")
        if self.iterations < 1:
            raise ValueError("scenarios need at least 1 iteration")
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.collective not in COLLECTIVES:
            raise ValueError(f"unknown collective {self.collective!r}")

    # -- derived properties -------------------------------------------

    def weight(self, rank: int) -> float:
        if rank < len(self.imbalance):
            return self.imbalance[rank]
        return 1.0

    def skew(self, rank: int) -> float:
        if rank < len(self.clock_skew):
            return self.clock_skew[rank]
        return 0.0

    def size(self) -> int:
        """Scenario cost metric the minimizer shrinks: rank-iterations."""
        return self.ranks * self.iterations

    def noise_model(self) -> NoiseModel:
        models = tuple(
            inj.to_noise(self.base_compute) for inj in self.injections
        )
        if not models:
            return NoNoise()
        if len(models) == 1:
            return models[0]
        return CompositeNoise(models=models)

    def describe(self) -> str:
        extras = []
        if any(w != 1.0 for w in self.imbalance):
            extras.append("imbalance")
        if any(s > 0.0 for s in self.clock_skew):
            extras.append("skew")
        extras.extend(inj.kind for inj in self.injections)
        tail = f" +{','.join(extras)}" if extras else ""
        return (
            f"p={self.ranks} iters={self.iterations} "
            f"pattern={self.pattern} coll={self.collective}"
            f"/{self.collective_every}{tail}"
        )

    # -- serialization ------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self, default=vars, sort_keys=True)  # records: objects of fields

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        data = json.loads(text)
        data["imbalance"] = tuple(data.get("imbalance", ()))
        data["clock_skew"] = tuple(data.get("clock_skew", ()))
        data["injections"] = tuple(
            InjectionSpec(**{**inj, "ranks": tuple(inj.get("ranks", ()))})
            for inj in data.get("injections", ())
        )
        return cls(**data)


# ---------------------------------------------------------------------------
# Seeded generation
# ---------------------------------------------------------------------------


def _sample_injection(rng: random.Random, ranks: int, seed: int) -> InjectionSpec:
    kind = rng.choice(INJECTION_KINDS)
    count = rng.randint(1, max(1, ranks // 3))
    targets = tuple(sorted(rng.sample(range(ranks), count)))
    if kind == "jitter":
        return InjectionSpec(kind, magnitude=rng.uniform(0.002, 0.05),
                             seed=seed)
    if kind == "burst":
        return InjectionSpec(
            kind, ranks=targets,
            magnitude=rng.uniform(1.0, 8.0),
            t0=rng.uniform(0.0, 0.05),
            period=rng.uniform(0.02, 0.2),
        )
    if kind == "ramp":
        return InjectionSpec(kind, ranks=targets,
                             magnitude=rng.uniform(0.2, 3.0))
    if kind == "straggler":
        return InjectionSpec(kind, ranks=targets,
                             magnitude=rng.uniform(0.3, 2.5))
    return InjectionSpec(
        "interruption", ranks=targets,
        magnitude=rng.uniform(2.0, 10.0),
        t0=rng.uniform(0.0, 0.08),
        period=rng.uniform(0.01, 0.1),
    )


def generate_spec(seed: int) -> ScenarioSpec:
    """Expand ``seed`` into a scenario, fully deterministically.

    Sampling uses :class:`random.Random` (Mersenne Twister), whose
    sequences are stable across Python versions and platforms, so one
    integer pins the scenario forever.
    """
    rng = random.Random(seed * 0x9E3779B9 + 7)
    ranks = rng.randint(2, 12)
    # >= 3 iterations keeps the 2p dominant-candidate floor satisfied.
    iterations = rng.randint(3, 14)
    pattern = rng.choice(PATTERNS)
    collective = rng.choice(COLLECTIVES)
    collective_every = rng.choice((1, 1, 1, 2, 3))
    base_compute = rng.choice((0.002, 0.005, 0.01))
    msg_bytes = rng.choice((64, 1024, 8 * 1024, 128 * 1024))
    subiters = rng.choice((1, 1, 2, 3))

    imbalance: tuple[float, ...] = ()
    if rng.random() < 0.5:
        weights = [1.0] * ranks
        for _ in range(rng.randint(1, 2)):
            weights[rng.randrange(ranks)] = round(rng.uniform(1.2, 3.0), 3)
        imbalance = tuple(weights)

    clock_skew: tuple[float, ...] = ()
    if rng.random() < 0.25:
        clock_skew = tuple(
            round(rng.uniform(0.0, base_compute), 6) if rng.random() < 0.4
            else 0.0
            for _ in range(ranks)
        )

    injections = tuple(
        _sample_injection(rng, ranks, seed=seed * 31 + i)
        for i in range(rng.choice((0, 1, 1, 2)))
    )

    # A pattern-free, collective-free scenario has no inter-rank
    # coupling at all; keep at least one synchronization mechanism so
    # every scenario exercises the SOS machinery.
    if pattern == "none" and collective == "none":
        collective = "barrier"

    return ScenarioSpec(
        seed=seed,
        ranks=ranks,
        iterations=iterations,
        pattern=pattern,
        collective=collective,
        collective_every=collective_every,
        base_compute=base_compute,
        msg_bytes=msg_bytes,
        subiters=subiters,
        imbalance=imbalance,
        clock_skew=clock_skew,
        injections=injections,
    )


# ---------------------------------------------------------------------------
# Scenario → program → trace
# ---------------------------------------------------------------------------


def _grid_shape(ranks: int) -> tuple[int, int]:
    """Largest divisor pair (px, py) with px <= py for a process grid."""
    px = 1
    for d in range(2, int(ranks**0.5) + 1):
        if ranks % d == 0:
            px = d
    return px, ranks // px


def _exchange(spec: ScenarioSpec, rank: int, size: int):
    """One iteration's communication for ``rank`` (deadlock-free)."""
    bytes_ = spec.msg_bytes
    if spec.pattern == "none" or size < 2:
        return
    if spec.pattern == "halo_ring":
        left, right = (rank - 1) % size, (rank + 1) % size
        nbrs = [left, right] if left != right else [left]
        yield from halo_exchange(rank, nbrs, bytes_, tag=3, region=None)
    elif spec.pattern == "sendrecv_ring":
        left, right = (rank - 1) % size, (rank + 1) % size
        yield ops.Sendrecv(dest=right, source=left, size=bytes_, tag=4)
    elif spec.pattern == "halo_grid":
        px, py = _grid_shape(size)
        yield from halo_exchange(
            rank, neighbors_2d(rank, px, py), bytes_, tag=5, region=None
        )
    elif spec.pattern == "pairs":
        partner = rank ^ 1
        if partner < size:
            yield ops.Sendrecv(dest=partner, source=partner,
                               size=bytes_, tag=6)
    elif spec.pattern == "chain":
        if rank > 0:
            yield ops.Recv(rank - 1, size=bytes_, tag=7)
        if rank < size - 1:
            yield ops.Send(rank + 1, size=bytes_, tag=7)
    elif spec.pattern == "token_ring":
        if rank > 0:
            yield ops.Recv(rank - 1, size=bytes_, tag=8)
        yield ops.Compute(spec.base_compute / 4, region="critical_section")
        if rank < size - 1:
            yield ops.Send(rank + 1, size=bytes_, tag=8)
    else:  # pragma: no cover - guarded by ScenarioSpec validation
        raise ValueError(f"unknown pattern {spec.pattern!r}")


_COLLECTIVE_OPS = {
    "barrier": lambda: ops.Barrier(),
    "allreduce": lambda: ops.Allreduce(size=8),
    "bcast": lambda: ops.Bcast(size=256),
    "reduce": lambda: ops.Reduce(size=8),
    "allgather": lambda: ops.Allgather(size=64),
    "alltoall": lambda: ops.Alltoall(size=64),
    "gather": lambda: ops.Gather(size=64),
    "scatter": lambda: ops.Scatter(size=64),
}


def build_program(spec: ScenarioSpec):
    """Rank-program factory realizing ``spec``."""

    def program(rank: int, size: int):
        skew = spec.skew(rank)
        if skew > 0.0:
            yield ops.Elapse(skew)
        yield ops.Enter("main")
        yield ops.Compute(spec.base_compute / 4, region="setup")
        for it in range(spec.iterations):
            yield ops.Enter("iteration")
            per_sub = spec.base_compute * spec.weight(rank) / spec.subiters
            for _sub in range(spec.subiters):
                yield ops.Compute(per_sub, region="work")
            yield from _exchange(spec, rank, size)
            if (
                spec.collective != "none"
                and (it + 1) % spec.collective_every == 0
            ):
                yield _COLLECTIVE_OPS[spec.collective]()
            yield ops.Leave("iteration")
        yield ops.Leave("main")

    return program


def build_result(spec: ScenarioSpec) -> SimResult:
    """Simulate ``spec`` and return the full :class:`SimResult`."""
    return simulate(
        size=spec.ranks,
        program=build_program(spec),
        noise=spec.noise_model(),
        counters=CounterSet((CounterSet.cycles(),)),
        name=f"fuzz-{spec.seed}",
        attributes={
            "workload": "fuzz",
            "fuzz_seed": str(spec.seed),
            "pattern": spec.pattern,
        },
    )


def build_trace(spec: ScenarioSpec):
    """Simulate ``spec`` and return just the trace."""
    return build_result(spec).trace


# ---------------------------------------------------------------------------
# Differential oracle
# ---------------------------------------------------------------------------


@record(frozen=True)
class OracleFailure:
    """One divergence, crash or invariant violation."""

    cell: str
    message: str

    def __str__(self) -> str:
        return f"[{self.cell}] {self.message}"


@record
class OracleReport:
    """Verdict of one oracle run over one scenario."""

    spec: ScenarioSpec | None
    fingerprint: str = ""
    cells: int = 0
    failures: list[OracleFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def failure_kinds(self) -> frozenset[str]:
        """Cell-name prefixes of the failures (``stream``,
        ``session``, ``invariant``, ``reference``, ...)."""
        return frozenset(f.cell.split("/", 1)[0] for f in self.failures)

    def summary(self) -> str:
        head = self.spec.describe() if self.spec is not None else "corpus"
        if self.ok:
            return f"{head}: OK ({self.cells} cells)"
        lines = [f"{head}: {len(self.failures)} FAILURES"]
        lines.extend(f"  {f}" for f in self.failures[:20])
        if len(self.failures) > 20:
            lines.append(f"  ... and {len(self.failures) - 20} more")
        return "\n".join(lines)


_STAT_COLUMNS = (
    "count",
    "inclusive_sum",
    "exclusive_sum",
    "inclusive_min",
    "inclusive_max",
)
_TABLE_COLUMNS = ("region", "t_enter", "t_leave", "depth", "parent")


def _diagnostic_keys(diagnostics) -> list[tuple]:
    return [(d.rank, d.code, d.message, d.position, d.time) for d in diagnostics]


def _diff_bootstrap(reference, got) -> list[str]:
    """Compare a FusedBootstrap against reference (tables, partials, keys)."""
    tables, partials, diagnostics = reference
    out: list[str] = []
    if _diagnostic_keys(got.report.diagnostics) != diagnostics:
        out.append("diagnostics differ from the structural lint reference")
    if sorted(got.tables) != sorted(tables):
        out.append(
            f"table rank set differs: {sorted(got.tables)} vs {sorted(tables)}"
        )
        return out
    for rank in tables:
        for col in _TABLE_COLUMNS:
            if not np.array_equal(
                getattr(got.tables[rank], col), getattr(tables[rank], col)
            ):
                out.append(f"rank {rank} table column {col} differs")
        want_partial = partials[rank]
        if sorted(got.partials[rank]) != sorted(want_partial):
            out.append(f"rank {rank} partial key set differs")
            continue
        for stat, want in want_partial.items():
            if not np.array_equal(got.partials[rank][stat], want):
                out.append(f"rank {rank} partial {stat} differs")
    return out


def diff_analyses(reference, candidate) -> list[str]:
    """Bitwise comparison of two analyses; returns human-readable diffs.

    The library twin of the test suite's ``assert_identical_analysis``:
    every analysis product — dominant selection, profile statistics,
    SOS matrices, segmentation, heat map, detections, trends — must
    match exactly.
    """
    out: list[str] = []
    if candidate.dominant_name != reference.dominant_name:
        out.append(
            f"dominant differs: {candidate.dominant_name!r} "
            f"vs {reference.dominant_name!r}"
        )
    if candidate.selection.region != reference.selection.region:
        out.append("selected region id differs")
    for col in _STAT_COLUMNS:
        if not np.array_equal(
            getattr(candidate.profile.stats, col),
            getattr(reference.profile.stats, col),
        ):
            out.append(f"profile column {col} differs")
    if candidate.sos.ranks != reference.sos.ranks:
        out.append("SOS rank sets differ")
        return out
    for rank in reference.sos.ranks:
        ref, got = reference.sos[rank], candidate.sos[rank]
        for arr in ("duration", "sync_time", "sos"):
            if not np.array_equal(getattr(got, arr), getattr(ref, arr)):
                out.append(f"rank {rank} {arr} differs")
        ref_seg = reference.segmentation[rank]
        got_seg = candidate.segmentation[rank]
        for arr in ("t_start", "t_stop", "invocation_row"):
            if not np.array_equal(getattr(got_seg, arr), getattr(ref_seg, arr)):
                out.append(f"rank {rank} segment {arr} differs")
    ref_heat, ref_edges = reference.heat_matrix(bins=64)
    got_heat, got_edges = candidate.heat_matrix(bins=64)
    if not np.array_equal(got_edges, ref_edges):
        out.append("heat-map bin edges differ")
    if not np.array_equal(got_heat, ref_heat, equal_nan=True):
        out.append("heat-map matrix differs")
    ref_imb, got_imb = reference.imbalance, candidate.imbalance
    if got_imb.imbalance_pct != ref_imb.imbalance_pct:
        out.append("imbalance percentage differs")
    if [(h.rank, h.zscore) for h in got_imb.hot_ranks] != [
        (h.rank, h.zscore) for h in ref_imb.hot_ranks
    ]:
        out.append("hot-rank detections differ")
    if len(got_imb.hot_segments) != len(ref_imb.hot_segments):
        out.append("hot-segment counts differ")
    for trend_attr in ("trend", "duration_trend"):
        ref_t = getattr(reference, trend_attr)
        got_t = getattr(candidate, trend_attr)
        if got_t.slope != ref_t.slope or got_t.p_value != ref_t.p_value:
            out.append(f"{trend_attr} differs")
    return out


def _check_invariants(trace, tables, partials) -> list[OracleFailure]:
    """Structural invariants every generated trace must satisfy."""
    from ..lint import lint_trace
    from ..profiles.stats import FunctionStatistics, merge_statistics_arrays

    out: list[OracleFailure] = []
    for rank in trace.ranks:
        times = trace.events_of(rank).time
        if len(times) and np.any(np.diff(times) < 0):
            out.append(OracleFailure(
                "invariant/monotone", f"rank {rank} timestamps go backwards"
            ))
    report = lint_trace(trace)
    errors = [d for d in report.diagnostics
              if d.severity.name.lower() == "error"]
    if errors:
        out.append(OracleFailure(
            "invariant/lint",
            f"{len(errors)} lint errors, first: {errors[0].message}",
        ))
    # The generator is deadlock-free by construction, every send is
    # received, and every rank calls the same collective sequence — so
    # the cross-rank happens-before rules must never report a *defect*
    # (warning or worse: TL301-TL304) on a generated trace.  TL305 is
    # excluded on purpose: it is INFO-severity bottleneck *guidance*,
    # and scenarios with planted stragglers/noise legitimately contain
    # the wait chains it exists to attribute.
    hb_defects = [
        d for d in report.diagnostics
        if d.code.startswith("TL3")
        and d.severity.name.lower() in ("warning", "error")
    ]
    if hb_defects:
        out.append(OracleFailure(
            "invariant/hb",
            f"{len(hb_defects)} happens-before defect(s) on a "
            f"deadlock-free scenario, first: "
            f"[{hb_defects[0].code}] {hb_defects[0].message}",
        ))
    # Statistics-table consistency: partials merge to the aggregate,
    # and every aggregate row is internally coherent.
    stats = FunctionStatistics.from_partials(trace, partials)
    merged = merge_statistics_arrays(
        [partials[r] for r in sorted(partials)], len(trace.regions)
    )
    for col in _STAT_COLUMNS:
        if not np.array_equal(getattr(stats, col), merged[col]):
            out.append(OracleFailure(
                "invariant/stats", f"partial merge drifts on {col}"
            ))
    active = stats.count > 0
    if np.any(stats.count < 0):
        out.append(OracleFailure("invariant/stats", "negative counts"))
    if np.any(stats.inclusive_min[active] > stats.inclusive_max[active]):
        out.append(OracleFailure(
            "invariant/stats", "inclusive_min exceeds inclusive_max"
        ))
    tol = 1e-9 * max(1.0, float(np.abs(stats.inclusive_sum).max(initial=0.0)))
    if np.any(stats.exclusive_sum > stats.inclusive_sum + tol):
        out.append(OracleFailure(
            "invariant/stats", "exclusive_sum exceeds inclusive_sum"
        ))
    return out


@contextmanager
def _inprocess_workers():
    """Pin shard workers to 1 (in-process) unless the caller chose."""
    if os.environ.get("REPRO_SHARD_WORKERS", "").strip():
        yield
        return
    os.environ["REPRO_SHARD_WORKERS"] = "1"
    try:
        yield
    finally:
        os.environ.pop("REPRO_SHARD_WORKERS", None)


def _chunk_label(chunk: int | None) -> str:
    return "whole" if chunk is None else str(chunk)


def run_oracle_trace(
    trace,
    spec: ScenarioSpec | None = None,
    workdir: str | os.PathLike | None = None,
    shard_counts: Sequence[int] = SHARD_COUNTS,
    chunk_sizes: Sequence[int | None] = CHUNK_SIZES,
    versions: Sequence[int] = VERSIONS,
) -> OracleReport:
    """Run the full differential matrix over one trace.

    The reference products come from the staged implementations
    (``lint_trace`` with :func:`~repro.lint.validate_config`,
    ``replay_trace``, ``rank_statistics_arrays``, and the in-memory
    ``analyze_trace``);
    each matrix cell recomputes them through a different engine/IO
    combination and any byte of disagreement is a failure.
    """
    from ..core import analyze_trace
    from ..core.fused import fused_bootstrap
    from ..core.session import AnalysisSession
    from ..core.streaming import StreamingAnalyzer
    from ..lint import lint_trace, validate_config
    from ..profiles.replay import replay_trace
    from ..profiles.stats import rank_statistics_arrays
    from ..trace import write_binary
    from ..trace.fingerprint import fingerprint_trace
    from ..trace.reader import TraceIndex

    report = OracleReport(spec=spec)

    def run_cell(cell: str, fn) -> None:
        report.cells += 1
        try:
            for message in fn():
                report.failures.append(OracleFailure(cell, message))
        except Exception as err:  # noqa: BLE001 - a crash IS the finding
            detail = traceback.format_exception_only(type(err), err)[-1].strip()
            report.failures.append(OracleFailure(cell, f"crash: {detail}"))

    # Reference products (staged path + production analysis).
    try:
        reference_diagnostics = _diagnostic_keys(
            lint_trace(trace, config=validate_config()).diagnostics
        )
        reference_tables = replay_trace(trace)
        reference_partials = {
            rank: rank_statistics_arrays(
                reference_tables[rank], len(trace.regions)
            )
            for rank in trace.ranks
        }
        reference = analyze_trace(trace)
        fp = fingerprint_trace(trace)
        report.fingerprint = fp.hexdigest
    except Exception as err:  # noqa: BLE001
        detail = traceback.format_exception_only(type(err), err)[-1].strip()
        report.failures.append(OracleFailure("reference", f"crash: {detail}"))
        return report

    reference_products = (
        reference_tables, reference_partials, reference_diagnostics
    )
    report.failures.extend(
        _check_invariants(trace, reference_tables, reference_partials)
    )

    with tempfile.TemporaryDirectory() as tmp, _inprocess_workers():
        root = Path(workdir) if workdir is not None else Path(tmp)
        root.mkdir(parents=True, exist_ok=True)
        paths: dict[int, Path] = {}
        for version in versions:
            path = root / f"scenario-v{version}.rpt"
            kwargs = {"codec": "raw"} if version == 2 else {}
            write_binary(trace, path, version=version, **kwargs)
            paths[version] = path

        # Container round-trip: fingerprints must survive both formats.
        def fingerprints() -> Iterator[str]:
            for version, path in paths.items():
                index = TraceIndex(path)
                loaded = fingerprint_trace(index.load())
                if loaded.hexdigest != fp.hexdigest:
                    yield f"v{version} load changes the trace fingerprint"
                for rank in trace.ranks:
                    if index.rank_digest(rank) != fp.rank_digest(rank):
                        yield f"v{version} rank {rank} digest differs"
                        break

        run_cell("io/fingerprint", fingerprints)

        for version in versions:
            index = TraceIndex(paths[version])

            def fused_cell(index=index):
                return _diff_bootstrap(
                    reference_products, fused_bootstrap(index.load())
                )

            run_cell(f"fused/v{version}", fused_cell)

            for chunk in chunk_sizes:

                def stream_cell(index=index, chunk=chunk):
                    analyzer = StreamingAnalyzer(
                        index.regions, len(index.ranks),
                        dominant=reference.selection.region,
                    )
                    for batch in index.cursor(chunk_events=chunk):
                        analyzer.feed(batch.rank, batch.events)
                        if batch.final:
                            analyzer.finish_rank(batch.rank)
                    for rank in reference.sos.ranks:
                        if not np.array_equal(
                            analyzer.sos_series(rank), reference.sos[rank].sos
                        ):
                            yield f"rank {rank} streamed SOS differs"

                run_cell(
                    f"stream/v{version}/chunk={_chunk_label(chunk)}",
                    stream_cell,
                )

        for version in versions:
            for shards in shard_counts:

                def session_cell(version=version, shards=shards):
                    session = AnalysisSession(
                        None, source_path=paths[version], shards=shards
                    )
                    return diff_analyses(reference, session.analysis())

                run_cell(f"session/v{version}/shards={shards}", session_cell)

    return report


def run_oracle(
    spec: ScenarioSpec,
    workdir: str | os.PathLike | None = None,
    shard_counts: Sequence[int] = SHARD_COUNTS,
    chunk_sizes: Sequence[int | None] = CHUNK_SIZES,
    versions: Sequence[int] = VERSIONS,
) -> OracleReport:
    """Simulate ``spec`` and run the differential matrix on its trace."""
    try:
        trace = build_trace(spec)
    except Exception as err:  # noqa: BLE001 - generator bugs surface here
        detail = traceback.format_exception_only(type(err), err)[-1].strip()
        report = OracleReport(spec=spec)
        report.failures.append(OracleFailure("simulate", f"crash: {detail}"))
        return report
    return run_oracle_trace(
        trace,
        spec=spec,
        workdir=workdir,
        shard_counts=shard_counts,
        chunk_sizes=chunk_sizes,
        versions=versions,
    )


# ---------------------------------------------------------------------------
# Minimization
# ---------------------------------------------------------------------------


def _with_ranks(spec: ScenarioSpec, ranks: int) -> ScenarioSpec:
    """Shrink the rank count, keeping dependent fields consistent."""
    ranks = max(2, ranks)
    injections = []
    for inj in spec.injections:
        kept = tuple(r for r in inj.ranks if r < ranks)
        if inj.kind == "jitter" or kept:
            injections.append(replace(inj, ranks=kept))
    return replace(
        spec,
        ranks=ranks,
        imbalance=spec.imbalance[:ranks],
        clock_skew=spec.clock_skew[:ranks],
        injections=tuple(injections),
    )


def _shrink_candidates(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Reduction attempts, most aggressive first."""
    if spec.ranks > 2:
        yield _with_ranks(spec, spec.ranks // 2)
        yield _with_ranks(spec, spec.ranks - 1)
    if spec.iterations > 1:
        yield replace(spec, iterations=max(1, spec.iterations // 2))
        yield replace(spec, iterations=spec.iterations - 1)
    for i in range(len(spec.injections)):
        yield replace(
            spec,
            injections=spec.injections[:i] + spec.injections[i + 1:],
        )
    if any(s > 0.0 for s in spec.clock_skew):
        yield replace(spec, clock_skew=())
    if any(w != 1.0 for w in spec.imbalance):
        yield replace(spec, imbalance=())
    if spec.subiters > 1:
        yield replace(spec, subiters=1)
    if spec.collective != "none" and spec.pattern != "none":
        yield replace(spec, collective="none")
    if spec.pattern != "none" and spec.collective != "none":
        yield replace(spec, pattern="none")
    if spec.msg_bytes > 64:
        yield replace(spec, msg_bytes=64)


def minimize(
    spec: ScenarioSpec,
    still_fails: Callable[[ScenarioSpec], bool],
    max_attempts: int = 200,
) -> ScenarioSpec:
    """Greedy scenario shrinking while ``still_fails`` holds.

    Repeatedly applies the first size reduction that keeps the failure
    reproducing — halving ranks or iterations, dropping injections,
    zeroing skew/imbalance, simplifying communication — until no
    reduction reproduces or ``max_attempts`` predicate calls are spent.
    The input spec must itself fail.

    ``still_fails`` should check for the *same* failure, not just any
    failure: a naive ``not run_oracle(s).ok`` predicate lets the
    shrinker walk into scenarios that fail for unrelated reasons (e.g.
    too few iterations for the dominant-candidate floor), producing a
    "repro" that fails even on healthy engines.  Use
    :func:`kind_preserving_predicate` for the standard behaviour.
    """
    if not still_fails(spec):
        raise ValueError("minimize() requires a failing scenario")
    attempts = 1
    current = spec
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for candidate in _shrink_candidates(current):
            if candidate == current:
                continue
            attempts += 1
            if still_fails(candidate):
                current = candidate
                progress = True
                break
            if attempts >= max_attempts:
                break
    return current


def kind_preserving_predicate(
    report: OracleReport,
    **oracle_kwargs: Any,
) -> Callable[[ScenarioSpec], bool]:
    """Build a ``still_fails`` predicate that preserves the failure kind.

    Accepts a reduction only when re-running the oracle reproduces at
    least one failure whose cell-name prefix (``stream``,
    ``session``, ``invariant``, ...) already appeared in ``report``.
    This keeps :func:`minimize` from shrinking into scenarios that fail
    for an unrelated reason — e.g. dropping below the ``2p``
    dominant-candidate floor crashes the *reference* pipeline, which a
    naive ``not ok`` predicate would happily count as "still failing".
    ``oracle_kwargs`` are forwarded to :func:`run_oracle` so tests can
    minimize against a reduced matrix.
    """
    kinds = report.failure_kinds()
    if not kinds:
        raise ValueError("report has no failures to preserve")
    return lambda s: bool(
        run_oracle(s, **oracle_kwargs).failure_kinds() & kinds
    )


def write_repro(
    report: OracleReport,
    directory: str | os.PathLike,
) -> Path:
    """Persist a failing scenario as a self-contained reproduction.

    Writes three artifacts under ``directory`` — the spec + failure
    list as JSON, the generated trace as ``.jsonl``, and a runnable
    ``repro-seed<N>.py`` that rebuilds the scenario and re-runs the
    oracle — and returns the script path.
    """
    if report.spec is None:
        raise ValueError("report carries no scenario spec")
    spec = report.spec
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    base = f"repro-seed{spec.seed}"

    (directory / f"{base}.json").write_text(json.dumps(
        {
            "spec": json.loads(spec.to_json()),
            "fingerprint": report.fingerprint,
            "cells": report.cells,
            "failures": [
                {"cell": f.cell, "message": f.message}
                for f in report.failures
            ],
        },
        indent=2,
        sort_keys=True,
    ) + "\n")

    from ..trace import write_jsonl

    write_jsonl(build_trace(spec), directory / f"{base}.jsonl")

    script = directory / f"{base}.py"
    script.write_text(
        '"""Self-contained fuzz reproduction (auto-generated).\n\n'
        "Run with repro importable (e.g. PYTHONPATH=src python "
        f"{base}.py).\n"
        '"""\n\n'
        "import sys\n\n"
        "from repro.sim.fuzz import ScenarioSpec, run_oracle\n\n"
        f"SPEC = {spec.to_json()!r}\n\n"
        "spec = ScenarioSpec.from_json(SPEC)\n"
        "report = run_oracle(spec)\n"
        "print(report.summary())\n"
        "sys.exit(0 if report.ok else 1)\n"
    )
    return script


# ---------------------------------------------------------------------------
# Campaign driver (CLI backend)
# ---------------------------------------------------------------------------


def fuzz_run(
    seed: int = 0,
    runs: int = 10,
    minimize_failures: bool = True,
    corpus_dir: str | os.PathLike | None = None,
    log: Callable[[str], None] = print,
) -> list[OracleReport]:
    """Run ``runs`` scenarios from consecutive seeds; minimize failures.

    Returns the per-scenario oracle reports (for failures, the report
    of the *minimized* scenario when minimization is enabled).  Repro
    artifacts are written under ``corpus_dir`` for every failure.
    """
    reports: list[OracleReport] = []
    for offset in range(runs):
        spec = generate_spec(seed + offset)
        report = run_oracle(spec)
        if report.ok:
            log(f"seed {spec.seed}: {report.summary()}")
            reports.append(report)
            continue
        log(f"seed {spec.seed}: {report.summary()}")
        if minimize_failures:
            minimized = minimize(
                spec, kind_preserving_predicate(report)
            )
            report = run_oracle(minimized)
            if report.ok:  # flaky failure: keep the original evidence
                report = run_oracle(spec)
            log(
                f"seed {spec.seed}: minimized "
                f"{spec.size()} -> {minimized.size()} rank-iterations"
            )
        if corpus_dir is not None and report.spec is not None:
            script = write_repro(report, corpus_dir)
            log(f"seed {spec.seed}: repro written to {script}")
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# Adversarial mode: scenarios that DROP the deadlock-free guarantee
# ---------------------------------------------------------------------------

#: Defect kinds the adversarial generator plants, one per TL3xx rule.
ADVERSARY_KINDS = (
    "deadlock_cycle",
    "wildcard_race",
    "collective_drop",
    "orphan_send",
    "wait_chain",
)

#: The diagnostic each planted defect must provoke.
ADVERSARY_EXPECT = {
    "deadlock_cycle": "TL301",
    "wildcard_race": "TL302",
    "collective_drop": "TL303",
    "orphan_send": "TL304",
    "wait_chain": "TL305",
}


@record(frozen=True)
class AdversarialScenario:
    """One planted-defect scenario: a healthy baseline plus a defect.

    The baseline spec is injection-free so the full TL3xx family —
    including the INFO-severity TL305 — is provably silent on it; the
    defective trace is derived from the baseline by event mutation
    (or, for ``wait_chain``, by re-simulating with an extreme
    straggler), because the simulator itself would hang or crash on a
    genuinely deadlocking program.
    """

    seed: int
    kind: str
    expected_code: str
    spec: ScenarioSpec

    def describe(self) -> str:
        return (
            f"kind={self.kind} expect={self.expected_code} "
            f"{self.spec.describe()}"
        )


def generate_adversarial(seed: int) -> AdversarialScenario:
    """Expand ``seed`` into an adversarial scenario, deterministically.

    Kinds rotate with the seed, so any 5 consecutive seeds cover every
    TL3xx rule; sizes are sampled within bounds that keep the planted
    defect detectable.
    """
    kind = ADVERSARY_KINDS[seed % len(ADVERSARY_KINDS)]
    rng = random.Random(seed * 0x51ED2705 + 13)
    common = dict(
        seed=seed,
        iterations=rng.randint(3, 6),
        base_compute=0.005,
        msg_bytes=rng.choice((64, 1024)),
        collective="none",
    )
    if kind == "deadlock_cycle":
        spec = ScenarioSpec(pattern="pairs", ranks=rng.choice((4, 6, 8)),
                            **common)
    elif kind == "wildcard_race":
        spec = ScenarioSpec(pattern="halo_ring", ranks=rng.randint(4, 8),
                            **common)
    elif kind == "collective_drop":
        common["collective"] = "barrier"
        spec = ScenarioSpec(pattern="none", ranks=rng.randint(3, 8),
                            **common)
    elif kind == "orphan_send":
        spec = ScenarioSpec(pattern="chain", ranks=rng.randint(3, 8),
                            **common)
    else:  # wait_chain
        spec = ScenarioSpec(pattern="chain", ranks=rng.randint(5, 8),
                            **common)
    return AdversarialScenario(
        seed=seed, kind=kind, expected_code=ADVERSARY_EXPECT[kind], spec=spec
    )


def _mutate_events(trace, rank: int, fn):
    """Rebuild ``trace`` with ``rank``'s event columns transformed.

    ``fn`` receives a dict of writable column copies and returns the
    (possibly length-changed) replacement dict.  Registries and
    Location objects are shared with the source trace — only the one
    EventList is rebuilt.
    """
    from ..trace.events import _FIELDS, EventList
    from ..trace.trace import Trace

    out = Trace(
        trace.regions,
        trace.metrics,
        name=trace.name,
        attributes=dict(trace.attributes),
    )
    for proc in trace.processes():
        events = proc.events
        if proc.rank == rank:
            cols = {f: getattr(events, f).copy() for f in _FIELDS}
            cols = fn(cols)
            events = EventList(*(cols[f] for f in _FIELDS))
        out.add_process(proc.location, events)
    return out


def _plant_deadlock_cycle(trace, spec: ScenarioSpec):
    """Retag both pair partners' sends: each side's receive starves."""
    from ..trace.events import EventKind

    out = trace
    for rank in (0, 1):
        def retag(cols, _r=rank):
            send = cols["kind"] == np.uint8(EventKind.SEND)
            cols["tag"][send] = 9900
            return cols

        out = _mutate_events(out, rank, retag)
    return out


def _plant_wildcard_race(trace, spec: ScenarioSpec):
    """Turn rank 0's receives into wildcards (MPI_ANY_SOURCE)."""
    from ..trace.events import EventKind

    def wildcard(cols):
        recv = cols["kind"] == np.uint8(EventKind.RECV)
        cols["partner"][recv] = -1
        return cols

    return _mutate_events(trace, 0, wildcard)


def _plant_collective_drop(trace, spec: ScenarioSpec):
    """Delete the last rank's first collective invocation entirely."""
    from ..lint.hb import COLLECTIVE_NAMES
    from ..trace.events import EventKind

    rank = trace.ranks[-1]
    coll_ids = {
        r.id for r in trace.regions if r.name in COLLECTIVE_NAMES
    }

    def drop(cols):
        enter = np.flatnonzero(
            (cols["kind"] == np.uint8(EventKind.ENTER))
            & np.isin(cols["ref"], list(coll_ids))
        )
        if not len(enter):
            raise ValueError("scenario has no collective to drop")
        i = int(enter[0])
        leave = np.flatnonzero(
            (cols["kind"] == np.uint8(EventKind.LEAVE))
            & (cols["ref"] == cols["ref"][i])
        )
        j = int(leave[leave > i][0])
        keep = np.ones(len(cols["time"]), dtype=bool)
        keep[[i, j]] = False
        return {f: arr[keep] for f, arr in cols.items()}

    return _mutate_events(trace, rank, drop)


def _plant_orphan_send(trace, spec: ScenarioSpec):
    """Retag rank 0's first send: one orphan send, one starved recv."""
    from ..trace.events import EventKind

    def retag(cols):
        send = np.flatnonzero(cols["kind"] == np.uint8(EventKind.SEND))
        if not len(send):
            raise ValueError("scenario has no send to orphan")
        cols["tag"][int(send[0])] = 9900
        return cols

    return _mutate_events(trace, 0, retag)


def _plant_wait_chain(trace, spec: ScenarioSpec):
    """Re-simulate with one huge preemption at the chain's head.

    A single long interruption on rank 0's first-iteration compute
    stalls every downstream rank of the chain for its full length:
    the chain's summed blocked time approaches ``(p - 1) ×`` the
    interruption while the run only grows by one interruption — the
    unambiguous, origin-attributable idle wave TL305 exists to name.
    (A straggler injection cannot get there: slowing every iteration
    stretches the denominator as fast as the waits.)
    """
    stall = 20.0 * spec.iterations  # in units of base_compute
    slow = replace(
        spec,
        injections=(
            InjectionSpec(
                "interruption",
                ranks=(0,),
                magnitude=stall,
                t0=0.0,
                period=spec.base_compute,
            ),
        ),
    )
    return build_trace(slow)


_PLANTERS = {
    "deadlock_cycle": _plant_deadlock_cycle,
    "wildcard_race": _plant_wildcard_race,
    "collective_drop": _plant_collective_drop,
    "orphan_send": _plant_orphan_send,
    "wait_chain": _plant_wait_chain,
}


def build_adversarial_traces(scenario: AdversarialScenario):
    """Return ``(healthy, defective)`` traces for one scenario."""
    healthy = build_trace(scenario.spec)
    defective = _PLANTERS[scenario.kind](healthy, scenario.spec)
    return healthy, defective


def run_adversarial_oracle(scenario: AdversarialScenario) -> OracleReport:
    """Check the TL3xx detector against one planted defect.

    Two assertions per scenario: the healthy baseline produces *zero*
    TL3xx findings of any severity, and the defective twin produces at
    least one finding with the planted kind's expected code.
    """
    from ..lint import lint_trace

    report = OracleReport(spec=scenario.spec)
    try:
        healthy, defective = build_adversarial_traces(scenario)
    except Exception as err:  # noqa: BLE001 - a crash IS the finding
        detail = traceback.format_exception_only(type(err), err)[-1].strip()
        report.cells += 1
        report.failures.append(
            OracleFailure("adversarial/crash", f"crash: {detail}")
        )
        return report

    report.cells += 1
    clean = [
        d for d in lint_trace(healthy).diagnostics
        if d.code.startswith("TL3")
    ]
    if clean:
        report.failures.append(OracleFailure(
            "adversarial/healthy",
            f"{scenario.kind}: healthy baseline raised "
            f"[{clean[0].code}] {clean[0].message}",
        ))

    report.cells += 1
    found = {
        d.code for d in lint_trace(defective).diagnostics
        if d.code.startswith("TL3")
    }
    if scenario.expected_code not in found:
        got = ", ".join(sorted(found)) or "nothing"
        report.failures.append(OracleFailure(
            "adversarial/missed",
            f"{scenario.kind}: planted defect not flagged — expected "
            f"{scenario.expected_code}, checker reported {got}",
        ))
    return report


def adversarial_run(
    seed: int = 0,
    runs: int = 5,
    log: Callable[[str], None] = print,
) -> list[OracleReport]:
    """Run ``runs`` adversarial scenarios from consecutive seeds.

    With the default 5 runs every TL3xx rule is exercised once (kinds
    rotate with the seed).  Returns per-scenario oracle reports.
    """
    reports: list[OracleReport] = []
    for offset in range(runs):
        scenario = generate_adversarial(seed + offset)
        report = run_adversarial_oracle(scenario)
        status = "ok" if report.ok else "FAIL"
        log(f"seed {scenario.seed}: {scenario.describe()} -> {status}")
        for failure in report.failures:
            log(f"  {failure}")
        reports.append(report)
    return reports

"""The scenario oracle: a fuzz scenario's analysis checked against the
independent reference, plus the comparisons and planted defects the
differential tests share.

* :func:`check_spec` / :func:`check_trace` write a scenario as ``.rpt``
  v1 (zlib) and v2 (raw) and run five cells over it: structural
  invariants, the containers' fingerprints, the path-mode
  :class:`~repro.core.session.AnalysisSession` against
  ``reference_impl`` (dominant region, invocation tables, statistics
  partials, segments and SOS-times, all bitwise), a 3-shard session
  against the unsharded one, and the streaming analyzer fed one event
  at a time against the reference SOS-times.
* :func:`minimize` shrinks a failing scenario while
  :func:`kind_preserving_predicate` still reproduces its failure kind;
  :func:`assert_scenario_passes` puts both into one assertion whose
  message carries the minimized spec's JSON.
* :func:`assert_identical_analysis` compares two analyses product by
  product; the adversarial planters (:func:`generate_adversarial`)
  break a healthy scenario in one way each TL3xx rule must flag.

Everything is deterministic: the same seed gives the same spec, the
same trace bytes and the same verdict.
"""

from __future__ import annotations

import os
import random
import tempfile
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import reference_impl as ref
from repro._record import replace
from repro.sim.fuzz import InjectionSpec, ScenarioSpec, build_trace

# ---------------------------------------------------------------------------
# The trace through the reference
# ---------------------------------------------------------------------------

#: Invocation-table columns the reference's frames carry.
TABLE_COLUMNS = (
    "region", "t_enter", "t_leave", "inclusive", "exclusive", "depth",
    "parent", "outermost", "enter_index", "leave_index",
)


def reference_tables(trace):
    """``(frames, partials)`` per rank from the reference replay."""
    n = len(trace.regions)
    frames = {}
    for rank in trace.ranks:
        ev = trace.events_of(rank)
        frames[rank] = ref.replay(ev.time.tolist(), ev.kind.tolist(), ev.ref.tolist())
    partials = {rank: ref.region_partials(frames[rank], n) for rank in trace.ranks}
    return frames, partials


def reference_dominant(trace, partials=None) -> int:
    """The reference's dominant region (the 2p rule), or -1."""
    if partials is None:
        _, partials = reference_tables(trace)
    stats = ref.merge_partials(
        [partials[r] for r in sorted(partials)], len(trace.regions)
    )
    paradigms = [int(region.paradigm) for region in trace.regions]
    return ref.dominant_region(stats, paradigms, trace.num_processes)


def reference_sync(trace) -> list[bool]:
    return [
        ref.is_sync(region.name, int(region.paradigm), int(region.role))
        for region in trace.regions
    ]


def reference_segments(trace, dominant):
    """``rank -> [(t_start, t_stop, sos), ...]`` from the reference."""
    sync = reference_sync(trace)
    out = {}
    for rank in trace.ranks:
        ev = trace.events_of(rank)
        out[rank] = ref.segments_and_sos(
            ev.time.tolist(), ev.kind.tolist(), ev.ref.tolist(), dominant, sync
        )
    return out


def assert_matches_reference(trace, tables, partials):
    """Every table row and statistics partial equals the reference's,
    bitwise."""
    frames, want_partials = reference_tables(trace)
    assert sorted(tables) == sorted(frames)
    for rank, want in frames.items():
        for col in TABLE_COLUMNS:
            assert getattr(tables[rank], col).tolist() == [
                getattr(f, col) for f in want
            ], f"rank {rank} column {col}"
        for col in ref.STAT_COLUMNS:
            assert partials[rank][col].tolist() == want_partials[rank][col], (
                f"rank {rank} statistic {col}"
            )


def assert_segments_match(segmentation, sos, want):
    """Segments and SOS-times equal ``want`` (:func:`reference_segments`)."""
    for rank, segs in want.items():
        assert segmentation[rank].t_start.tolist() == [a for a, _, _ in segs], (
            f"rank {rank} segment starts"
        )
        assert segmentation[rank].t_stop.tolist() == [b for _, b, _ in segs], (
            f"rank {rank} segment stops"
        )
        assert sos[rank].sos.tolist() == [c for _, _, c in segs], f"rank {rank} SOS"


# ---------------------------------------------------------------------------
# Planted table bugs: exclusive time the reference must catch
# ---------------------------------------------------------------------------


def plant_table_bug(monkeypatch, corrupt):
    """Route the kernel's and replay's table building through a bug."""
    from repro.core import incremental
    from repro.profiles import replay

    real = replay.table_from_pairing

    def planted(pairing, time, ref_column):
        built = real(pairing, time, ref_column)
        exclusive = corrupt(built.table, built.frame_starts)
        return replace(built, table=replace(built.table, exclusive=exclusive))

    monkeypatch.setattr(incremental, "table_from_pairing", planted)
    monkeypatch.setattr(replay, "table_from_pairing", planted)


def children_by_local_row(table, frame_starts):
    """Exclusive time with children credited to their rank-local parent
    row in batch coordinates: right for the first rank of a batch only."""
    child_sum = np.zeros(len(table))
    has = table.parent >= 0
    np.add.at(child_sum, table.parent[has], table.inclusive[has])
    return table.inclusive - child_sum


def first_child_only(table, frame_starts):
    """Exclusive time that subtracts only each frame's first child."""
    offset = np.repeat(frame_starts[:-1], np.diff(frame_starts))
    rows = np.flatnonzero(table.parent >= 0)
    parent = table.parent[rows] + offset[rows]
    first = np.unique(parent, return_index=True)[1]
    child_sum = np.zeros(len(table))
    child_sum[parent[first]] = table.inclusive[rows[first]]
    return table.inclusive - child_sum


# ---------------------------------------------------------------------------
# Two analyses, product by product
# ---------------------------------------------------------------------------

def assert_identical_analysis(reference, candidate):
    """Every product of two analyses must match bitwise."""
    assert candidate.dominant_name == reference.dominant_name
    assert candidate.selection.region == reference.selection.region

    for col in ref.STAT_COLUMNS:
        assert np.array_equal(
            getattr(candidate.profile.stats, col),
            getattr(reference.profile.stats, col),
        ), f"profile column {col} differs"

    assert candidate.sos.ranks == reference.sos.ranks
    for rank in reference.sos.ranks:
        want, got = reference.sos[rank], candidate.sos[rank]
        for arr in ("duration", "sync_time", "sos"):
            assert np.array_equal(getattr(got, arr), getattr(want, arr)), (
                f"rank {rank} {arr} differs"
            )
        ref_seg = reference.segmentation[rank]
        got_seg = candidate.segmentation[rank]
        for arr in ("t_start", "t_stop", "invocation_row"):
            assert np.array_equal(
                getattr(got_seg, arr), getattr(ref_seg, arr)
            ), f"rank {rank} segment {arr} differs"

    ref_heat, ref_edges = reference.heat_matrix(bins=64)
    got_heat, got_edges = candidate.heat_matrix(bins=64)
    assert np.array_equal(got_edges, ref_edges)
    assert np.array_equal(got_heat, ref_heat, equal_nan=True)

    ref_imb, got_imb = reference.imbalance, candidate.imbalance
    assert got_imb.imbalance_pct == ref_imb.imbalance_pct
    assert [(h.rank, h.zscore) for h in got_imb.hot_ranks] == [
        (h.rank, h.zscore) for h in ref_imb.hot_ranks
    ]
    assert len(got_imb.hot_segments) == len(ref_imb.hot_segments)

    for trend_attr in ("trend", "duration_trend"):
        ref_t = getattr(reference, trend_attr)
        got_t = getattr(candidate, trend_attr)
        assert got_t.slope == ref_t.slope
        assert got_t.p_value == ref_t.p_value


# ---------------------------------------------------------------------------
# The scenario check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Failure:
    """One divergence, crash or invariant violation, by cell name."""

    cell: str
    message: str

    def __str__(self) -> str:
        return f"[{self.cell}] {self.message}"


def failure_kinds(failures) -> frozenset[str]:
    """Cell-name prefixes (``stream``, ``reference``, ``baseline``, ...)."""
    return frozenset(f.cell.split("/", 1)[0] for f in failures)


def _crash(err: BaseException) -> str:
    return "crash: " + traceback.format_exception_only(type(err), err)[-1].strip()


def _check_invariants(trace, partials) -> list[Failure]:
    """Structural invariants every generated trace must satisfy."""
    from repro.lint import lint_trace
    from repro.profiles.stats import FunctionStatistics, merge_statistics_arrays

    out: list[Failure] = []
    for rank in trace.ranks:
        times = trace.events_of(rank).time
        if len(times) and np.any(np.diff(times) < 0):
            out.append(Failure(
                "invariant/monotone", f"rank {rank} timestamps go backwards"
            ))
    report = lint_trace(trace)
    errors = [d for d in report.diagnostics
              if d.severity.name.lower() == "error"]
    if errors:
        out.append(Failure(
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
        out.append(Failure(
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
    for col in ref.STAT_COLUMNS:
        if not np.array_equal(getattr(stats, col), merged[col]):
            out.append(Failure(
                "invariant/stats", f"partial merge drifts on {col}"
            ))
    active = stats.count > 0
    if np.any(stats.count < 0):
        out.append(Failure("invariant/stats", "negative counts"))
    if np.any(stats.inclusive_min[active] > stats.inclusive_max[active]):
        out.append(Failure(
            "invariant/stats", "inclusive_min exceeds inclusive_max"
        ))
    tol = 1e-9 * max(1.0, float(np.abs(stats.inclusive_sum).max(initial=0.0)))
    if np.any(stats.exclusive_sum > stats.inclusive_sum + tol):
        out.append(Failure(
            "invariant/stats", "exclusive_sum exceeds inclusive_sum"
        ))
    return out


@contextmanager
def _one_shard_worker():
    """Run shard plans in process, unless the caller chose a count."""
    if os.environ.get("REPRO_SHARD_WORKERS", "").strip():
        yield
        return
    os.environ["REPRO_SHARD_WORKERS"] = "1"
    try:
        yield
    finally:
        os.environ.pop("REPRO_SHARD_WORKERS", None)


def check_trace(trace) -> list[Failure]:
    """The scenario check over one trace; ``[]`` when every cell holds.

    The baseline is the reference's products and the two containers;
    a crash while building them, or a trace below the ``2p``
    dominant-candidate floor, is a ``baseline`` failure and no cell
    runs.
    """
    from repro.core.session import AnalysisSession
    from repro.core.streaming import StreamingAnalyzer
    from repro.trace import write_binary
    from repro.trace.fingerprint import fingerprint_trace
    from repro.trace.reader import TraceIndex

    with tempfile.TemporaryDirectory() as tmp, _one_shard_worker():
        v1, v2 = Path(tmp, "scenario-v1.rpt"), Path(tmp, "scenario-v2.rpt")
        try:
            _, partials = reference_tables(trace)
            dominant = reference_dominant(trace, partials)
            want = reference_segments(trace, dominant) if dominant >= 0 else {}
            fp = fingerprint_trace(trace)
            write_binary(trace, v1, version=1)
            write_binary(trace, v2, version=2, codec="raw")
        except Exception as err:  # noqa: BLE001 - a crash IS the finding
            return [Failure("baseline", _crash(err))]
        if dominant < 0:
            return [Failure(
                "baseline",
                f"no dominant-function candidate (2p = {2 * trace.num_processes})",
            )]

        try:
            failures = _check_invariants(trace, {
                rank: {col: np.asarray(values) for col, values in part.items()}
                for rank, part in partials.items()
            })
        except Exception as err:  # noqa: BLE001
            failures = [Failure("invariant", _crash(err))]
        unsharded = []

        def run(cell: str, check: Callable[[], None]) -> None:
            try:
                check()
            except AssertionError as err:
                failures.append(Failure(cell, str(err).split("\n")[0] or "differs"))
            except Exception as err:  # noqa: BLE001
                failures.append(Failure(cell, _crash(err)))

        def fingerprints():
            for version, path in ((1, v1), (2, v2)):
                index = TraceIndex(path)
                assert fingerprint_trace(index.load()).hexdigest == fp.hexdigest, (
                    f"v{version} load changes the trace fingerprint"
                )
                for rank in trace.ranks:
                    assert index.rank_digest(rank) == fp.rank_digest(rank), (
                        f"v{version} rank {rank} digest differs"
                    )

        def against_reference():
            session = AnalysisSession(None, source_path=v2)
            analysis = session.analysis()
            unsharded.append(analysis)
            assert analysis.selection.region == dominant, (
                f"dominant region {analysis.selection.region}, reference {dominant}"
            )
            assert_matches_reference(trace, session.replay(), session._partials)
            assert_segments_match(analysis.segmentation, analysis.sos, want)

        def sharded():
            if unsharded:
                candidate = AnalysisSession(None, source_path=v1, shards=3)
                assert_identical_analysis(unsharded[0], candidate.analysis())

        def streamed():
            index = TraceIndex(v1)
            analyzer = StreamingAnalyzer(
                index.regions, len(index.ranks), dominant=dominant
            )
            for batch in index.cursor(chunk_events=1):
                analyzer.feed(batch.rank, batch.events)
                if batch.final:
                    analyzer.finish_rank(batch.rank)
            for rank, segs in want.items():
                assert analyzer.sos_series(rank).tolist() == [c for _, _, c in segs], (
                    f"rank {rank} streamed SOS differs"
                )

        run("io/fingerprint", fingerprints)
        run("reference", against_reference)
        run("session/shards=3", sharded)
        run("stream/chunk=1", streamed)
    return failures


def check_spec(spec: ScenarioSpec) -> list[Failure]:
    """Simulate ``spec`` (a crash is a ``simulate`` failure) and check it."""
    try:
        trace = build_trace(spec)
    except Exception as err:  # noqa: BLE001 - generator bugs surface here
        return [Failure("simulate", _crash(err))]
    return check_trace(trace)


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


def kind_preserving_predicate(failures) -> Callable[[ScenarioSpec], bool]:
    """A ``still_fails`` predicate that keeps the failure kind.

    It accepts a reduction only when :func:`check_spec` reproduces a
    failure whose cell-name prefix is among ``failures``'.  A reduction
    that only falls below the ``2p`` dominant-candidate floor fails as
    ``baseline`` and is refused, so the minimized scenario never fails
    for a reason the healthy engines share.
    """
    kinds = failure_kinds(failures)
    if not kinds:
        raise ValueError("no failures to preserve")
    return lambda s: bool(failure_kinds(check_spec(s)) & kinds)


def _listed(failures) -> str:
    lines = [f"  {f}" for f in failures[:20]]
    if len(failures) > 20:
        lines.append(f"  ... and {len(failures) - 20} more")
    return "\n".join(lines)


def assert_scenario_passes(spec: ScenarioSpec) -> None:
    """Every cell holds on ``spec``; otherwise the assertion names the
    failures, minimizes the scenario and prints its spec as one
    ``spec: {...}`` line, which ``build_trace(ScenarioSpec.from_json(...))``
    rebuilds exactly."""
    failures = check_spec(spec)
    if not failures:
        return
    minimized = minimize(spec, kind_preserving_predicate(failures))
    raise AssertionError(
        f"seed {spec.seed} ({spec.describe()}) fails:\n{_listed(failures)}\n"
        f"minimized {spec.size()} -> {minimized.size()} rank-iterations "
        f"({minimized.describe()}):\n{_listed(check_spec(minimized))}\n"
        f"spec: {minimized.to_json()}"
    )


def assert_trace_passes(trace) -> None:
    failures = check_trace(trace)
    assert not failures, f"{trace.name} fails:\n{_listed(failures)}"


# ---------------------------------------------------------------------------
# Adversarial scenarios: a healthy baseline plus one planted defect
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


@dataclass(frozen=True)
class AdversarialScenario:
    """One planted-defect scenario: a healthy baseline plus a defect.

    The baseline spec is injection-free so the full TL3xx family —
    including the INFO-severity TL305 — is provably silent on it; the
    defective trace is derived from the baseline by event mutation
    (or, for ``wait_chain``, by re-simulating with an extreme
    interruption), because the simulator itself would hang or crash on
    a genuinely deadlocking program.
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
    from repro.trace.events import _FIELDS, EventList
    from repro.trace.trace import Trace

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
    from repro.trace.events import EventKind

    def retag(cols):
        send = cols["kind"] == np.uint8(EventKind.SEND)
        cols["tag"][send] = 9900
        return cols

    return _mutate_events(_mutate_events(trace, 0, retag), 1, retag)


def _plant_wildcard_race(trace, spec: ScenarioSpec):
    """Turn rank 0's receives into wildcards (MPI_ANY_SOURCE)."""
    from repro.trace.events import EventKind

    def wildcard(cols):
        recv = cols["kind"] == np.uint8(EventKind.RECV)
        cols["partner"][recv] = -1
        return cols

    return _mutate_events(trace, 0, wildcard)


def _plant_collective_drop(trace, spec: ScenarioSpec):
    """Delete the last rank's first collective invocation entirely."""
    from repro.lint.hb import COLLECTIVE_NAMES
    from repro.trace.events import EventKind

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
    from repro.trace.events import EventKind

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


def assert_defect_detected(scenario: AdversarialScenario) -> None:
    """The TL3xx rules stay silent on the healthy baseline and flag the
    planted defect with its expected code."""
    from repro.lint import LintConfig, lint_trace

    select = LintConfig(select=("TL3*",))
    healthy, defective = build_adversarial_traces(scenario)
    clean = lint_trace(healthy, config=select).diagnostics
    assert not clean, (
        f"{scenario.describe()}: healthy baseline raised "
        f"[{clean[0].code}] {clean[0].message}"
    )
    found = {d.code for d in lint_trace(defective, config=select).diagnostics}
    assert scenario.expected_code in found, (
        f"{scenario.describe()}: planted defect not flagged, checker "
        f"reported {', '.join(sorted(found)) or 'nothing'}"
    )

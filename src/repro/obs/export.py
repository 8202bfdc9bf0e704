"""Exporters for collected telemetry.

Three consumers, one journal format:

* :func:`self_trace` / :func:`write_self_trace` — the **dogfood
  exporter**.  Spans map to ENTER/LEAVE events, counter and gauge
  samples map to metric events, and every thread journal (main
  process threads first, then shard-worker snapshots in merge order)
  becomes a location — shard workers appear as ranks.  The result is
  a standard ``.rpt`` v2 trace: ``repro analyze self.rpt`` runs the
  paper's segmentation/SOS machinery over the analyzer's own phases.
* :func:`summarize` / :meth:`ObsSummary.format` — the human ``repro
  stats`` table: per-phase wall time, cache hit ratio, throughput.
  It is computed *from the self-trace representation* (live collectors
  are converted first), so the table and the exported file can never
  disagree.
* the JSON-lines log (:mod:`repro.obs.logs`) streams as the run
  happens; this module handles the end-of-run artifacts.
"""

from __future__ import annotations

import os

from .._record import record
from ..trace.builder import TraceBuilder
from ..trace.definitions import MetricMode
from ..trace.trace import Trace
from .core import ENTER, LEAVE, SAMPLE, Collector

__all__ = [
    "ObsSummary",
    "PhaseStat",
    "SELF_TRACE_ATTR",
    "self_trace",
    "summarize",
    "write_self_trace",
]

#: Trace attribute marking a telemetry export of the analyzer itself.
SELF_TRACE_ATTR = "repro.self_trace"


def _metric_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    return "#"


def self_trace(collector: Collector, name: str = "repro-self-trace") -> Trace:
    """Convert ``collector``'s journals into an analysable trace.

    Locations are numbered in journal order — the parent process's
    threads first (main thread is rank 0), then each merged worker
    snapshot's threads in merge order, which for shard workers is
    ascending shard order (the parent merges them exactly like the
    statistics partials).  Timestamps share one monotonic axis
    (:class:`repro.measure.clock.RawMonotonicClock`) and are normalised
    against the collector's **trace epoch** — the same zero in every
    process of the trace, so a worker span can never start before the
    parent span that launched it.  (Snapshots without an epoch —
    pre-context pickles — fall back to earliest-entry normalisation.)
    """
    from .. import __version__

    journals = collector._all_journals()
    journals = [(origin, j) for origin, j in journals if j["entries"]]
    t0 = getattr(collector, "epoch", None)
    if t0 is None:
        t0 = min(j["entries"][0][1] for _, j in journals) if journals else 0.0

    ctx_attrs: dict[str, str] = {}
    for snap in collector._foreign_snaps():
        parent = snap.get("parent_span")
        if parent:
            ctx_attrs[f"ctx.{snap['origin']}.parent_span"] = str(parent)

    counters = collector.counters()
    builder = TraceBuilder(
        name=name,
        attributes={
            SELF_TRACE_ATTR: "1",
            "repro.version": __version__,
            "repro.trace_id": getattr(collector, "trace_id", "") or "",
            **ctx_attrs,
            **{f"counter.{k}": repr(v) for k, v in sorted(counters.items())},
            **{f"gauge.{k}": repr(v)
               for k, v in sorted(collector.gauges().items())},
        },
    )
    # Register definitions over *all* journals first so region/metric
    # ids are independent of which location first touched them.
    span_names: list[str] = []
    metric_names: list[str] = []
    seen_spans: set[str] = set()
    seen_metrics: set[str] = set()
    for _origin, jrn in journals:
        for entry in jrn["entries"]:
            label = entry[2]
            if entry[0] == SAMPLE:
                if label not in seen_metrics:
                    seen_metrics.add(label)
                    metric_names.append(label)
            elif label not in seen_spans:
                seen_spans.add(label)
                span_names.append(label)
    for label in sorted(span_names):
        builder.region(label)
    for label in sorted(metric_names):
        builder.metric(
            label,
            unit=_metric_unit(label),
            mode=MetricMode.ACCUMULATED,
        )

    for rank, (origin, jrn) in enumerate(journals):
        proc = builder.process(
            rank, name=f"{origin}:{jrn['thread_name']}", group="OBS"
        )
        last_t = 0.0
        for entry in jrn["entries"]:
            tag, t, label = entry[0], entry[1] - t0, entry[2]
            # The per-thread clock is monotonic, but defend against
            # float jitter at equal readings.
            t = max(t, last_t)
            last_t = t
            if tag == ENTER:
                proc.enter(t, label)
            elif tag == LEAVE:
                if proc.depth:
                    proc.leave(t)
            else:
                proc.metric(t, label, entry[3])
        # Close spans that were still open when the snapshot was taken
        # (e.g. an export from inside a long-running phase).
        while proc.depth:
            proc.leave(last_t)
    return builder.freeze()


def write_self_trace(
    collector: Collector, path: str | os.PathLike,
    name: str = "repro-self-trace",
) -> Trace:
    """Export ``collector`` as a ``.rpt`` v2 (or ``.jsonl``) file.

    The output is a valid trace by construction — it passes ``repro
    lint`` and feeds straight back into ``repro analyze``.  Writing is
    deterministic for a given collector, so repeated exports are
    bit-identical.
    """
    trace = self_trace(collector, name=name)
    path = os.fspath(path)
    if path.endswith(".jsonl"):
        from ..trace import write_jsonl

        write_jsonl(trace, path)
    else:
        from ..trace import write_binary

        write_binary(trace, path, version=2)
    return trace


# ---------------------------------------------------------------------------
# Human summary ("repro stats")
# ---------------------------------------------------------------------------


@record(frozen=True, slots=True)
class PhaseStat:
    """Aggregated timing of one span name across all locations."""

    name: str
    count: int
    total_s: float  # inclusive (outermost frames)
    self_s: float  # exclusive (all frames)
    share: float  # of trace wall time


@record(frozen=True, slots=True)
class ObsSummary:
    """Everything ``repro stats`` prints."""

    wall_s: float
    locations: int
    phases: tuple[PhaseStat, ...]
    counters: dict[str, float]
    gauges: dict[str, float]

    @property
    def cache_hit_ratio(self) -> float | None:
        hits = self.counters.get("cache.hit")
        misses = self.counters.get("cache.miss")
        if hits is None and misses is None:
            return None
        total = (hits or 0.0) + (misses or 0.0)
        return (hits or 0.0) / total if total else None

    @property
    def events_per_s(self) -> float | None:
        events = self.counters.get("analysis.events")
        if not events or self.wall_s <= 0:
            return None
        return events / self.wall_s

    def format(self) -> str:
        lines = [
            f"{'phase':<28}{'calls':>8}{'total s':>12}{'self s':>12}{'share':>8}"
        ]
        for p in self.phases:
            lines.append(
                f"{p.name:<28}{p.count:>8}{p.total_s:>12.4f}"
                f"{p.self_s:>12.4f}{100 * p.share:>7.1f}%"
            )
        if not self.phases:
            lines.append("  (no spans recorded)")
        lines.append("")
        lines.append(
            f"wall time: {self.wall_s:.4f}s across "
            f"{self.locations} location(s)"
        )
        ratio = self.cache_hit_ratio
        if ratio is not None:
            lines.append(
                f"artifact cache: {self.counters.get('cache.hit', 0):.0f} hits"
                f" / {self.counters.get('cache.miss', 0):.0f} misses"
                f" ({100 * ratio:.1f}% hit ratio)"
            )
        eps = self.events_per_s
        if eps is not None:
            lines.append(
                f"throughput: {self.counters['analysis.events']:.0f} events"
                f" / {self.wall_s:.4f}s = {eps / 1e6:.2f} M events/s"
            )
        if self.counters:
            lines.append("counters:")
            for name in sorted(self.counters):
                lines.append(f"  {name:<30} {self.counters[name]:.6g}")
        if self.gauges:
            lines.append("gauges:")
            for name in sorted(self.gauges):
                lines.append(f"  {name:<30} {self.gauges[name]:.6g}")
        return "\n".join(lines)


def _attr_values(trace: Trace, prefix: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for key, value in trace.attributes.items():
        if key.startswith(prefix):
            try:
                out[key[len(prefix):]] = float(value)
            except ValueError:
                continue
    return out


def summarize(source: Collector | Trace) -> ObsSummary:
    """Build the ``repro stats`` summary from a collector or self-trace.

    A live :class:`Collector` is first converted with
    :func:`self_trace`, so the summary always reflects exactly what an
    export would contain.
    """
    trace = source if isinstance(source, Trace) else self_trace(source)
    if not trace.num_processes:
        # Empty collector (counters never fired, no spans): keep the
        # summary well-formed so `repro stats` can explain instead of
        # crashing on a degenerate trace.
        return ObsSummary(
            wall_s=0.0,
            locations=0,
            phases=(),
            counters=_attr_values(trace, "counter."),
            gauges=_attr_values(trace, "gauge."),
        )
    from ..profiles.replay import match_invocations
    from ..profiles.stats import compute_statistics

    tables = {
        rank: match_invocations(trace.events_of(rank)) for rank in trace.ranks
    }
    stats = compute_statistics(trace, tables)
    wall = float(trace.duration)
    phases = []
    for region_id, region in enumerate(trace.regions):
        count = int(stats.count[region_id])
        if not count:
            continue
        total = float(stats.inclusive_sum[region_id])
        phases.append(
            PhaseStat(
                name=region.name,
                count=count,
                total_s=total,
                self_s=float(stats.exclusive_sum[region_id]),
                share=total / wall if wall > 0 else 0.0,
            )
        )
    phases.sort(key=lambda p: (-p.total_s, p.name))
    return ObsSummary(
        wall_s=wall,
        locations=trace.num_processes,
        phases=tuple(phases),
        counters=_attr_values(trace, "counter."),
        gauges=_attr_values(trace, "gauge."),
    )

"""Run one ``repro-trace`` command with layer spans recorded from outside.

Usage (the harness runs this; it is not meant to be typed)::

    python benchmarks/e2e/traced.py SPANS.json MODULES.txt CLI_ARG...

1. Imports every module named in ``MODULES.txt`` — the top-level
   imports of the same command, taken from a ``-X importtime`` run — so
   import cost is paid up front and stays out of the layer spans.
2. Wraps the public functions in :data:`LAYERS` at every ``repro``
   module attribute that refers to them, so callers that bound the name
   with ``from ... import`` see the wrapper too.  Nothing under ``src/``
   is edited.
3. Calls ``repro.cli.main`` with ``CLI_ARG...`` inside a root span.
4. Writes the spans — ``[name, start, end, parent, counts]`` with
   ``time.perf_counter`` stamps — and the phase stamps as one JSON line
   to ``SPANS.json``, then a second line with the time it finished, so
   the parent can tell interpreter shutdown apart.

A span's self time is its duration minus the time its children cover;
:func:`layer_metrics` turns one spans file into the per-layer metrics.
"""

import time

ENTRY = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

#: Root span around ``repro.cli.main``; its self time is the CLI's own
#: work (argument parsing, session glue, output) outside every layer.
ROOT = "cli.self"
#: Marks a layer whose target returns an iterator: each ``next`` call is
#: one span, counted in ``trace.cursor_batches``.
ITER = "iter"


def _count_load(args, kwargs, trace):
    return {"trace.events": trace.num_events, "trace.file_bytes": os.path.getsize(args[0])}


def _array_bytes(arrays):
    return sum(a.nbytes for a in arrays.values())


def _count_cache_load(args, kwargs, arrays):
    if arrays is None:
        return {"cache.misses": 1}
    return {"cache.hits": 1, "cache.bytes_read": _array_bytes(arrays)}


#: (span name, module, attribute path, counter).  A span name doubles as
#: the metric stem: its summed self time is reported as ``<name>_s``.
#: Counters map (args, kwargs, result) to counts summed per run.
LAYERS = (
    ("trace.load", "repro.trace.reader", "read_trace", _count_load),
    ("trace.fingerprint", "repro.trace.fingerprint", "fingerprint_trace", None),
    ("trace.cursor", "repro.trace.cursor", "EventCursor.__iter__", ITER),
    ("lint.check", "repro.lint.engine", "lint_trace",
     lambda a, k, report: {"lint.findings": len(report.diagnostics)}),
    ("core.fused", "repro.core.fused", "fused_bootstrap", None),
    ("profiles.stats", "repro.profiles.stats", "compute_statistics", None),
    ("profiles.stats", "repro.profiles.stats", "FunctionStatistics.from_partials", None),
    ("core.dominant", "repro.core.dominant", "select_dominant", None),
    ("core.segments", "repro.core.segments", "segment_trace",
     lambda a, k, seg: {"core.segments": seg.total_segments}),
    ("core.sos", "repro.core.sos", "compute_sos", None),
    ("core.imbalance", "repro.core.imbalance", "detect_imbalances", None),
    ("core.trend", "repro.core.variation", "detect_trend", None),
    ("cache.load", "repro.core.session", "ArtifactCache.load", _count_cache_load),
    ("cache.store", "repro.core.session", "ArtifactCache.store",
     lambda a, k, _: {"cache.bytes_written": _array_bytes(a[2])}),
    ("viz.heatmap", "repro.viz.heatmap", "render_sos_svg", None),
    ("viz.timeline", "repro.viz.timeline", "render_timeline_png", None),
    ("core.activity", "repro.core.activity", "activity_shares", None),
    ("viz.area", "repro.viz.areachart", "render_area_png", None),
    ("viz.counter", "repro.viz.counterchart", "render_counter_png", None),
    ("html.assemble", "repro.htmlreport", "render_html_report",
     lambda a, k, doc: {"html.bytes": len(doc.encode("utf-8"))}),
    ("stream.feed", "repro.core.streaming", "StreamingAnalyzer.feed",
     lambda a, k, alerts: {"stream.alerts": len(alerts)}),
    ("cli.report", "repro.core.pipeline", "VariationAnalysis.report", None),
    ("cli.report", "repro.core.pipeline", "VariationAnalysis.to_dict", None),
    ("sim.generate", "repro.sim.workloads.cosmo_specs", "generate", None),
    ("sim.write", "repro.trace.binio", "write_binary", None),
)


#: Every count a counter in :data:`LAYERS` can report.
COUNTS = (
    "trace.events", "trace.file_bytes", "trace.cursor_batches", "lint.findings",
    "core.segments", "cache.hits", "cache.misses", "cache.bytes_read",
    "cache.bytes_written", "html.bytes", "stream.alerts",
)
PACKAGES = ("numpy", "scipy", "repro", "other")
#: Every metric :func:`layer_metrics` reports, zero when a layer is idle.
METRICS = (
    ("startup.interp_s", "shutdown.interp_s")
    + tuple(f"import.{p}_s" for p in PACKAGES)
    + tuple(dict.fromkeys(f"{span}_s" for span, *_ in LAYERS))
    + (f"{ROOT}_s",)
    + COUNTS
    + ("traced.wall_s", "traced.unattributed_s")
)


class Recorder:
    """In-memory span list of the main thread (other threads pass through)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._main = threading.get_ident()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, {}])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is ITER:
                return _TimedIterator(self, name, result)
            if counter is not None:
                self.spans[index][4] = counter(args, kwargs, result)
            return result

        return wrapper


class _TimedIterator:
    def __init__(self, recorder: Recorder, name: str, inner) -> None:
        self._recorder = recorder
        self._name = name
        self._inner = iter(inner)

    def __iter__(self):
        return self

    def __next__(self):
        index = self._recorder.open(self._name)
        try:
            item = next(self._inner)
        finally:
            self._recorder.close(index)
        self._recorder.spans[index][4] = {"trace.cursor_batches": 1}
        return item


def install(recorder: Recorder) -> None:
    """Wrap every loaded :data:`LAYERS` target where callers look it up."""
    modules = [
        module
        for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module is not None
    ]
    for span, module_name, path, counter in LAYERS:
        module = sys.modules.get(module_name)
        if module is None:
            continue  # the command never imports it, so never calls it
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(recorder.wrap(span, raw.__func__, counter)))
            else:
                setattr(owner, attr, recorder.wrap(span, raw, counter))
            continue
        original = getattr(module, attr)
        wrapper = recorder.wrap(span, original, counter)
        for candidate in modules:
            for key, value in list(vars(candidate).items()):
                if value is original:
                    setattr(candidate, key, wrapper)


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _counts in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = {}
    for i, (name, start, end, _parent, _counts) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - covered[i]
    return totals


def layer_metrics(text: str, spawned: float, exited: float, split: dict[str, float]) -> dict:
    """Per-layer metrics (raw seconds and counts) of one spans file.

    ``spawned``/``exited`` are the parent's ``perf_counter`` stamps
    around the child (both clocks are CLOCK_MONOTONIC on Linux), and
    ``split`` the share of import time per top-level package.
    """
    first, written = text.split("\n")[:2]
    doc = json.loads(first)
    spans = doc["spans"]
    metrics: dict[str, float] = dict.fromkeys(METRICS, 0)
    for name, seconds in self_times(spans).items():
        metrics[f"{name}_s"] = seconds
    for *_, counts in spans:
        for key, value in counts.items():
            metrics[key] += value
    imports = doc["imported"] - doc["entry"]
    for package in PACKAGES:
        metrics[f"import.{package}_s"] = imports * split[package]
    root = next(span for span in spans if span[0] == ROOT)
    metrics["startup.interp_s"] = doc["entry"] - spawned
    metrics["shutdown.interp_s"] = exited - float(written)
    metrics["traced.wall_s"] = exited - spawned
    attributed = metrics["startup.interp_s"] + imports + (root[2] - root[1]) + metrics["shutdown.interp_s"]
    metrics["traced.unattributed_s"] = metrics["traced.wall_s"] - attributed
    return metrics


def main(argv: list[str]) -> int:
    spans_path, modules_path, *cli_args = argv
    with open(modules_path, encoding="utf-8") as fh:
        for name in fh.read().split():
            try:
                importlib.import_module(name)
            except ImportError:
                pass  # import-time helpers that only exist at start-up
    imported = time.perf_counter()
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as cli_main

    root = recorder.open(ROOT)
    try:
        code = cli_main(cli_args)
    finally:
        recorder.close(root)
        doc = {"entry": ENTRY, "imported": imported, "spans": recorder.spans}
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            # Second line: when the spans were out, so that the time to
            # write them stays out of the interpreter's shutdown.
            fh.write(f"\n{time.perf_counter()!r}\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""repro.obs — self-observability for the analyzer.

The paper's thesis is that bottlenecks in a parallel run are invisible
without a trace; this package applies that thesis to the analysis
pipeline itself.  Spans and counters instrument the hot seams
(session stages, shard workers, the fused kernel, trace I/O, the
artifact cache, lint rules) and export three ways:

* a JSON-lines / text log stream (:func:`configure_logging`,
  ``REPRO_LOG=json``, ``REPRO_LOG_LEVEL``);
* a human summary table (``repro stats`` / ``--stats``);
* a **self-trace**: a valid ``.rpt`` v2 file in which spans are
  ENTER/LEAVE events, counters are metric events, and shard workers
  are ranks — ``repro analyze self.rpt`` finds the analyzer's own
  dominant phase.

Everything is off by default and costs one flag test per call site
when disabled.  See ``docs/observability.md``.
"""

from __future__ import annotations

import os
import sys
from typing import IO

from .core import (
    Collector,
    Counter,
    Gauge,
    Span,
    SpanRecord,
    collector,
    counter,
    current_context,
    disable,
    enable,
    enabled,
    gauge,
    span,
    traced,
)

__all__ = [
    "Collector",
    "Counter",
    "Gauge",
    "ObsSummary",
    "Profiler",
    "Span",
    "SpanRecord",
    "collector",
    "configure_logging",
    "configure_logging_on_use",
    "counter",
    "current_context",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "get_logger",
    "self_trace",
    "span",
    "summarize",
    "traced",
    "verbosity_level",
    "write_self_trace",
]

#: Export helpers pull in the trace layer; loaded on first use so that
#: instrumented low-level modules (the trace reader among them) can
#: ``import repro.obs`` without a circular import.  The profiler rides
#: the same lazy hook to keep the disabled import footprint minimal.
_LAZY = {
    "ObsSummary": ("export", "ObsSummary"),
    "self_trace": ("export", "self_trace"),
    "summarize": ("export", "summarize"),
    "write_self_trace": ("export", "write_self_trace"),
    "Profiler": ("profiler", "Profiler"),
    "verbosity_level": ("logs", "verbosity_level"),
}

#: Set by :func:`configure_logging_on_use`: the default configuration
#: waits for the first :func:`get_logger` call.
_default_logging_pending = False


def configure_logging(
    level: int | str | None = None,
    fmt: str | None = None,
    stream: IO[str] | None = None,
):
    """Configure the ``repro`` loggers; see
    :func:`repro.obs.logs.configure_logging`."""
    global _default_logging_pending
    from .logs import configure_logging

    _default_logging_pending = False
    return configure_logging(level=level, fmt=fmt, stream=stream)


def configure_logging_on_use() -> None:
    """:func:`configure_logging` with its defaults, applied when
    :func:`get_logger` is first called.

    A command that logs nothing then never imports :mod:`logging`.
    When ``REPRO_LOG`` or ``REPRO_LOG_LEVEL`` asks for a format or a
    level, or logging is configured already, it applies at once.
    """
    global _default_logging_pending
    if "repro.obs.logs" in sys.modules or any(
        os.environ.get(name, "").strip()
        for name in ("REPRO_LOG", "REPRO_LOG_LEVEL")
    ):
        configure_logging()
    else:
        _default_logging_pending = True


def get_logger(name: str):
    """Logger under the ``repro`` hierarchy; see
    :func:`repro.obs.logs.get_logger`."""
    from .logs import get_logger

    if _default_logging_pending:
        configure_logging()
    return get_logger(name)


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module_name, attr = _LAZY[name]
        module = importlib.import_module(f".{module_name}", __name__)
        value = getattr(module, attr)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")

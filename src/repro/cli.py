"""Command-line interface: simulate, analyze, render, inspect traces.

Trace-consuming subcommands are *session-aware*: with ``--cache-dir``
they persist replay/profile/SOS artifacts keyed by the trace's content
fingerprint, so a second ``analyze`` (or a follow-up ``render`` /
``explain`` / ``compare``) of the same trace recomputes nothing.

Examples
--------
::

    repro-trace simulate cosmo_specs -o /tmp/cs.rpt
    repro-trace analyze /tmp/cs.rpt --cache-dir /tmp/cache --ascii
    repro-trace analyze /tmp/cs.rpt --cache-dir /tmp/cache --html cs.html
    repro-trace analyze /tmp/cs.rpt --function specs_microphysics
    repro-trace profile /tmp/cs.rpt -k 20
    repro-trace cache info --cache-dir /tmp/cache
    repro-trace baselines /tmp/cs.rpt
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

from . import __version__

__all__ = ["main", "build_parser"]

_WORKLOADS = (
    "cosmo_specs",
    "cosmo_specs_fd4",
    "wrf",
    "synthetic",
    "hybrid_openmp",
    "idle_wave",
    "late_sender",
    "serialization",
    "congestion",
)

#: Phenomenon workloads whose generators take ``ranks=`` (not ``processes=``)
#: and no seed — the simulation is deterministic by construction.
_PHENOMENON_WORKLOADS = (
    "idle_wave",
    "late_sender",
    "serialization",
    "congestion",
)

#: Exit code for unusable input paths / malformed traces (sysexits-ish).
EXIT_BAD_INPUT = 2


class CLIError(Exception):
    """User-facing error; printed to stderr, exits with EXIT_BAD_INPUT."""


@contextlib.contextmanager
def _reading(path: str):
    """Map unusable paths and malformed traces to a one-line CLIError.

    Every reader failure — including ``TraceFormatError``, a
    ``ValueError`` — exits with EXIT_BAD_INPUT instead of a traceback.
    """
    try:
        yield
    except FileNotFoundError:
        raise CLIError(f"trace file not found: {path}")
    except IsADirectoryError:
        raise CLIError(f"trace path is a directory: {path}")
    except (ValueError, OSError) as err:
        raise CLIError(f"cannot read trace {path}: {err}")


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _load_trace(path: str):
    """Read the whole trace at ``path`` (errors mapped by _reading)."""
    from .trace import read_trace

    with _reading(path):
        return read_trace(path)


def _shard_kwargs(args) -> dict:
    """Validate and collect --shards/--max-memory-mb."""
    shards = getattr(args, "shards", None)
    max_memory_mb = getattr(args, "max_memory_mb", None)
    if shards is not None and shards < 1:
        raise CLIError(f"--shards must be >= 1, got {shards}")
    if max_memory_mb is not None and max_memory_mb <= 0:
        raise CLIError(f"--max-memory-mb must be > 0, got {max_memory_mb}")
    if max_memory_mb is not None and not (
        max_memory_mb < float("inf") and int(max_memory_mb * 1e6) > 0
    ):
        raise CLIError(
            f"--max-memory-mb must be finite and >= 1 byte, got {max_memory_mb}"
        )
    return {"shards": shards, "max_memory_mb": max_memory_mb}


def _session(trace, args, config=None, source_path=None):
    """Build an AnalysisSession honouring --cache-dir/--shards."""
    from .core.session import AnalysisSession

    return AnalysisSession(
        trace,
        config=config,
        cache_dir=getattr(args, "cache_dir", None),
        source_path=source_path,
        **_shard_kwargs(args),
    )


def _session_for_path(path: str, args, config=None):
    """Session over the trace at ``path``.

    Only the file's header and chunk index are parsed here.  The
    session decodes the events rank by rank on first use (in its
    ``--shards`` workers, each its own ranks), which a warm
    ``--cache-dir`` run that finds its fingerprint by the file's stat
    key never makes; a decode error raised then exits 2 from
    :func:`_run`.
    """
    with _reading(path):
        return _session(None, args, config, source_path=path)


def _add_cache_arg(parser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for persistent analysis artifacts (.npz), keyed "
        "by trace content; reused across commands and processes",
    )


def _add_verbosity_args(parser, root: bool = False) -> None:
    """-v/-q/--log-level, accepted before *or* after the subcommand.

    The root parser owns the defaults; the per-subcommand copies use
    ``SUPPRESS`` so they only override what the root already parsed.
    """
    count_default = 0 if root else argparse.SUPPRESS
    parser.add_argument(
        "-v", "--verbose", action="count", default=count_default,
        help="more logging (-v = INFO progress such as shard "
        "heartbeats, -vv = DEBUG)",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=count_default,
        help="less logging (-q = errors only, -qq = critical only)",
    )
    parser.add_argument(
        "--log-level", default=None if root else argparse.SUPPRESS,
        metavar="LEVEL",
        help="explicit log level name (overrides -v/-q and the "
        "REPRO_LOG_LEVEL environment variable); REPRO_LOG=json "
        "switches the stream to JSON lines",
    )


def _add_obs_args(parser) -> None:
    parser.add_argument(
        "--self-trace", dest="self_trace", default=None, metavar="PATH",
        help="record the analyzer's own spans and counters during this "
        "command and write them as a trace (.rpt v2 or .jsonl) — "
        "feed it back into `analyze`/`lint`/`stats`",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print the telemetry summary table (per-phase wall time, "
        "cache hit ratio, throughput) after the command",
    )
    parser.add_argument(
        "--profile", dest="profile", default=None, metavar="PATH",
        help="sample the analyzer's own Python stacks while the command "
        "runs and write the profile (.json = speedscope, anything "
        "else = collapsed stacks); samples also fold into "
        "--self-trace as a call-path rank",
    )
    parser.add_argument(
        "--profile-interval", dest="profile_interval", type=float,
        default=5.0, metavar="MS",
        help="sampling interval for --profile in milliseconds "
        "(default 5.0)",
    )


def _add_shard_args(parser) -> None:
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="partition the ranks into N groups and analyze them in "
        "worker processes (results are bitwise identical to the "
        "single-process pipeline; worker count follows "
        "REPRO_SHARD_WORKERS or the CPU count)",
    )
    parser.add_argument(
        "--max-memory-mb", type=float, default=None, metavar="MB",
        help="bound the estimated per-worker working set; raises the "
        "shard count until each rank group fits",
    )


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser that records its ``add_argument`` calls and
    makes them when it first parses: a run builds the arguments of the
    one subcommand it runs (or prints the help of), not of all fifteen."""

    def __init__(self, *args, **kwargs) -> None:
        self._pending = None  # the constructor's own -h is made at once
        super().__init__(*args, **kwargs)
        self._pending = []

    def add_argument(self, *args, **kwargs):
        if self._pending is None:
            return super().add_argument(*args, **kwargs)
        self._pending.append((args, kwargs))

    def _filled(self) -> None:
        pending, self._pending = self._pending, None
        for args, kwargs in pending or ():
            super().add_argument(*args, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        self._filled()
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-trace`` parser; a subcommand's arguments are made
    when that subcommand is parsed (:class:`_Subcommand`)."""
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description=(
            "Detection and visualization of performance variations in "
            "parallel application traces (Weber et al., ICPP 2016)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    _add_verbosity_args(parser, root=True)
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Subcommand
    )

    sim = sub.add_parser("simulate", help="generate a workload trace")
    sim.add_argument("workload", choices=_WORKLOADS)
    sim.add_argument("-o", "--output", required=True,
                     help="output path (.rpt binary or .jsonl text)")
    sim.add_argument("--processes", "--ranks", dest="processes",
                     type=_positive_int, default=None,
                     help="rank count override (--ranks is an alias)")
    sim.add_argument("--iterations", type=_positive_int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument(
        "--out-version", type=int, choices=(1, 2), default=None,
        help=".rpt format version to write (default: newest)")
    sim.add_argument(
        "--codec", action="append", default=None, metavar="[COLUMN=]CODEC",
        help="v2 column codec: auto, raw or zlib; prefix with a column "
             "name (e.g. time=raw) for per-column control (repeatable)")

    ana = sub.add_parser("analyze", help="run the variation analysis")
    ana.add_argument("trace")
    ana.add_argument("--level", type=int, default=0,
                     help="dominant-function refinement level (0 = coarsest)")
    ana.add_argument("--function", default=None,
                     help="pin the segmentation to this candidate function")
    ana.add_argument("--json", dest="json_out", default=None,
                     help="write the analysis summary as JSON to this path")
    ana.add_argument("--views", default=None,
                     help="write PNG/SVG views into this directory")
    ana.add_argument("--html", dest="html_out", default=None,
                     help="write a self-contained HTML report to this path")
    ana.add_argument("--ascii", action="store_true",
                     help="print the SOS heat map as ANSI art")
    ana.add_argument("--bins", type=int, default=512)
    ana.add_argument("--preflight", action="store_true",
                     help="run the full tracelint rule set before analysing; "
                     "error findings abort with exit code 2")
    _add_cache_arg(ana)
    _add_shard_args(ana)
    _add_obs_args(ana)

    prof = sub.add_parser("profile", help="print the flat profile")
    prof.add_argument("trace")
    prof.add_argument("-k", type=int, default=15)
    prof.add_argument("--tree", action="store_true",
                      help="print the call tree instead of the flat profile")
    _add_cache_arg(prof)

    ren = sub.add_parser("render", help="render trace views without analysis")
    ren.add_argument("trace")
    ren.add_argument("-o", "--output", required=True, help="output directory")
    ren.add_argument("--messages", action="store_true",
                     help="draw message lines on the timeline")
    _add_cache_arg(ren)

    info = sub.add_parser(
        "info", help="print trace summary (structurally invalid: exit 2)"
    )
    info.add_argument("trace")

    lint = sub.add_parser(
        "lint",
        help="static analysis over the event stream (tracelint)",
        description=(
            "Scan a trace with the tracelint rule registry without "
            "replaying it: structural well-formedness (TL0xx), MPI "
            "message semantics (TL1xx) and the paper's analysis "
            "preconditions (TL2xx).  Exit code: 0 clean, 1 warnings, "
            "2 errors."
        ),
    )
    lint.add_argument("trace")
    lint.add_argument("--select", action="append", default=None,
                      metavar="PATTERN",
                      help="only run rules matching this fnmatch pattern "
                      "(e.g. TL001 or 'TL1*'); repeatable")
    lint.add_argument("--ignore", action="append", default=None,
                      metavar="PATTERN",
                      help="skip rules matching this pattern; repeatable")
    lint.add_argument("--severity", default=None,
                      choices=("info", "warning", "error"),
                      help="report only findings at or above this severity")
    lint.add_argument("--format", dest="fmt", default="text",
                      choices=("text", "json", "sarif"),
                      help="output format (default: text)")
    lint.add_argument("--config", dest="lint_config", default=None,
                      metavar="FILE",
                      help="JSON file with LintConfig fields (select, "
                      "ignore, severity_overrides, thresholds, ...)")
    lint.add_argument("-o", "--output", default=None,
                      help="write the report to this file instead of stdout")
    lint.add_argument("--rules", action="store_true",
                      help="list the registered rules and exit")
    _add_shard_args(lint)
    _add_obs_args(lint)

    base = sub.add_parser("baselines", help="run the baseline analyses")
    base.add_argument("trace")
    _add_cache_arg(base)
    _add_shard_args(base)
    _add_obs_args(base)

    cache = sub.add_parser("cache", help="inspect or clear an artifact cache")
    cache.add_argument("action", choices=("info", "clear"))
    cache.add_argument("--cache-dir", required=True,
                       help="artifact cache directory")

    conv = sub.add_parser(
        "convert",
        help="convert between trace formats / .rpt versions",
    )
    conv.add_argument("trace")
    conv.add_argument("-o", "--output", required=True)
    conv.add_argument(
        "--bin-version", type=int, choices=(1, 2), default=None,
        help=".rpt format version to write (default: newest)")
    conv.add_argument(
        "--codec", action="append", default=None, metavar="[COLUMN=]CODEC",
        help="v2 column codec: auto, raw or zlib; prefix with a column "
             "name (e.g. time=raw) for per-column control (repeatable)")
    conv.add_argument(
        "--no-verify", action="store_true",
        help="skip the round-trip fingerprint check")

    expl = sub.add_parser("explain", help="break one segment down by region")
    expl.add_argument("trace")
    expl.add_argument("--rank", type=int, default=None,
                      help="rank of the segment (default: hottest finding)")
    expl.add_argument("--segment", type=int, default=None,
                      help="segment index (default: hottest finding)")
    expl.add_argument("--function", default=None,
                      help="pin the segmentation to this candidate function")
    _add_cache_arg(expl)

    mon = sub.add_parser(
        "monitor",
        help="replay a trace through the streaming (in-situ) analyzer",
    )
    mon.add_argument("trace")
    mon.add_argument("--function", default=None,
                     help="dominant function (default: warm-up selection)")
    mon.add_argument("--chunk-events", "--chunk", type=int, default=None,
                     dest="chunk_events",
                     help="most events per fed chunk (default: the analysis "
                          "kernel's batch size, so most ranks arrive whole)")
    mon.add_argument("--threshold", type=float, default=4.0,
                     help="alert z-score threshold")
    mon.add_argument("--follow", action="store_true",
                     help="tail a growing .jsonl trace (live in-situ mode); "
                          "stops at the end-of-trace sentinel or after "
                          "--idle-timeout seconds without new data")
    mon.add_argument("--idle-timeout", type=float, default=None, metavar="S",
                     help="with --follow: give up after S idle seconds")
    mon.add_argument("--window", type=int, default=None, metavar="N",
                     help="retain at most N completed segments per rank "
                          "(bounded-memory mode; alerts and running totals "
                          "are unaffected)")
    _add_obs_args(mon)

    comp = sub.add_parser("compare", help="compare two runs segment by segment")
    comp.add_argument("trace_a", help="reference run")
    comp.add_argument("trace_b", help="candidate run")
    comp.add_argument("--function", default=None,
                      help="pin both segmentations to this function")
    comp.add_argument("--min-relative-delta", type=float, default=0.25)
    _add_cache_arg(comp)
    _add_shard_args(comp)
    _add_obs_args(comp)

    st = sub.add_parser(
        "stats",
        help="summarize a trace's phases and telemetry counters",
        description=(
            "Print the per-phase wall-time table plus any counter/gauge "
            "attributes of a trace.  Designed for self-traces written "
            "with --self-trace, but works on any trace (regions are "
            "the phases)."
        ),
    )
    st.add_argument("trace")

    deps = sub.add_parser(
        "deps",
        help="export the cross-rank message-match graph",
        description=(
            "Build the global message-match graph (matched sends/"
            "receives and collective epochs) that backs the TL3xx "
            "happens-before rules and export it as Graphviz DOT or "
            "JSON.  Matching is static — the trace is never replayed."
        ),
    )
    deps.add_argument("trace")
    deps.add_argument("--format", dest="fmt", choices=("dot", "json"),
                      default="dot",
                      help="output format (default dot)")
    deps.add_argument("-o", "--output", default=None,
                      help="write the graph to this file instead of stdout")
    _add_shard_args(deps)
    _add_obs_args(deps)

    perf = sub.add_parser(
        "perf",
        help="benchmark history store and regression radar",
        description=(
            "Maintain a JSONL history of BENCH_*.json benchmark records "
            "(content-addressed by bench, test, git sha and machine "
            "fingerprint) and run the paper's variation detection over "
            "it: windowed median/MAD outlier tests on the newest point "
            "and Theil-Sen + Mann-Kendall drift over the series.  "
            "`check` exits 1 when any benchmark regressed."
        ),
    )
    perf.add_argument("action", choices=("record", "check", "report"))
    perf.add_argument("inputs", nargs="*",
                      help="BENCH_*.json files to ingest (record only)")
    perf.add_argument("--history", required=True, metavar="FILE",
                      help="JSONL history file (created on first record)")
    perf.add_argument("--sha", default=None,
                      help="override the git sha recorded with each row "
                      "(default: the BENCH file's git_sha)")
    perf.add_argument("--machine", default=None,
                      help="override the machine fingerprint "
                      "(default: hashed platform facts)")
    perf.add_argument("--timestamp", type=float, default=None,
                      help="override the recorded_at wall-clock stamp")
    perf.add_argument("--window", type=int, default=20,
                      help="trailing window for the outlier test "
                      "(default 20)")
    perf.add_argument("--threshold", type=float, default=4.0,
                      help="robust z-score threshold (default 4.0)")
    perf.add_argument("--min-points", type=int, default=5,
                      help="measurements needed before the outlier test "
                      "runs (drift needs twice this; default 5)")
    perf.add_argument("--min-relative", type=float, default=0.10,
                      help="minimum relative slowdown to alarm on "
                      "(default 0.10 = 10%%)")
    perf.add_argument("--json", dest="json_out", default=None,
                      metavar="PATH",
                      help="also write the findings as JSON to this path")

    for sp in sub.choices.values():
        _add_verbosity_args(sp)
    return parser


def _write_trace(trace, path: str, version=None, codec=None) -> None:
    from .trace import write_binary, write_jsonl

    if path.endswith(".rpt"):
        kwargs = {}
        if version is not None:
            kwargs["version"] = version
        if codec is not None:
            kwargs["codec"] = codec
        write_binary(trace, path, **kwargs)
    elif path.endswith(".jsonl"):
        if version is not None or codec is not None:
            raise CLIError(
                "--bin-version/--codec only apply to .rpt output"
            )
        write_jsonl(trace, path)
    else:
        raise SystemExit(f"unknown output format (want .rpt or .jsonl): {path}")


def _parse_codec_args(specs):
    """Turn repeated ``[COLUMN=]CODEC`` flags into a write_binary codec.

    A bare codec applies to every column; ``column=codec`` entries
    override per column (unnamed columns stay on ``auto``).
    """
    if not specs:
        return None
    from .trace.binio import _COLUMNS

    default = None
    per_column: dict[str, str] = {}
    for spec in specs:
        column, sep, codec = spec.partition("=")
        if not sep:
            column, codec = None, spec
        if codec not in ("auto", "raw", "zlib"):
            raise CLIError(
                f"unknown codec {codec!r} (want auto, raw or zlib)"
            )
        if column is None:
            if default is not None:
                raise CLIError("only one default --codec may be given")
            default = codec
        elif column not in _COLUMNS:
            raise CLIError(f"unknown event column {column!r} in --codec")
        else:
            per_column[column] = codec
    if not per_column:
        return default
    if default is not None:
        return {col: per_column.get(col, default) for col in _COLUMNS}
    return per_column


def _cmd_simulate(args) -> int:
    from .sim import workloads

    module = getattr(workloads, args.workload)
    if args.workload in _PHENOMENON_WORKLOADS and args.seed is not None:
        raise CLIError(
            f"--seed does not apply to {args.workload} "
            "(the phenomenon is deterministic)"
        )
    # Case studies take ``processes``; the configurable workloads take
    # ``ranks``.
    ranks_key = (
        "ranks"
        if args.workload in ("hybrid_openmp", "synthetic", *_PHENOMENON_WORKLOADS)
        else "processes"
    )
    kwargs = {
        key: value
        for key, value in (
            (ranks_key, args.processes),
            ("iterations", args.iterations),
            ("seed", args.seed),
        )
        if value is not None
    }
    try:
        if args.workload == "synthetic":
            from .sim.workloads.synthetic import SyntheticConfig

            trace = module.generate(SyntheticConfig(**kwargs))
        else:
            trace = module.generate(**kwargs)
    except ValueError as err:
        # A size the workload cannot lay out (e.g. a non-square rank
        # count for cosmo_specs' 2-D grid).
        raise CLIError(f"cannot simulate {args.workload}: {err}")
    codec = _parse_codec_args(args.codec)
    _write_trace(trace, args.output, version=args.out_version, codec=codec)
    print(
        f"wrote {args.output}: {trace.num_processes} processes, "
        f"{trace.num_events} events, {trace.duration:.4g}s"
    )
    return 0


def _cmd_analyze(args) -> int:
    from .core import AnalysisConfig

    if args.bins < 1:
        raise CLIError(f"--bins must be >= 1, got {args.bins}")
    session = _session_for_path(
        args.trace, args, config=AnalysisConfig(level=args.level)
    )
    if args.preflight:
        report = session.preflight()
        if report.diagnostics:
            print(report.to_text())
            if report.exit_code() >= 2:
                print("preflight failed; aborting analysis", file=sys.stderr)
                return EXIT_BAD_INPUT
            print()
    trace = session.trace
    analysis = session.analysis(function=args.function or None)
    print(analysis.report())
    if args.ascii:
        from .viz import heat_to_ansi

        matrix, _edges = analysis.heat_matrix(bins=min(args.bins, 120))
        print()
        print(f"SOS heat map (process x time, {analysis.dominant_name!r}):")
        print(heat_to_ansi(matrix, row_labels=trace.ranks))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fp:
            json.dump(analysis.to_dict(), fp, indent=2)
        print(f"\nwrote {args.json_out}")
    if args.views:
        from .viz import render_analysis

        written = render_analysis(analysis, args.views, bins=args.bins)
        print("\nviews:")
        for name, path in written.items():
            print(f"  {name}: {path}")
    if args.html_out:
        from .htmlreport import render_html_report

        render_html_report(analysis, args.html_out, bins=args.bins)
        print(f"\nwrote {args.html_out}")
    if args.cache_dir:
        info = session.cache_info()
        print(f"\ncache: {info.format()}")
    return 0


def _cmd_profile(args) -> int:
    trace = _load_trace(args.trace)
    profile = _session(trace, args).profile()
    if args.tree:
        print(profile.call_tree.format())
    else:
        print(profile.format_flat(args.k))
        print()
        for share in profile.paradigm_shares():
            print(f"  {share.paradigm.name:<12} {100 * share.share:5.1f}%")
    return 0


def _cmd_render(args) -> int:
    from .viz import render_timeline_png

    trace = _load_trace(args.trace)
    import os

    os.makedirs(args.output, exist_ok=True)
    path = os.path.join(args.output, "timeline.png")
    # Feed the (possibly cached) replay into the renderer so rendering
    # after an `analyze --cache-dir` run replays nothing.
    tables = _session(trace, args).replay()
    render_timeline_png(trace, tables, path, show_messages=args.messages)
    print(f"wrote {path}")
    return 0


def _cmd_info(args) -> int:
    session = _session_for_path(args.trace, args)
    # The structural gate every analysis runs, without building tables:
    # a trace analyze would refuse gets the same verdict here.  The gate
    # reads the file rank by rank, and its extents complete the summary.
    session.validate()
    trace = session.trace
    for key, value in trace.summary().items():
        print(f"{key:>12}: {value}")
    if trace.attributes:
        print("  attributes:")
        for key, value in sorted(trace.attributes.items()):
            print(f"    {key} = {value}")
    return 0


def _lint_cli_config(args):
    """Assemble a LintConfig from --config file and command-line flags."""
    from .lint import LintConfig

    if args.lint_config is not None:
        try:
            with open(args.lint_config, "r", encoding="utf-8") as fp:
                data = json.load(fp)
            config = LintConfig.from_mapping(data)
        except FileNotFoundError:
            raise CLIError(f"lint config not found: {args.lint_config}")
        except (json.JSONDecodeError, TypeError, ValueError) as err:
            raise CLIError(f"bad lint config {args.lint_config}: {err}")
    else:
        config = LintConfig()
    overrides = {}
    if args.select:
        overrides["select"] = tuple(args.select)
    if args.ignore:
        overrides["ignore"] = tuple(args.ignore)
    return config.with_overrides(**overrides) if overrides else config


def _cmd_lint(args) -> int:
    from .lint import Severity, all_rules

    if args.rules:
        for rule in all_rules():
            print(
                f"{rule.code}  {rule.default_severity.name.lower():<7} "
                f"{rule.category:<12} {rule.scope:<5} {rule.short_help}"
            )
        return 0
    config = _lint_cli_config(args)
    report, _ = _session_for_path(args.trace, args).scan(config)
    if args.severity:
        report = report.filtered(min_severity=Severity.parse(args.severity))
    if args.fmt == "sarif":
        rendered = report.to_sarif()
    elif args.fmt == "json":
        rendered = report.to_json()
    else:
        rendered = report.to_text()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fp:
            fp.write(rendered + "\n")
        print(f"wrote {args.output}")
    else:
        print(rendered)
    return report.exit_code()


def _cmd_baselines(args) -> int:
    from .baselines import (
        analyze_profile_only,
        cluster_phases,
        search_patterns,
        select_representatives,
    )

    session = _session_for_path(args.trace, args)
    trace = session.trace

    print("== profile-only (TAU-style) ==")
    po = analyze_profile_only(session=session)
    print(f"  MPI share: {100 * po.mpi_share:.1f}%")
    for finding in po.findings[:6]:
        print(f"  [{finding.kind}] {finding.name}: {finding.detail}")

    print("== pattern search (Scalasca-style) ==")
    ps = search_patterns(session=session)
    for inst in ps.top(5):
        print(
            f"  [{inst.pattern}] {inst.region}: severity {inst.severity:.4g}s"
            f" waiting={inst.waiting_ranks[:3]} delaying={inst.delaying_ranks}"
        )

    print("== representatives (Mohror-style) ==")
    rep = select_representatives(session=session)
    print(
        f"  {len(rep.representatives)} representatives for "
        f"{trace.num_processes} processes (reduction {100 * rep.reduction:.0f}%)"
    )

    print("== phase clustering (Gonzalez-style) ==")
    cl = cluster_phases(session=session)
    print(f"  {len(cl.bursts)} bursts, cluster sizes {cl.cluster_sizes().tolist()}")
    return 0


def _cmd_convert(args) -> int:
    import os

    trace = _load_trace(args.trace)
    codec = _parse_codec_args(args.codec)
    _write_trace(trace, args.output, version=args.bin_version, codec=codec)
    in_size = os.path.getsize(args.trace)
    out_size = os.path.getsize(args.output)
    delta = out_size - in_size
    pct = (100.0 * delta / in_size) if in_size else 0.0
    print(
        f"wrote {args.output}: {out_size} bytes "
        f"({in_size} in, {delta:+d} bytes, {pct:+.1f}%)"
    )
    if not args.no_verify:
        from .trace.fingerprint import fingerprint_trace

        original = fingerprint_trace(trace)
        converted = fingerprint_trace(_load_trace(args.output))
        if converted.hexdigest != original.hexdigest:
            raise CLIError(
                f"round-trip fingerprint mismatch: wrote "
                f"{converted.short()} from {original.short()}"
            )
        print(f"round-trip fingerprint OK ({original.short()})")
    return 0


def _cmd_explain(args) -> int:
    from .core import explain_segment

    trace = _load_trace(args.trace)
    analysis = _session(trace, args).analysis(function=args.function or None)
    rank, segment = args.rank, args.segment
    if rank is not None and rank not in analysis.sos.ranks:
        raise CLIError(f"trace has no rank {rank}")
    if rank is None or segment is None:
        hot = analysis.imbalance.hottest_segment()
        if hot is None:
            hot_rank = analysis.imbalance.hottest_rank()
            if hot_rank is None:
                print("no findings to explain; pass --rank and --segment")
                return 1
            # Use the rank's own slowest segment.
            import numpy as np

            rank = hot_rank.rank if rank is None else rank
            sos = analysis.sos[rank].sos
            segment = int(np.argmax(sos)) if segment is None else segment
        else:
            rank = hot.rank if rank is None else rank
            segment = hot.segment_index if segment is None else segment
    try:
        explanation = explain_segment(analysis, rank, segment)
    except IndexError as err:  # no such segment
        raise CLIError(err.args[0]) from None
    print(explanation.format())
    return 0


def _cmd_monitor(args) -> int:
    from . import obs
    from .core.streaming import StreamingAnalyzer
    from .trace.cursor import BATCH_EVENTS

    chunk_events = args.chunk_events
    if chunk_events is None:
        # Whole ranks up to the kernel's batch size.  Chunking is a
        # transport detail: the output is the same at any size.
        chunk_events = BATCH_EVENTS
    if chunk_events < 1:
        raise CLIError(f"--chunk-events must be >= 1, got {chunk_events}")
    if args.window is not None and args.window < 1:
        raise CLIError(f"--window must be >= 1, got {args.window}")

    with _reading(args.trace):
        if args.follow:
            from .trace.cursor import TailCursor

            cursor = TailCursor(args.trace, idle_timeout=args.idle_timeout)
            definitions = cursor.wait_definitions()
        else:
            from .trace.reader import TraceIndex

            # The index parses only the chunk manifest; event data is
            # pulled chunk by chunk while feeding, so the monitor never
            # materializes the full trace.  Every column is decoded:
            # a corrupt blob gets the verdict analyze gives it.
            index = TraceIndex(args.trace)
            definitions = index.definitions_trace()
            cursor = index.cursor(chunk_events=chunk_events)
    if definitions.num_processes == 0:
        # The verdict analyze, lint and info give (rule TL011), without
        # loading the linter.
        raise CLIError(
            "invalid trace:\nerror[TL011] trace: trace has no locations"
        )

    analyzer = StreamingAnalyzer(
        definitions.regions,
        definitions.num_processes,
        dominant=args.function,
        alert_threshold=args.threshold,
        history_limit=args.window,
    )
    lag = obs.gauge("stream.lag_events")
    total = 0
    # Event columns are decoded batch by batch, so corrupt blobs surface
    # inside this loop, not at index construction.
    with _reading(args.trace):
        for batch in cursor:
            if len(batch.events):
                for alert in analyzer.feed(batch.rank, batch.events):
                    print(f"ALERT {alert}")
                total += len(batch.events)
            # A --follow run that stops on --idle-timeout has not seen
            # the end of the trace: the writer may still be in a frame.
            if batch.final and (not args.follow or cursor.ended):
                analyzer.finish_rank(batch.rank)
            lag.set(float(getattr(cursor, "backlog_events", 0)))
    print(
        f"streamed {total} events; dominant "
        f"{analyzer.dominant_name!r}; {len(analyzer.alerts)} alerts"
    )
    hot = analyzer.snapshot_hot_ranks()
    if hot:
        print(f"running totals flag ranks: {hot}")
    return 0


def _cmd_compare(args) -> int:
    from .core.compare import compare_analyses

    a = _session_for_path(args.trace_a, args).analysis(function=args.function)
    b = _session_for_path(args.trace_b, args).analysis(function=args.function)
    try:
        comparison = compare_analyses(
            a, b, min_relative_delta=args.min_relative_delta
        )
    except ValueError as err:  # runs that cannot be aligned
        raise CLIError(err) from None
    print(comparison.format())
    return 0


def _cmd_cache(args) -> int:
    import os

    from .core.session import ArtifactCache

    if not os.path.isdir(args.cache_dir):
        print(f"{args.cache_dir}: no cache (directory does not exist)")
        return 0
    cache = ArtifactCache(args.cache_dir)
    if args.action == "info":
        print(cache.info().format())
    else:
        removed = cache.clear()
        print(f"removed {removed} artifacts from {args.cache_dir}")
    return 0


def _cmd_stats(args) -> int:
    from .obs.export import SELF_TRACE_ATTR, summarize

    trace = _load_trace(args.trace)
    if trace.attributes.get(SELF_TRACE_ATTR) != "1":
        print(
            f"note: {args.trace} is not a self-trace; summarizing its "
            "regions as phases\n"
        )
    summary = summarize(trace)
    if not summary.phases and not summary.counters and not summary.gauges:
        print(
            f"{args.trace}: no telemetry recorded (no spans, counters "
            "or gauges) — run the producing command with --self-trace "
            "while work happens"
        )
        return 0
    if not summary.phases and summary.counters:
        print(
            f"{args.trace}: counters only (no spans recorded)\n"
        )
    print(summary.format())
    return 0


def _cmd_perf(args) -> int:
    from .perf import (
        PerfHistory,
        check_history,
        format_findings,
        format_report,
        record_bench_files,
    )

    try:
        history = PerfHistory.load(args.history)
    except ValueError as err:
        raise CLIError(str(err))
    except OSError as err:
        raise CLIError(f"cannot read history {args.history}: {err}")

    if args.action == "record":
        if not args.inputs:
            raise CLIError("perf record needs at least one BENCH_*.json")
        try:
            n = record_bench_files(
                history,
                args.inputs,
                sha=args.sha,
                machine=args.machine,
                timestamp=args.timestamp,
            )
        except FileNotFoundError as err:
            raise CLIError(f"benchmark record not found: {err.filename}")
        except (json.JSONDecodeError, ValueError) as err:
            raise CLIError(f"cannot parse benchmark record: {err}")
        history.save(args.history)
        print(
            f"recorded {n} measurement(s) into {args.history} "
            f"({len(history.rows)} total)"
        )
        return 0

    if args.action == "report":
        print(format_report(history))
        return 0

    findings = check_history(
        history,
        window=args.window,
        threshold=args.threshold,
        min_points=args.min_points,
        min_relative=args.min_relative,
    )
    print(format_findings(findings))
    if args.json_out:
        doc = [
            {
                "bench": f.bench,
                "test": f.test,
                "machine": f.machine,
                "kind": f.kind,
                "message": f.message,
                "latest_s": f.latest_s,
                "baseline_s": f.baseline_s,
            }
            for f in findings
        ]
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 1 if findings else 0


def _configure_cli_logging(args) -> None:
    """Route -v/-q/--log-level (or env fallbacks) through repro.obs.

    Without any of them the default configuration waits for the first
    logger a command asks for, so a command that logs nothing never
    imports :mod:`logging`.
    """
    from . import obs

    level = getattr(args, "log_level", None)
    if level is None:
        verbose = getattr(args, "verbose", 0)
        quiet = getattr(args, "quiet", 0)
        if verbose or quiet:
            level = obs.verbosity_level(verbose, quiet)
    try:
        if level is None:
            obs.configure_logging_on_use()
        else:
            obs.configure_logging(level=level)
    except ValueError as err:
        raise CLIError(str(err))


def _emit_telemetry(args, col, profiler=None) -> None:
    """Handle --self-trace / --stats / --profile."""
    from . import obs

    if profiler is not None:
        prof_path = getattr(args, "profile", None)
        if prof_path:
            try:
                profiler.write(prof_path)
            except OSError as err:
                raise CLIError(f"cannot write profile {prof_path}: {err}")
            print(
                f"wrote profile {prof_path}: {len(profiler.samples)} "
                f"samples at {1000 * profiler.interval:g} ms",
                file=sys.stderr,
            )
        if col is not None:
            # Fold the call paths in *before* the self-trace export so
            # the profile appears as one extra rank of the same trace.
            col.attach_profile(profiler)
    path = getattr(args, "self_trace", None)
    if path:
        from .obs.export import write_self_trace

        try:
            trace = write_self_trace(col, path)
        except OSError as err:
            raise CLIError(f"cannot write self-trace {path}: {err}")
        print(
            f"wrote self-trace {path}: {trace.num_processes} locations, "
            f"{trace.num_events} events",
            file=sys.stderr,
        )
    if getattr(args, "stats", False):
        summary = obs.summarize(col)
        print()
        if not summary.phases and not summary.counters and not summary.gauges:
            print(
                "no telemetry recorded (no spans, counters or gauges "
                "fired during this command)"
            )
            return
        print(summary.format())


def _cmd_deps(args) -> int:
    from .lint import LintConfig, graph_to_dot, graph_to_json_dict

    # The scan runs no rule: it only extracts the match records.
    _, graph = _session_for_path(args.trace, args).scan(
        LintConfig(ignore=("*",)), graph=True
    )
    if args.fmt == "json":
        rendered = json.dumps(graph_to_json_dict(graph), indent=2)
    else:
        rendered = graph_to_dot(graph)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fp:
            fp.write(rendered + "\n")
        print(f"wrote {args.output}")
    else:
        print(rendered)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "profile": _cmd_profile,
    "render": _cmd_render,
    "info": _cmd_info,
    "lint": _cmd_lint,
    "baselines": _cmd_baselines,
    "cache": _cmd_cache,
    "convert": _cmd_convert,
    "compare": _cmd_compare,
    "explain": _cmd_explain,
    "monitor": _cmd_monitor,
    "stats": _cmd_stats,
    "deps": _cmd_deps,
    "perf": _cmd_perf,
}


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        # Flush inside the guard so a closed pipe surfaces here rather
        # than as an unraisable error at interpreter shutdown.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away early (``repro-trace analyze ... | head``).
        # Point stdout at devnull so the final flush at exit cannot raise
        # again, and exit quietly (the Python docs' SIGPIPE recipe).
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def _enable_obs(started: float):
    """Switch telemetry on; under ``python -m repro`` it opens with a
    ``cli.import`` span from :data:`repro.__main__.ENTERED` to
    ``started``, the start of :func:`_run`."""
    from . import obs

    entry = sys.modules.get("__main__")
    if getattr(entry, "__spec__", None) is None or entry.__spec__.name != "repro.__main__":
        return obs.enable()
    col = obs.enable(obs.Collector(epoch=entry.ENTERED))
    col.record_span("cli.import", entry.ENTERED, started)
    return col


def _run(argv: list[str] | None) -> int:
    started = time.perf_counter()
    args = build_parser().parse_args(argv)
    try:
        _configure_cli_logging(args)
        col = None
        profiler = None
        wants_obs = (
            getattr(args, "self_trace", None)
            or getattr(args, "stats", False)
            or getattr(args, "profile", None)
        )
        if wants_obs:
            col = _enable_obs(started)
            if getattr(args, "profile", None):
                from .obs.profiler import Profiler

                interval = getattr(args, "profile_interval", 5.0)
                if interval <= 0:
                    raise CLIError(
                        f"--profile-interval must be > 0 ms, got {interval}"
                    )
                profiler = Profiler(
                    interval=interval / 1000.0, clock=col.clock
                )
                profiler.start()
        try:
            code = _COMMANDS[args.command](args)
        finally:
            if profiler is not None:
                profiler.stop()
            if col is not None:
                from . import obs

                col = obs.disable()
        if col is not None:
            _emit_telemetry(args, col, profiler)
        return code
    except CLIError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ValueError, LookupError) as err:
        # A failed structural gate (repro.lint.LintError) is bad input,
        # and so is a trace that fails to decode after _reading let go
        # of it (a session decodes its file on first use), or a
        # dominant function the trace cannot supply.  Looked up, not
        # imported: no such module need be loaded by now.
        lint_model = sys.modules.get("repro.lint.model")
        reader = sys.modules.get("repro.trace.reader")
        dominant = sys.modules.get("repro.core.dominant")
        if reader is not None and isinstance(err, reader.TraceFormatError):
            where = f"cannot read trace {err.path}: " if err.path else ""
            print(f"error: {where}{err}", file=sys.stderr)
            return EXIT_BAD_INPUT
        if dominant is not None and isinstance(err, dominant.SelectionError):
            print(f"error: {err.args[0]}", file=sys.stderr)
            return EXIT_BAD_INPUT
        if lint_model is None or not isinstance(err, lint_model.LintError):
            raise
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""tracelint — rule-based static analysis over trace event streams.

Linting answers "is this trace analyzable, and will the paper's
pipeline produce meaningful output from it?" *without* replaying the
trace.  Rules span three categories:

``structural`` (TL0xx)
    Well-formedness of the event streams: enter/leave balance,
    timestamp order, dangling definition references.  Those of error
    severity gate every analysis (:func:`validate_config`).
``mpi`` (TL1xx)
    Message semantics: send/receive count matching per rank pair,
    uniform collective participation, self-messages, zero-duration
    synchronization storms.
``precondition`` (TL2xx)
    The paper's analysis preconditions: the ``2p`` dominant-function
    invocation floor (Section IV), sync-classifier coverage
    (Section V), aligned per-rank segment counts, clock skew.
``hb`` (TL3xx)
    Cross-rank happens-before analysis over the global message-match
    graph (:mod:`repro.lint.hb`): potential deadlock cycles, wildcard
    receive races, collective order divergence, orphan messages and
    wait-chain root-cause attribution.  See ``docs/hb.md``.

Quick start::

    from repro.lint import lint_trace
    report = lint_trace(trace)
    print(report.to_text())
    report.raise_for_errors()        # pre-flight gate

or from the command line::

    repro lint trace.jsonl --format sarif -o findings.sarif

Custom rules register through the same decorator the built-ins use::

    import numpy as np
    from repro.lint import register_rule, Severity

    @register_rule("TL900", category="site", scope="rank",
                   severity=Severity.WARNING)
    def my_check(view):
        "One-line help shown in --format sarif and docs."
        # ``view`` is a BatchView over several ranks: name each rank.
        for slot in np.flatnonzero(view.counts > 10**9).tolist():
            yield view.finding(slot, "suspiciously gigantic stream")
"""

from .engine import (
    BatchView,
    LintShared,
    RankSummary,
    TraceView,
    finalize_report,
    hb_rules_enabled,
    lint_trace,
    validate_config,
)
from .model import Diagnostic, LintConfig, LintError, LintReport, Severity
from .registry import (
    Finding,
    Rule,
    all_rules,
    enabled_rules,
    get_rule,
    register_rule,
    validate_subset_codes,
)

__all__ = [
    "Severity",
    "Diagnostic",
    "LintConfig",
    "LintError",
    "LintReport",
    "Finding",
    "Rule",
    "register_rule",
    "all_rules",
    "get_rule",
    "enabled_rules",
    "validate_subset_codes",
    "BatchView",
    "LintShared",
    "RankSummary",
    "TraceView",
    "finalize_report",
    "lint_trace",
    "validate_config",
    "sarif_dict",
    "HBView",
    "MatchGraph",
    "MatchRecords",
    "VectorClockEngine",
    "extract_match_records",
    "match_graph_for_trace",
    "graph_to_dot",
    "graph_to_json_dict",
    "hb_rules_enabled",
]

#: Names of the happens-before analyzer and the SARIF writer, imported
#: on first use: the structural gate of every analysis needs neither.
_LAZY = {
    "HBView": "hb",
    "MatchGraph": "hb",
    "MatchRecords": "hb",
    "VectorClockEngine": "hb",
    "extract_match_records": "hb",
    "graph_to_dot": "hb",
    "graph_to_json_dict": "hb",
    "match_graph_for_trace": "hb",
    "sarif_dict": "sarif",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro.lint' has no attribute {name!r}")

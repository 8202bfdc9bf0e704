"""SARIF 2.1.0 rendering of a :class:`~repro.lint.model.LintReport`.

SARIF (Static Analysis Results Interchange Format) is the common
output format of static analyzers, consumed by code-scanning UIs and
CI annotation services.  The mapping here is deliberately minimal but
schema-valid: one run, one tool driver carrying the full rule catalog
(so viewers can show help text for every rule, fired or not), one
result per diagnostic.

Trace diagnostics do not live in source files, so locations point at
the trace artifact (``source`` when linting a path, the trace name
otherwise) and carry the event stream coordinates — rank, event
index, timestamp — in ``properties`` where file/line would normally
go.  ``logicalLocations`` names the rank so GitHub-style viewers still
group findings sensibly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .registry import all_rules

if TYPE_CHECKING:  # pragma: no cover
    from .model import LintReport

__all__ = ["sarif_dict", "SARIF_VERSION", "SARIF_SCHEMA"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Tool version reported in the SARIF driver; bump on rule changes.
TOOL_VERSION = "1.1.0"


def _rule_descriptor(rule) -> dict[str, Any]:
    return {
        "id": rule.code,
        "name": rule.name,
        "shortDescription": {"text": rule.short_help},
        "fullDescription": {"text": rule.full_help},
        "defaultConfiguration": {"level": rule.default_severity.sarif_level},
        "properties": {"category": rule.category, "scope": rule.scope},
    }


def sarif_dict(report: "LintReport") -> dict[str, Any]:
    """Render a report as a SARIF 2.1.0 log object (a plain dict)."""
    rules = all_rules()
    rule_index = {rule.code: i for i, rule in enumerate(rules)}
    artifact = report.source or report.trace_name or "trace"

    results: list[dict[str, Any]] = []
    for diag in report.diagnostics:
        properties: dict[str, Any] = {"rank": diag.rank}
        if diag.position >= 0:
            properties["event"] = diag.position
        if diag.time is not None:
            properties["time"] = diag.time
        location: dict[str, Any] = {
            "physicalLocation": {
                "artifactLocation": {"uri": artifact},
            },
            "logicalLocations": [
                {
                    "name": f"rank {diag.rank}" if diag.rank >= 0 else "trace",
                    "kind": "process",
                }
            ],
        }
        result: dict[str, Any] = {
            "ruleId": diag.code,
            "level": diag.severity.sarif_level,
            "message": {"text": diag.message},
            "locations": [location],
            "properties": properties,
        }
        if diag.code in rule_index:
            result["ruleIndex"] = rule_index[diag.code]
        results.append(result)

    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "tracelint",
                        "version": TOOL_VERSION,
                        "informationUri": (
                            "https://example.invalid/repro/docs/lint.md"
                        ),
                        "rules": [_rule_descriptor(r) for r in rules],
                    }
                },
                "artifacts": [{"location": {"uri": artifact}}],
                "results": results,
                "properties": {
                    "trace": report.trace_name,
                    "ranks": report.num_ranks,
                    "events": report.num_events,
                    "rulesRun": list(report.rules_run),
                },
            }
        ],
    }

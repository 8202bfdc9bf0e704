"""Data model of the tracelint static-analysis pass.

Diagnostics are the lint analogue of compiler warnings: each one names
the rule that produced it (a stable ``TLxxx`` code), the severity, the
location in the event stream (rank, event index, timestamp) and a
human-readable message.  A :class:`LintReport` is a deterministic,
sorted collection of diagnostics with renderers for text, JSON and
SARIF 2.1.0 (:mod:`repro.lint.sarif`).
"""

from __future__ import annotations

import enum
import fnmatch
import json
from typing import Any, Iterable, Mapping

from .._record import field, fields, record, replace
from ..core.classify import SyncClassifier, default_classifier

__all__ = [
    "Severity",
    "Diagnostic",
    "LintConfig",
    "LintError",
    "LintReport",
]


class Severity(enum.IntEnum):
    """Diagnostic severity; ordering is meaningful (ERROR is highest)."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r} (want info, warning or error)"
            ) from None

    @property
    def sarif_level(self) -> str:
        """SARIF 2.1.0 ``level`` string for this severity."""
        return {
            Severity.INFO: "note",
            Severity.WARNING: "warning",
            Severity.ERROR: "error",
        }[self]


@record(frozen=True, slots=True)
class Diagnostic:
    """One finding of a lint rule.

    ``rank`` is -1 for trace-global findings; ``position`` is the event
    index inside the rank's stream (-1 when the finding has no single
    anchor event) and ``time`` the anchor event's timestamp.
    """

    code: str
    severity: Severity
    message: str
    rank: int = -1
    position: int = -1
    time: float | None = None
    category: str = ""

    @property
    def sort_key(self) -> tuple:
        return (self.code, self.rank, self.position, self.message)

    def __str__(self) -> str:
        where = f"rank {self.rank}" if self.rank >= 0 else "trace"
        loc = ""
        if self.position >= 0:
            loc = f" @ event {self.position}"
        if self.time is not None:
            loc += f" (t={self.time:.6g})"
        return (
            f"{self.severity.name.lower()}[{self.code}] {where}{loc}: "
            f"{self.message}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity.name.lower(),
            "category": self.category,
            "rank": self.rank,
            "position": self.position,
            "time": self.time,
            "message": self.message,
        }


class LintError(ValueError):
    """Raised by the pre-flight gate when error-severity findings exist.

    Carries the full :class:`LintReport` so callers can still render
    warnings or machine-readable output from the failure.
    """

    def __init__(self, report: "LintReport", header: str = "invalid trace"):
        self.report = report
        errors = [d for d in report.diagnostics if d.severity >= Severity.ERROR]
        lines = "\n".join(str(d) for d in errors)
        super().__init__(f"{header}:\n{lines}")


@record(frozen=True)
class LintConfig:
    """Knobs of a tracelint run.

    ``select``/``ignore`` hold fnmatch-style patterns over rule codes
    (``TL001``, ``TL1*``); an empty ``select`` means *all registered
    rules*.  ``severity_overrides`` remaps a rule's default severity,
    and the threshold fields parameterize the paper-precondition and
    MPI-semantic rules.  Instances are picklable so shard workers can
    receive them verbatim.
    """

    select: tuple[str, ...] = ()
    ignore: tuple[str, ...] = ()
    min_severity: Severity = Severity.INFO
    severity_overrides: tuple[tuple[str, Severity], ...] = ()
    allow_empty_streams: bool = False
    #: dominant-function floor: invocations >= factor * processes
    min_invocation_factor: float = 2.0
    #: TL202 fires when classified sync time / communication time < this
    sync_coverage_min: float = 0.5
    #: TL204 fires when a rank's start skew exceeds this fraction of the
    #: trace duration
    clock_skew_tolerance: float = 0.05
    #: TL104 fires when >= this fraction of sync invocations (and at
    #: least ``zero_sync_min`` of them) have exactly zero duration
    zero_sync_fraction: float = 0.25
    zero_sync_min: int = 8
    #: TL305 counts a receive as chain-significant when its blocked
    #: time reaches this fraction of the trace duration
    hb_wait_fraction: float = 0.05
    #: TL305 reports a wait chain only when it spans at least this many
    #: distinct ranks ...
    hb_chain_min_ranks: int = 3
    #: ... and its summed blocked time reaches this fraction of the
    #: trace duration.  Blocked time sums across concurrently waiting
    #: ranks, so values > 1 are meaningful; the default stays above
    #: what the mild phenomenon corpus (idle_wave/late_sender) exhibits
    #: and flags only chains that dominate the run.  Lower it (e.g. to
    #: 0.5) to use TL305 as a general idle-wave detector.
    hb_chain_wait_ratio: float = 2.0
    classifier: SyncClassifier = field(default_factory=default_classifier)

    def rule_enabled(self, code: str) -> bool:
        """Apply ``select``/``ignore`` patterns to a rule code."""
        if self.select and not any(
            fnmatch.fnmatchcase(code, pat) for pat in self.select
        ):
            return False
        return not any(fnmatch.fnmatchcase(code, pat) for pat in self.ignore)

    def severity_of(self, code: str, default: Severity) -> Severity:
        for pattern, severity in self.severity_overrides:
            if fnmatch.fnmatchcase(code, pattern):
                return severity
        return default

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "LintConfig":
        """Build a config from a parsed ``--config`` file mapping.

        Accepts the field names of this record; ``select``/``ignore``
        may be lists, ``severity_overrides`` a ``{code: severity}``
        mapping, ``min_severity`` a string.
        """
        kwargs: dict[str, Any] = {}
        known = {f.name for f in fields(cls)}
        for key, value in data.items():
            if key not in known:
                raise ValueError(f"unknown lint config key {key!r}")
            if key in ("select", "ignore"):
                value = tuple(str(v) for v in value)
            elif key == "min_severity":
                value = Severity.parse(str(value))
            elif key == "severity_overrides":
                value = tuple(
                    (str(code), Severity.parse(str(sev)))
                    for code, sev in dict(value).items()
                )
            elif key == "classifier":
                raise ValueError(
                    "classifier cannot be set from a config file; "
                    "construct a LintConfig programmatically"
                )
            kwargs[key] = value
        return cls(**kwargs)

    def with_overrides(self, **kwargs: Any) -> "LintConfig":
        return replace(self, **kwargs)


@record(frozen=True)
class LintReport:
    """Deterministically ordered result of one tracelint run."""

    diagnostics: tuple[Diagnostic, ...]
    #: codes of the rules that actually ran (post select/ignore)
    rules_run: tuple[str, ...]
    num_events: int = 0
    num_ranks: int = 0
    trace_name: str = ""
    source: str | None = None

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def max_severity(self) -> Severity | None:
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    def counts(self) -> dict[str, int]:
        out = {s.name.lower(): 0 for s in Severity}
        for d in self.diagnostics:
            out[d.severity.name.lower()] += 1
        return out

    def exit_code(self) -> int:
        """CLI convention: 0 clean/info, 1 warnings, 2 errors."""
        top = self.max_severity
        if top is None or top <= Severity.INFO:
            return 0
        return 2 if top >= Severity.ERROR else 1

    def filtered(
        self,
        min_severity: Severity | None = None,
        select: Iterable[str] = (),
        ignore: Iterable[str] = (),
    ) -> "LintReport":
        """Report restricted by severity floor and code patterns."""
        select = tuple(select)
        ignore = tuple(ignore)

        def keep(d: Diagnostic) -> bool:
            if min_severity is not None and d.severity < min_severity:
                return False
            if select and not any(
                fnmatch.fnmatchcase(d.code, p) for p in select
            ):
                return False
            return not any(fnmatch.fnmatchcase(d.code, p) for p in ignore)

        return replace(
            self, diagnostics=tuple(d for d in self.diagnostics if keep(d))
        )

    def raise_for_errors(self, header: str = "invalid trace") -> None:
        """Raise :class:`LintError` if any error-severity finding exists."""
        top = self.max_severity
        if top is not None and top >= Severity.ERROR:
            raise LintError(self, header=header)

    # -- renderers -----------------------------------------------------

    def to_text(self) -> str:
        name = self.trace_name or self.source or "trace"
        lines = [
            f"tracelint: {name} — {self.num_ranks} ranks, "
            f"{self.num_events} events, {len(self.rules_run)} rules"
        ]
        for d in self.diagnostics:
            lines.append(str(d))
        counts = self.counts()
        lines.append(
            f"{counts['error']} errors, {counts['warning']} warnings, "
            f"{counts['info']} notes"
        )
        return "\n".join(lines)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "tool": "tracelint",
            "trace": self.trace_name,
            "source": self.source,
            "ranks": self.num_ranks,
            "events": self.num_events,
            "rules_run": list(self.rules_run),
            "counts": self.counts(),
            "exit_code": self.exit_code(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=False)

    def to_sarif_dict(self) -> dict[str, Any]:
        from .sarif import sarif_dict

        return sarif_dict(self)

    def to_sarif(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_sarif_dict(), indent=indent)

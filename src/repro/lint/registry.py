"""Rule registry of the tracelint engine.

A *rule* is a function that inspects a trace (or one rank's event
stream) and yields findings.  Rules register themselves with
:func:`register_rule`, declaring a stable code (``TLxxx``), a category,
a default severity and — crucially for the sharded engine — a *scope*:

``rank``
    The rule sees one rank's events at a time.  Rank-scoped rules run
    inside shard workers on chunked reads, so linting scales the same
    way the analysis engine does.
``trace``
    The rule sees the cross-rank picture: the merged per-rank
    summaries (:class:`~repro.lint.engine.RankSummary`).  Trace-scoped
    rules run once, in the parent, after the per-rank partials merged.
``hb``
    The rule sees the global message-match graph
    (:class:`~repro.lint.hb.HBView`): per-rank match records are
    extracted inside shard workers, assembled into one graph in the
    parent, and the rule runs once over the complete cross-rank
    happens-before structure.  The engine *refuses* to finalize a
    report with hb rules enabled unless match records for every rank
    are present — an hb rule can never silently see a partial trace.

Help text is derived from the rule function's docstring; the first
line becomes the SARIF ``shortDescription`` and the rule-catalog
entry in ``docs/lint.md``.
"""

from __future__ import annotations

import inspect
from typing import Callable, Iterable, Iterator

from .._record import record
from .model import LintConfig, Severity

__all__ = [
    "Finding",
    "Rule",
    "register_rule",
    "all_rules",
    "get_rule",
    "enabled_rules",
    "validate_subset_codes",
]


@record(frozen=True, slots=True)
class Finding:
    """Lightweight result yielded by a rule's check function.

    The engine stamps the rule's code, category and (default) severity
    onto it to produce a full :class:`~repro.lint.model.Diagnostic`.
    """

    message: str
    rank: int = -1
    position: int = -1
    time: float | None = None
    severity: Severity | None = None  # override the rule default


@record(frozen=True)
class Rule:
    """One registered lint rule."""

    code: str
    name: str
    category: str  # "structural" | "mpi" | "precondition" | "hb"
    scope: str  # "rank" | "trace" | "hb"
    default_severity: Severity
    check: Callable[..., Iterable[Finding]]

    @property
    def short_help(self) -> str:
        doc = inspect.getdoc(self.check) or self.name
        return doc.splitlines()[0].strip()

    @property
    def full_help(self) -> str:
        return inspect.getdoc(self.check) or self.name


_REGISTRY: dict[str, Rule] = {}


def register_rule(
    code: str,
    *,
    category: str,
    scope: str,
    severity: Severity,
    name: str | None = None,
) -> Callable[[Callable[..., Iterable[Finding]]], Callable[..., Iterable[Finding]]]:
    """Class-of-2 decorator registering a check function as a rule.

    The decorated function keeps working as a plain function; the
    registry stores it alongside its metadata.  Codes must be unique
    and of the form ``TL`` + digits so ``--select TL1*`` style
    patterns behave predictably.
    """
    if scope not in ("rank", "trace", "hb"):
        raise ValueError(
            f"rule scope must be 'rank', 'trace' or 'hb', got {scope!r}"
        )
    if not (code.startswith("TL") and code[2:].isdigit()):
        raise ValueError(f"rule code must look like TL123, got {code!r}")

    def decorator(fn: Callable[..., Iterable[Finding]]):
        if code in _REGISTRY:
            raise ValueError(f"duplicate rule code {code}")
        _REGISTRY[code] = Rule(
            code=code,
            name=name or fn.__name__.replace("_", "-"),
            category=category,
            scope=scope,
            default_severity=severity,
            check=fn,
        )
        return fn

    return decorator


def _ensure_builtin_rules() -> None:
    # Importing the rule modules populates the registry exactly once.
    from . import rules_hb, rules_semantic, rules_structural  # noqa: F401


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by code."""
    _ensure_builtin_rules()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> Rule:
    _ensure_builtin_rules()
    try:
        return _REGISTRY[code]
    except KeyError:
        raise KeyError(f"no lint rule with code {code!r}") from None


def enabled_rules(config: LintConfig, scope: str | None = None) -> Iterator[Rule]:
    """Rules that survive the config's select/ignore, optionally by scope."""
    for rule in all_rules():
        if scope is not None and rule.scope != scope:
            continue
        if config.rule_enabled(rule.code):
            yield rule


def validate_subset_codes() -> tuple[str, ...]:
    """Codes of the structural rules of error default severity.

    These are the checks every analysis runs before replay: a stream
    that fails one cannot be replayed.
    """
    return tuple(
        r.code
        for r in all_rules()
        if r.category == "structural" and r.default_severity >= Severity.ERROR
    )

"""Ground truth and output checks for the end-to-end benchmark.

The expected hot ranks come from the simulator's own per-rank SPECS
cost input (``cosmo_specs._specs_costs``): the cloud that makes those
ranks slow is an input of the simulation, so ranking the ranks by that
input needs none of the analysis code.  This module imports nothing
from ``repro.core``, ``repro.profiles`` or ``repro.lint``; it parses the
CLI's text, JSON and HTML outputs with its own regular expressions.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

#: Number of ranks the COSMO-SPECS cloud covers (its hot set).
HOT_COUNT = 6
#: The paper's dominant function for COSMO-SPECS.
DOMINANT = "timeloop_iteration"

_WROTE = re.compile(r"^wrote .*: (\d+) processes, (\d+) events", re.M)
_SELECTED = re.compile(r"^\s*selected: '([^']*)'", re.M)
_EVENTS = re.compile(r"^\s*processes: \d+\s+events: (\d+)", re.M)
_HOT_LINE = re.compile(r"^\s*rank (\d+): total SOS", re.M)
_STREAMED = re.compile(r"^streamed (\d+) events; dominant '([^']*)'; \d+ alerts$", re.M)
_FLAGGED = re.compile(r"^running totals flag ranks: \[([\d, ]*)\]$", re.M)


@dataclass(frozen=True)
class Truth:
    """What every output of one trace must report."""

    hot_ranks: tuple[int, ...]
    events: int
    dominant: str = DOMINANT


def hot_ranks(processes: int, iterations: int, seed: int) -> tuple[int, ...]:
    """Top ranks by total SPECS cost, hottest first.

    ``processes`` must be a square of at least 7x7: on smaller grids the
    cloud does not cover six distinct ranks.
    """
    import numpy as np
    from repro.sim.workloads.cosmo_specs import CosmoSpecsConfig, _specs_costs

    side = int(round(processes**0.5))
    config = CosmoSpecsConfig(px=side, py=side, iterations=iterations, seed=seed)
    totals = _specs_costs(config).sum(axis=0)
    order = np.argsort(-totals, kind="stable")
    return tuple(int(rank) for rank in order[:HOT_COUNT])


def simulated_events(stdout: str) -> int:
    """Event count that ``repro simulate`` reports for the file it wrote."""
    match = _WROTE.search(stdout)
    if match is None:
        raise ValueError(f"simulate printed no event count: {stdout!r}")
    return int(match.group(2))


def _compare(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, want {want!r}"]


def check_report(stdout: str, truth: Truth) -> list[str]:
    """Problems in the text report ``repro analyze`` prints."""
    problems: list[str] = []
    selected = _SELECTED.search(stdout)
    events = _EVENTS.search(stdout)
    problems += _compare("report dominant", selected and selected.group(1), truth.dominant)
    problems += _compare("report events", events and int(events.group(1)), truth.events)
    ranks = tuple(int(r) for r in _HOT_LINE.findall(stdout))
    problems += _compare("report hot ranks", ranks, truth.hot_ranks)
    return problems


def check_json(path: Path, truth: Truth) -> list[str]:
    """Problems in the ``analyze --json`` summary."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        dominant = doc["dominant"]["name"]
        events = doc["events"]
        ranks = tuple(hot["rank"] for hot in doc["hot_ranks"])
    except (OSError, ValueError, KeyError, TypeError) as err:
        return [f"unreadable JSON summary {path.name}: {err!r}"]
    return (
        _compare("JSON dominant", dominant, truth.dominant)
        + _compare("JSON events", events, truth.events)
        + _compare("JSON hot ranks", ranks, truth.hot_ranks)
    )


def check_html(path: Path, truth: Truth) -> list[str]:
    """Problems in the ``analyze --html`` report."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        return [f"missing HTML report {path.name}: {err!r}"]
    problems = []
    if "<svg" not in text:
        problems.append("HTML report has no <svg heat map")
    if truth.dominant not in text:
        problems.append(f"HTML report does not name {truth.dominant!r}")
    return problems


def check_monitor(stdout: str, truth: Truth) -> list[str]:
    """Problems in the ``repro monitor`` summary lines."""
    streamed = _STREAMED.search(stdout)
    flagged = _FLAGGED.search(stdout)
    if streamed is None or flagged is None:
        return [f"monitor summary missing: {stdout[-300:]!r}"]
    ranks = tuple(int(r) for r in flagged.group(1).split(",") if r.strip())
    return (
        _compare("streamed events", int(streamed.group(1)), truth.events)
        + _compare("stream dominant", streamed.group(2), truth.dominant)
        + _compare("stream hot ranks", ranks, truth.hot_ranks)
    )


def check_process(code: int, stderr: str) -> list[str]:
    """Problems visible in a child's exit status and standard error."""
    problems = [] if code == 0 else [f"exit code {code}"]
    if "Traceback" in stderr:
        problems.append("Traceback on stderr")
    return problems

"""Benchmark regression radar: the paper's detection, aimed at ourselves.

The repo's benchmark harness leaves machine-readable ``BENCH_*.json``
records after every run (wall time, counters, git sha).  This module
turns those one-shot records into a *history* and runs the paper's own
performance-variation machinery over it:

* **store** — an append-ordered JSONL history, content-addressed by
  ``(bench, test, git_sha, machine fingerprint)``: re-recording the
  same build on the same machine replaces the old row in place, so CI
  retries never inflate the series;
* **outlier test** — the newest point of each series is compared
  against the trailing window with the robust median/MAD z-score the
  imbalance detector uses (scaled MAD, floored at 1 % of the median so
  a perfectly flat history cannot divide by zero);
* **drift test** — the O(n)-memory Theil–Sen estimator plus the
  Mann–Kendall significance test from :mod:`repro.core.variation`,
  flagging slow monotonic growth that never trips the outlier test.

``repro perf record`` ingests BENCH files, ``repro perf check`` exits
nonzero when any benchmark regressed (naming it), ``repro perf
report`` prints the trajectory.  CI runs ``check`` against a committed
fixture with an injected 2× slowdown (must trip) and against the real
history (must stay green).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time

import numpy as np

from ._record import field, record
from .core import MAD_SCALE

__all__ = [
    "Finding",
    "PerfHistory",
    "check_history",
    "format_findings",
    "format_report",
    "machine_fingerprint",
    "record_bench_files",
]


def machine_fingerprint() -> str:
    """Short content hash of the facts that make timings comparable.

    Two runs share a fingerprint iff they ran on the same platform,
    architecture and core count — series never mix machines.
    """
    facts = json.dumps(
        [
            platform.system(),
            platform.machine(),
            platform.python_implementation(),
            os.cpu_count() or 0,
        ],
        sort_keys=True,
    )
    return hashlib.sha256(facts.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# History store
# ---------------------------------------------------------------------------


@record(slots=True)
class PerfHistory:
    """Append-ordered benchmark history, one JSON object per line.

    Rows carry ``bench``/``test``/``wall_s``/``git_sha``/``machine``/
    ``recorded_at`` plus optional ``events_per_s``.  The identity key
    is ``(bench, test, git_sha, machine)`` — :meth:`add` replaces an
    existing row with the same key in place (same position), keeping
    one measurement per build per machine and a stable series order.
    """

    rows: list[dict] = field(default_factory=list)

    _KEY = ("bench", "test", "git_sha", "machine")

    @staticmethod
    def _key(row: dict) -> tuple:
        return tuple(row.get(k) or "" for k in PerfHistory._KEY)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "PerfHistory":
        rows: list[dict] = []
        path = os.fspath(path)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        row = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise ValueError(
                            f"{path}:{lineno}: not valid JSON: {exc}"
                        ) from None
                    if not isinstance(row, dict):
                        raise ValueError(
                            f"{path}:{lineno}: expected an object"
                        )
                    rows.append(row)
        return cls(rows=rows)

    def save(self, path: str | os.PathLike) -> None:
        path = os.fspath(path)
        text = "".join(
            json.dumps(row, sort_keys=True) + "\n" for row in self.rows
        )
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)

    def add(self, row: dict) -> bool:
        """Insert ``row``; same-key rows are replaced.  True if new."""
        key = self._key(row)
        for i, existing in enumerate(self.rows):
            if self._key(existing) == key:
                self.rows[i] = row
                return False
        self.rows.append(row)
        return True

    def series(self) -> dict[tuple[str, str, str], list[dict]]:
        """Rows grouped by ``(bench, test, machine)``, oldest first.

        Sorted by ``recorded_at`` (stable: rows without a timestamp keep
        history order) so a hand-merged or re-concatenated history file
        still yields chronological series.
        """
        out: dict[tuple[str, str, str], list[dict]] = {}
        for row in self.rows:
            key = (
                str(row.get("bench") or ""),
                str(row.get("test") or ""),
                str(row.get("machine") or ""),
            )
            out.setdefault(key, []).append(row)
        for rows in out.values():
            rows.sort(key=lambda r: float(r.get("recorded_at") or 0.0))
        return out


def record_bench_files(
    history: PerfHistory,
    paths: list[str],
    sha: str | None = None,
    machine: str | None = None,
    timestamp: float | None = None,
) -> int:
    """Ingest ``BENCH_*.json`` records into ``history``.

    Returns the number of rows added or replaced.  Non-dict result
    entries (legacy flat schemas) are skipped — the harness only emits
    per-test dicts since the dual-copy writer landed.
    """
    machine = machine or machine_fingerprint()
    recorded_at = time.time() if timestamp is None else float(timestamp)
    n = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        bench = str(doc.get("bench") or os.path.basename(path))
        row_sha = sha or str(doc.get("git_sha") or "")
        results = doc.get("results", {})
        if not isinstance(results, dict):
            continue
        for test, entry in sorted(results.items()):
            if not isinstance(entry, dict) or "wall_s" not in entry:
                continue
            row = {
                "bench": bench,
                "test": test,
                "wall_s": float(entry["wall_s"]),
                "git_sha": row_sha,
                "machine": machine,
                "recorded_at": recorded_at,
            }
            eps = entry.get("events_per_s")
            if eps is not None:
                row["events_per_s"] = float(eps)
            history.add(row)
            n += 1
    return n


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------


@record(frozen=True, slots=True)
class Finding:
    """One detected performance variation in a benchmark series."""

    bench: str
    test: str
    machine: str
    kind: str  # "outlier" | "drift"
    message: str
    latest_s: float
    baseline_s: float

    def format(self) -> str:
        return (
            f"[{self.kind}] {self.bench}::{self.test} "
            f"(machine {self.machine or '?'}): {self.message}"
        )


def _robust_scale(window: np.ndarray, med: float) -> float:
    mad = float(np.median(np.abs(window - med)))
    return max(MAD_SCALE * mad, 0.01 * abs(med), 1e-12)


def check_history(
    history: PerfHistory,
    window: int = 20,
    threshold: float = 4.0,
    min_points: int = 5,
    min_relative: float = 0.10,
    drift_total: float = 0.15,
    drift_p: float = 0.05,
) -> list[Finding]:
    """Run outlier + drift detection over every series in ``history``.

    outlier:
        The latest point sits more than ``threshold`` robust z-scores
        *above* the trailing-window median **and** more than
        ``min_relative`` (fraction) above it — both conditions, so
        microsecond-flat series cannot alarm on noise.  Needs
        ``min_points`` measurements.
    drift:
        The Mann–Kendall test finds a significant (``p < drift_p``)
        monotonic increase and the Theil–Sen slope accumulates to more
        than ``drift_total`` relative growth across the series.  Needs
        ``2 * min_points`` measurements (slope on fewer is folklore).
    """
    from .core.variation import mann_kendall, theil_sen_slope

    findings: list[Finding] = []
    for (bench, test, machine), rows in sorted(history.series().items()):
        values = np.asarray([float(r["wall_s"]) for r in rows])
        n = len(values)
        if n >= min_points:
            trailing = values[max(0, n - 1 - window) : n - 1]
            med = float(np.median(trailing))
            latest = float(values[-1])
            scale = _robust_scale(trailing, med)
            z = (latest - med) / scale
            rel = (latest - med) / med if med > 0 else 0.0
            if z > threshold and rel > min_relative:
                findings.append(
                    Finding(
                        bench=bench,
                        test=test,
                        machine=machine,
                        kind="outlier",
                        message=(
                            f"latest {latest:.6g}s vs trailing median "
                            f"{med:.6g}s (+{100 * rel:.1f}%, "
                            f"robust z={z:.1f})"
                        ),
                        latest_s=latest,
                        baseline_s=med,
                    )
                )
        if n >= 2 * min_points:
            slope = theil_sen_slope(values)
            med_all = float(np.median(values))
            total_rel = slope * (n - 1) / med_all if med_all > 0 else 0.0
            _tau, p = mann_kendall(values)
            if slope > 0 and p < drift_p and total_rel > drift_total:
                findings.append(
                    Finding(
                        bench=bench,
                        test=test,
                        machine=machine,
                        kind="drift",
                        message=(
                            f"Theil–Sen slope +{100 * total_rel:.1f}% "
                            f"across {n} runs (Mann–Kendall p={p:.3g})"
                        ),
                        latest_s=float(values[-1]),
                        baseline_s=med_all,
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def format_findings(findings: list[Finding]) -> str:
    if not findings:
        return "perf radar: no variations detected"
    lines = [f"perf radar: {len(findings)} variation(s) detected"]
    lines.extend(f.format() for f in findings)
    return "\n".join(lines)


def format_report(history: PerfHistory) -> str:
    """Trajectory table: one row per series, newest measurement last."""
    lines = [
        f"{'bench::test':<52}{'runs':>6}{'median s':>12}"
        f"{'latest s':>12}{'delta':>8}"
    ]
    for (bench, test, machine), rows in sorted(history.series().items()):
        values = np.asarray([float(r["wall_s"]) for r in rows])
        med = float(np.median(values))
        latest = float(values[-1])
        delta = (latest - med) / med if med > 0 else 0.0
        label = f"{bench}::{test}"
        if len(label) > 50:
            label = label[:47] + "..."
        lines.append(
            f"{label:<52}{len(values):>6}{med:>12.5f}"
            f"{latest:>12.5f}{100 * delta:>+7.1f}%"
        )
    if len(lines) == 1:
        lines.append("  (history is empty)")
    return "\n".join(lines)

"""Computation-phase clustering (the González et al. baseline).

González, Giménez & Labarta [7] characterise the computation phases of
a run by clustering *compute bursts* (the exclusive stretches between
MPI calls) on features such as duration and instructions-per-cycle.
The paper's criticism: the result classifies phase *types* but "does
not highlight individual variations within processes".

Implementation: burst extraction from invocation tables, features
(duration, cycle rate when a cycles counter is present), and a
deterministic k-means (k-means++ seeding, own implementation — scipy's
kmeans does not guarantee determinism across versions).
"""

from __future__ import annotations

import numpy as np

from .._record import field, record
from ..core.metrics import metric_series
from ..profiles.profile import TraceProfile
from ..sim.countermodel import PAPI_TOT_CYC
from ..trace.definitions import Paradigm
from ..trace.trace import Trace
from ._common import resolve_inputs

__all__ = ["Burst", "ClusterResult", "extract_bursts", "kmeans", "cluster_phases"]


@record(frozen=True, slots=True)
class Burst:
    """One computation burst (leaf USER-region invocation)."""

    rank: int
    t_start: float
    duration: float
    region: int
    cycle_rate: float  # cycles per second inside the burst (0 if unknown)


@record(slots=True)
class ClusterResult:
    """K-means clustering of computation bursts."""

    bursts: list[Burst] = field(default_factory=list)
    labels: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    centroids: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))
    inertia: float = 0.0

    def cluster_sizes(self) -> np.ndarray:
        if len(self.labels) == 0:
            return np.empty(0, dtype=np.int64)
        return np.bincount(self.labels, minlength=len(self.centroids))

    def outlier_bursts(self, max_share: float = 0.02) -> list[Burst]:
        """Bursts in clusters holding at most ``max_share`` of all bursts.

        Small clusters are the method's closest notion of "anomaly".
        """
        sizes = self.cluster_sizes()
        total = sizes.sum()
        if total == 0:
            return []
        small = np.flatnonzero(sizes <= max_share * total)
        return [
            b for b, label in zip(self.bursts, self.labels) if label in small
        ]


def extract_bursts(
    trace: Trace,
    profile: TraceProfile | None = None,
    min_duration: float = 0.0,
) -> list[Burst]:
    """Collect leaf USER-region invocations as computation bursts."""
    trace, profile = resolve_inputs(trace, profile, None)
    user_ids = np.asarray(
        [r.id for r in trace.regions if r.paradigm == Paradigm.USER],
        dtype=np.int32,
    )
    cycles = (
        metric_series(trace, PAPI_TOT_CYC)
        if PAPI_TOT_CYC in trace.metrics
        else None
    )
    bursts: list[Burst] = []
    for rank in trace.ranks:
        table = profile.tables[rank]
        if len(table) == 0:
            continue
        has_child = np.zeros(len(table), dtype=bool)
        has_child[table.parent[table.parent >= 0]] = True
        leaf = ~has_child & np.isin(table.region, user_ids)
        leaf &= table.inclusive >= min_duration
        series = cycles.get(rank) if cycles else None
        for row in np.flatnonzero(leaf):
            duration = float(table.inclusive[row])
            rate = 0.0
            if series is not None and duration > 0:
                delta = series.delta(
                    float(table.t_enter[row]), float(table.t_leave[row])
                )
                rate = delta / duration
            bursts.append(
                Burst(
                    rank=rank,
                    t_start=float(table.t_enter[row]),
                    duration=duration,
                    region=int(table.region[row]),
                    cycle_rate=rate,
                )
            )
    return bursts


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Deterministic k-means with k-means++ seeding.

    Returns ``(labels, centroids, inertia)``.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or len(pts) == 0:
        raise ValueError("points must be a non-empty 2D array")
    n = len(pts)
    k = min(k, n)
    rng = np.random.default_rng(seed)

    # k-means++ seeding.
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[rng.integers(n)]
    d2 = np.sum((pts - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[i:] = pts[rng.integers(n, size=k - i)]
            break
        probs = d2 / total
        centroids[i] = pts[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, np.sum((pts - centroids[i]) ** 2, axis=1))

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        dists = np.sum(
            (pts[:, None, :] - centroids[None, :, :]) ** 2, axis=2
        )
        labels = np.argmin(dists, axis=1)
        new_centroids = centroids.copy()
        for c in range(k):
            members = pts[labels == c]
            if len(members):
                new_centroids[c] = members.mean(axis=0)
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if shift <= tol:
            break
    inertia = float(
        np.sum((pts - centroids[labels]) ** 2)
    )
    return labels, centroids, inertia


def cluster_phases(
    trace: Trace | None = None,
    k: int = 4,
    profile: TraceProfile | None = None,
    seed: int = 0,
    min_duration: float = 0.0,
    *,
    session=None,
) -> ClusterResult:
    """Cluster computation bursts on (log duration, cycle rate).

    Pass ``session`` to reuse a memoized session profile.
    """
    trace, profile = resolve_inputs(trace, profile, session)
    bursts = extract_bursts(trace, profile=profile, min_duration=min_duration)
    result = ClusterResult(bursts=bursts)
    if not bursts:
        return result
    duration = np.asarray([b.duration for b in bursts])
    rate = np.asarray([b.cycle_rate for b in bursts])
    log_dur = np.log10(np.maximum(duration, 1e-12))
    # Standardise features so one does not dominate.
    feats = np.column_stack([log_dur, rate])
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std[std == 0] = 1.0
    normed = (feats - mean) / std
    labels, centroids, inertia = kmeans(normed, k, seed=seed)
    result.labels = labels
    result.centroids = centroids * std + mean
    result.inertia = inertia
    return result

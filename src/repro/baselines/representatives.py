"""Representative-process selection (the Mohror et al. baseline).

Mohror, Karavanic & Snavely [13] scale trace visualization by grouping
structurally equal processes whose temporal behaviour is sufficiently
similar and keeping one representative per group.  The paper's
criticism: "by basing the analysis on only a few representative
processes, performance problems may easily be hidden".

We implement the technique faithfully enough to measure that: each
process is summarised by its per-region exclusive-time vector, greedy
threshold clustering groups processes whose normalised distance is
below ``similarity_threshold``, and the first member of each cluster
becomes the representative.  Whether an anomalous rank survives into
the representative set then depends on the threshold — exactly the
failure mode the paper describes.
"""

from __future__ import annotations

import numpy as np

from .._record import field, record
from ..profiles.profile import TraceProfile
from ..trace.trace import Trace
from ._common import resolve_inputs

__all__ = ["RepresentativeResult", "select_representatives"]


@record(slots=True)
class RepresentativeResult:
    """Clusters of similar processes and their representatives."""

    clusters: list[list[int]] = field(default_factory=list)
    representatives: list[int] = field(default_factory=list)
    #: rank -> cluster index
    assignment: dict[int, int] = field(default_factory=dict)
    reduction: float = 0.0  # 1 - representatives/processes

    def cluster_of(self, rank: int) -> list[int]:
        return self.clusters[self.assignment[rank]]

    def is_visible(self, rank: int) -> bool:
        """Would this rank's own data survive into the reduced view?"""
        return rank in self.representatives


def _feature_matrix(trace: Trace, profile: TraceProfile) -> np.ndarray:
    """Per-rank feature vectors: exclusive time per region."""
    ranks = trace.ranks
    n_regions = len(trace.regions)
    features = np.zeros((len(ranks), n_regions), dtype=np.float64)
    for i, rank in enumerate(ranks):
        table = profile.tables[rank]
        np.add.at(features[i], table.region, table.exclusive)
    return features


def select_representatives(
    trace: Trace | None = None,
    profile: TraceProfile | None = None,
    similarity_threshold: float = 0.1,
    *,
    session=None,
) -> RepresentativeResult:
    """Greedy threshold clustering of processes by behaviour.

    ``similarity_threshold`` is the maximum allowed relative L1
    distance between a process and its cluster representative.  Lower
    thresholds keep more processes visible (and scale worse) — the
    knob the original paper trades fidelity against with.
    """
    if similarity_threshold < 0:
        raise ValueError("similarity_threshold must be non-negative")
    trace, profile = resolve_inputs(trace, profile, session)
    features = _feature_matrix(trace, profile)
    ranks = trace.ranks

    scale = features.sum(axis=1, keepdims=True)
    scale[scale == 0] = 1.0

    result = RepresentativeResult()
    rep_vectors: list[np.ndarray] = []
    for i, rank in enumerate(ranks):
        vec = features[i]
        assigned = -1
        for c, rep_vec in enumerate(rep_vectors):
            denom = max(float(rep_vec.sum()), 1e-300)
            distance = float(np.abs(vec - rep_vec).sum()) / denom
            if distance <= similarity_threshold:
                assigned = c
                break
        if assigned < 0:
            assigned = len(rep_vectors)
            rep_vectors.append(vec)
            result.clusters.append([])
            result.representatives.append(rank)
        result.clusters[assigned].append(rank)
        result.assignment[rank] = assigned
    n = len(ranks)
    result.reduction = 1.0 - len(result.representatives) / n if n else 0.0
    return result

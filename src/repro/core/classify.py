"""Classification of regions as synchronization/communication.

The SOS-time computation (paper Section V) subtracts the runtime of
synchronization operations — the paper names ``MPI_Wait``,
``MPI_Reduce`` and ``omp barrier`` as examples — from each segment's
inclusive duration.  This module decides *which* regions count as
synchronization.  The default policy treats every MPI and OpenMP
runtime operation as synchronization/communication (matching Figure 3,
where the whole ``MPI`` block is subtracted), and lets users widen or
narrow the set via name patterns or roles.
"""

from __future__ import annotations

import fnmatch

import numpy as np

from .._record import record
from ..trace.definitions import Paradigm, Region, RegionRole
from ..trace.trace import Trace

__all__ = ["SyncClassifier", "default_classifier"]


@record(frozen=True)
class SyncClassifier:
    """Decides which regions are subtracted from segment durations.

    A region counts as synchronization when **any** of the following
    holds:

    * its paradigm is in ``sync_paradigms`` (default: MPI),
    * its role is in ``sync_roles`` (default: SYNCHRONIZATION and
      COMMUNICATION),
    * its name matches one of the ``name_patterns`` (fnmatch-style),

    unless its name matches one of the ``exclude_patterns``.

    Instances are immutable and hashable so analyses can be cached per
    classifier.
    """

    sync_paradigms: tuple[Paradigm, ...] = (Paradigm.MPI,)
    sync_roles: tuple[RegionRole, ...] = (
        RegionRole.SYNCHRONIZATION,
        RegionRole.COMMUNICATION,
    )
    name_patterns: tuple[str, ...] = ("MPI_*", "omp barrier*", "!$omp barrier*")
    exclude_patterns: tuple[str, ...] = ()
    include_io: bool = False

    def is_sync(self, region: Region) -> bool:
        """True if ``region`` should be subtracted from segment time."""
        for pattern in self.exclude_patterns:
            if fnmatch.fnmatchcase(region.name, pattern):
                return False
        if region.paradigm in self.sync_paradigms:
            return True
        if region.role in self.sync_roles:
            return True
        if self.include_io and region.role == RegionRole.FILE_IO:
            return True
        return any(
            fnmatch.fnmatchcase(region.name, pattern)
            for pattern in self.name_patterns
        )

    def mask(self, trace: Trace) -> np.ndarray:
        """Boolean array over region ids: True where synchronization."""
        return self.mask_registry(trace.regions)

    def mask_registry(self, regions) -> np.ndarray:
        """Like :meth:`mask` but over a bare region registry."""
        return np.asarray([self.is_sync(r) for r in regions], dtype=bool)

    def with_patterns(self, *patterns: str) -> "SyncClassifier":
        """Copy of this classifier with extra name patterns."""
        return SyncClassifier(
            sync_paradigms=self.sync_paradigms,
            sync_roles=self.sync_roles,
            name_patterns=self.name_patterns + tuple(patterns),
            exclude_patterns=self.exclude_patterns,
            include_io=self.include_io,
        )


def default_classifier() -> SyncClassifier:
    """The paper-faithful default classifier (all MPI/OpenMP sync ops)."""
    return SyncClassifier()

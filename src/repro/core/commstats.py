"""Communication statistics: who talks to whom, how much, how fast.

Backs the communication-matrix view trace visualizers put next to the
timeline: per sender/receiver pair the message count, payload volume
and transfer-time statistics (from matched SEND/RECV event pairs).
Useful both for spotting lopsided communication patterns and for
sanity-checking simulated workloads' topologies.
"""

from __future__ import annotations

import numpy as np

from .._record import record
from ..trace.events import EventKind
from ..trace.trace import Trace

__all__ = ["CommMatrix", "communication_matrix"]


@record(frozen=True, slots=True)
class CommMatrix:
    """Pairwise communication statistics of one trace.

    All matrices are indexed ``[sender_row, receiver_col]`` in the
    order of :attr:`ranks`.
    """

    ranks: tuple[int, ...]
    counts: np.ndarray  # messages
    bytes: np.ndarray  # payload volume
    total_transfer_time: np.ndarray  # matched send->recv latency sums

    @property
    def num_messages(self) -> int:
        return int(self.counts.sum())

    @property
    def total_bytes(self) -> int:
        return int(self.bytes.sum())

    def row_of(self, rank: int) -> int:
        return self.ranks.index(rank)

    def sent_by(self, rank: int) -> tuple[int, int]:
        """(messages, bytes) sent by ``rank``."""
        row = self.row_of(rank)
        return int(self.counts[row].sum()), int(self.bytes[row].sum())

    def received_by(self, rank: int) -> tuple[int, int]:
        """(messages, bytes) received by ``rank``."""
        col = self.row_of(rank)
        return int(self.counts[:, col].sum()), int(self.bytes[:, col].sum())

    def mean_transfer_time(self) -> np.ndarray:
        """Mean matched transfer time per pair (NaN where no messages)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                self.counts > 0, self.total_transfer_time / self.counts, np.nan
            )

    def top_pairs(self, k: int = 10, by: str = "bytes") -> list[tuple[int, int, float]]:
        """Heaviest (sender, receiver, value) pairs."""
        matrix = {"bytes": self.bytes, "count": self.counts,
                  "time": self.total_transfer_time}.get(by)
        if matrix is None:
            raise ValueError(f"unknown ordering {by!r}")
        flat = np.argsort(-matrix, axis=None)[:k]
        out = []
        n = len(self.ranks)
        for idx in flat:
            i, j = divmod(int(idx), n)
            value = float(matrix[i, j])
            if value <= 0:
                break
            out.append((self.ranks[i], self.ranks[j], value))
        return out

    def imbalance(self) -> float:
        """Max/mean of per-rank sent bytes (1.0 = uniform senders)."""
        sent = self.bytes.sum(axis=1).astype(np.float64)
        mean = float(sent.mean()) if len(sent) else 0.0
        if mean <= 0:
            return 1.0
        return float(sent.max()) / mean


def communication_matrix(trace: Trace, matched_times: bool = True) -> CommMatrix:
    """Aggregate SEND/RECV events into a :class:`CommMatrix`.

    ``matched_times=False`` skips the FIFO send/recv matching (cheaper
    for huge traces); transfer-time sums are then zero.
    """
    ranks = tuple(trace.ranks)
    index = {rank: i for i, rank in enumerate(ranks)}
    n = len(ranks)
    counts = np.zeros((n, n), dtype=np.int64)
    volume = np.zeros((n, n), dtype=np.int64)
    times = np.zeros((n, n), dtype=np.float64)

    for proc in trace.processes():
        ev = proc.events
        mask = ev.kind == EventKind.SEND
        if not np.any(mask):
            continue
        row = index[proc.rank]
        partners = ev.partner[mask]
        sizes = ev.size[mask]
        for col_rank, size in zip(partners, sizes):
            col = index.get(int(col_rank))
            if col is None:
                continue
            counts[row, col] += 1
            volume[row, col] += int(size)

    if matched_times:
        from ..viz.timeline import match_messages

        for src, t_send, dst, t_recv in match_messages(trace, limit=10**9):
            times[index[src], index[dst]] += max(t_recv - t_send, 0.0)

    return CommMatrix(
        ranks=ranks, counts=counts, bytes=volume, total_transfer_time=times
    )

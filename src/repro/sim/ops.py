"""Operations a simulated rank program can yield to the engine.

A workload is a plain Python generator per rank that yields these
operation objects; the :mod:`repro.sim.engine` interprets them, advances
virtual time, applies the network/noise models and records trace events.
The vocabulary mirrors the MPI calls the paper's case-study codes use.

Example
-------
::

    def program(rank: int, size: int):
        yield Enter("main")
        for _ in range(10):
            yield Enter("iteration")
            yield Compute(0.01 * (1 + rank / size), region="solve")
            yield Barrier()
            yield Leave("iteration")
        yield Leave("main")
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .._record import record

__all__ = [
    "Comm",
    "WORLD",
    "Op",
    "Compute",
    "Elapse",
    "Enter",
    "Leave",
    "Sample",
    "Barrier",
    "Bcast",
    "Reduce",
    "Allreduce",
    "Allgather",
    "Alltoall",
    "Gather",
    "Scatter",
    "Send",
    "Recv",
    "Sendrecv",
    "Isend",
    "Irecv",
    "Wait",
    "Waitall",
    "Request",
]


@record(frozen=True, slots=True)
class Comm:
    """A communicator: an ordered group of ranks with a stable id.

    ``WORLD`` is a sentinel resolved by the engine to all ranks of the
    run; sub-communicators are built with explicit rank tuples.
    """

    id: int
    ranks: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.ranks)

    def index_of(self, rank: int) -> int:
        return self.ranks.index(rank)


#: Sentinel communicator meaning "all ranks" (id 0 is reserved for it).
WORLD = Comm(id=0, ranks=())

#: Hot ops write ``__init__`` out: ``record``'s generic one is ~3x slower.
_set = object.__setattr__


class Op:
    """Base class of all yieldable operations (for isinstance checks)."""

    __slots__ = ()


@record(frozen=True, slots=True)
class Compute(Op):
    """Busy computation for ``seconds`` of active CPU time.

    Parameters
    ----------
    seconds:
        Active computation time.  The noise model may add interruptions
        on top, extending wall time without adding counter progress.
    region:
        Region name recorded around the computation (optional — without
        it the time passes inside the currently open region).
    counters:
        Extra counter increments attributed to this computation, e.g.
        ``{"FR_FPU_EXCEPTIONS_SSE_MICROTRAPS": 5200.0}``.
    interruption:
        Deterministic extra wall time injected *into* this computation
        (models an OS preemption; counters do not advance during it).
    """

    seconds: float
    region: str | None = None
    counters: Mapping[str, float] | None = None
    interruption: float = 0.0

    def __init__(self, seconds, region=None, counters=None, interruption=0.0) -> None:
        _set(self, "seconds", seconds)
        _set(self, "region", region)
        _set(self, "counters", counters)
        _set(self, "interruption", interruption)


@record(frozen=True, slots=True)
class Elapse(Op):
    """Let wall time pass without computing (idle / sleep)."""

    seconds: float


@record(frozen=True, slots=True)
class Enter(Op):
    """Enter a user region."""

    region: str

    def __init__(self, region: str) -> None:
        _set(self, "region", region)


@record(frozen=True, slots=True)
class Leave(Op):
    """Leave the innermost user region (name checked when given)."""

    region: str | None = None

    def __init__(self, region: str | None = None) -> None:
        _set(self, "region", region)


@record(frozen=True, slots=True)
class Sample(Op):
    """Explicitly sample a counter at the current time."""

    metric: str
    value: float | None = None  # None: emit the engine-accumulated value


# -- collectives -----------------------------------------------------------


@record(frozen=True, slots=True)
class Barrier(Op):
    comm: Comm = WORLD


@record(frozen=True, slots=True)
class Bcast(Op):
    size: int = 0
    root: int = 0
    comm: Comm = WORLD


@record(frozen=True, slots=True)
class Reduce(Op):
    size: int = 0
    root: int = 0
    comm: Comm = WORLD


@record(frozen=True, slots=True)
class Allreduce(Op):
    size: int = 0
    comm: Comm = WORLD


@record(frozen=True, slots=True)
class Allgather(Op):
    size: int = 0
    comm: Comm = WORLD


@record(frozen=True, slots=True)
class Alltoall(Op):
    size: int = 0
    comm: Comm = WORLD


@record(frozen=True, slots=True)
class Gather(Op):
    size: int = 0
    root: int = 0
    comm: Comm = WORLD


@record(frozen=True, slots=True)
class Scatter(Op):
    size: int = 0
    root: int = 0
    comm: Comm = WORLD


# -- point-to-point -----------------------------------------------------------


@record(frozen=True, slots=True)
class Send(Op):
    """Blocking send (eager below the threshold, rendezvous above)."""

    dest: int
    size: int = 0
    tag: int = 0


@record(frozen=True, slots=True)
class Recv(Op):
    """Blocking receive, matched by (source, tag) in FIFO order."""

    source: int
    size: int = 0
    tag: int = 0


@record(frozen=True, slots=True)
class Sendrecv(Op):
    """Combined send + receive (MPI_Sendrecv): deadlock-free exchange."""

    dest: int
    source: int
    size: int = 0
    recv_size: int | None = None  # defaults to ``size``
    tag: int = 0


@record(frozen=True, slots=True)
class Isend(Op):
    """Nonblocking send; yields a :class:`Request`."""

    dest: int
    size: int = 0
    tag: int = 0

    def __init__(self, dest: int, size: int = 0, tag: int = 0) -> None:
        _set(self, "dest", dest)
        _set(self, "size", size)
        _set(self, "tag", tag)


@record(frozen=True, slots=True)
class Irecv(Op):
    """Nonblocking receive; yields a :class:`Request`."""

    source: int
    size: int = 0
    tag: int = 0

    def __init__(self, source: int, size: int = 0, tag: int = 0) -> None:
        _set(self, "source", source)
        _set(self, "size", size)
        _set(self, "tag", tag)


class Request:
    """Handle for a nonblocking operation (filled in by the engine)."""

    __slots__ = ("rank", "kind", "peer", "size", "tag", "complete_time")

    def __init__(self, rank: int, kind: str, peer: int, size: int, tag: int) -> None:
        self.rank = rank
        self.kind = kind  # "send" | "recv"
        self.peer = peer
        self.size = size
        self.tag = tag
        #: Virtual time at which the operation completes; None while pending.
        self.complete_time: float | None = None

    @property
    def done(self) -> bool:
        return self.complete_time is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"done@{self.complete_time:.6g}" if self.done else "pending"
        return f"Request({self.kind} rank={self.rank} peer={self.peer} {state})"


@record(frozen=True, slots=True)
class Wait(Op):
    """Block until a nonblocking request completes (MPI_Wait)."""

    request: Request


@record(frozen=True, slots=True)
class Waitall(Op):
    """Block until all listed requests complete (MPI_Waitall)."""

    requests: tuple[Request, ...]

    def __init__(self, requests: Sequence[Request]) -> None:
        object.__setattr__(self, "requests", tuple(requests))

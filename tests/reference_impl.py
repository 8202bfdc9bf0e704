"""Independent reference for stack replay, per-region statistics,
segmentation and SOS-time.

Plain per-event Python written from the paper's definitions
(PAPER.md, section 1, steps 1 and 2), sharing no code with ``repro``: it
takes one stream's event columns (anything indexable: NumPy arrays or
lists) and walks them with an explicit call stack.  It is slow on
purpose and exists only to be compared against the production kernel
on small traces.

Definitions, per process stream:

* An ENTER opens a frame on top of the stack; a LEAVE closes the top
  frame and must name the same region.  The stream must end with an
  empty stack.
* A frame's *inclusive* time is ``t_leave - t_enter``; its *exclusive*
  time is the inclusive time minus the inclusive times of its direct
  children, summed in enter order.
* *depth* is the 1-based stack depth; *parent* is the directly
  enclosing frame (frames are numbered in enter order, -1 at top
  level); a frame is *outermost* when no enclosing frame has its
  region, so recursion is counted once in aggregated inclusive time.

Per-region partials of one stream, accumulated in enter order: the
invocation ``count``, ``inclusive_sum`` over outermost frames,
``exclusive_sum`` over all frames, and the extreme inclusive times.
A trace's statistics add the partials in ascending rank order.  The
time-dominant function is the USER region with the largest
``inclusive_sum`` among those invoked at least ``2p`` times.

Segments and SOS-time, per process stream, for a dominant region:

* A *segment* is an outermost invocation of the dominant region (one
  not nested in another invocation of it), from its enter to its
  leave, in time order.
* A region is *synchronization* when it is an MPI operation, has the
  synchronization or communication role, or is named like ``MPI_*``
  or an OpenMP barrier.  A sync frame is *top-level* when no frame
  enclosing it is a sync frame.
* A segment's *SOS-time* is its duration minus the inclusive times of
  the top-level sync frames inside it, summed in enter order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Event kind codes of the trace format (ENTER and LEAVE).
ENTER = 0
LEAVE = 1
#: Region paradigm codes of user functions and MPI operations.
USER = 0
MPI = 1
#: Region role codes of synchronization and communication operations.
SYNC_ROLES = (1, 2)
#: Name prefixes of synchronization operations.
SYNC_PREFIXES = ("MPI_", "omp barrier", "!$omp barrier")

STAT_COLUMNS = (
    "count",
    "inclusive_sum",
    "exclusive_sum",
    "inclusive_min",
    "inclusive_max",
)


@dataclass
class Frame:
    region: int
    t_enter: float
    t_leave: float
    depth: int
    parent: int
    enter_index: int
    leave_index: int
    inclusive: float = 0.0
    exclusive: float = 0.0
    outermost: bool = True


def replay(time, kind, ref) -> list[Frame]:
    """Frames of one stream, in enter order.

    Raises ``ValueError`` on a LEAVE with an empty stack, a LEAVE
    naming another region than the open one, or frames left open.
    """
    frames: list[Frame] = []
    stack: list[int] = []  # frame numbers, innermost last
    children: dict[int, list[int]] = {}
    for i in range(len(kind)):
        k = int(kind[i])
        if k == ENTER:
            parent = stack[-1] if stack else -1
            frames.append(Frame(
                region=int(ref[i]),
                t_enter=float(time[i]),
                t_leave=math.nan,
                depth=len(stack) + 1,
                parent=parent,
                enter_index=i,
                leave_index=-1,
            ))
            children.setdefault(parent, []).append(len(frames) - 1)
            stack.append(len(frames) - 1)
        elif k == LEAVE:
            if not stack:
                raise ValueError(f"leave at event {i} with empty stack")
            frame = frames[stack.pop()]
            if frame.region != int(ref[i]):
                raise ValueError(f"event {i} leaves another region")
            frame.t_leave = float(time[i])
            frame.leave_index = i
    if stack:
        raise ValueError(f"{len(stack)} frames still open")

    for number, frame in enumerate(frames):
        frame.inclusive = frame.t_leave - frame.t_enter
        child_sum = 0.0
        for child in children.get(number, ()):
            child_sum += frames[child].t_leave - frames[child].t_enter
        frame.exclusive = frame.inclusive - child_sum
        up = frame.parent
        while up >= 0:
            if frames[up].region == frame.region:
                frame.outermost = False
                break
            up = frames[up].parent
    return frames


def region_partials(frames: list[Frame], n_regions: int) -> dict[str, list]:
    """Per-region statistics of one stream's frames."""
    out = {
        "count": [0] * n_regions,
        "inclusive_sum": [0.0] * n_regions,
        "exclusive_sum": [0.0] * n_regions,
        "inclusive_min": [math.inf] * n_regions,
        "inclusive_max": [-math.inf] * n_regions,
    }
    for frame in frames:
        r = frame.region
        out["count"][r] += 1
        if frame.outermost:
            out["inclusive_sum"][r] += frame.inclusive
        out["exclusive_sum"][r] += frame.exclusive
        out["inclusive_min"][r] = min(out["inclusive_min"][r], frame.inclusive)
        out["inclusive_max"][r] = max(out["inclusive_max"][r], frame.inclusive)
    return out


def merge_partials(partials: list[dict[str, list]], n_regions: int) -> dict[str, list]:
    """Trace statistics: the partials added in the given (rank) order."""
    total = region_partials([], n_regions)
    for part in partials:
        for r in range(n_regions):
            total["count"][r] += part["count"][r]
            total["inclusive_sum"][r] += part["inclusive_sum"][r]
            total["exclusive_sum"][r] += part["exclusive_sum"][r]
            total["inclusive_min"][r] = min(
                total["inclusive_min"][r], part["inclusive_min"][r]
            )
            total["inclusive_max"][r] = max(
                total["inclusive_max"][r], part["inclusive_max"][r]
            )
    return total


def dominant_region(stats: dict[str, list], paradigms, n_processes: int) -> int:
    """The time-dominant function (the paper's 2p rule), or -1."""
    floor = 2 * n_processes
    best = -1
    for r, paradigm in enumerate(paradigms):
        if paradigm != USER or stats["count"][r] < floor:
            continue
        if best < 0 or stats["inclusive_sum"][r] > stats["inclusive_sum"][best]:
            best = r
    return best


def is_sync(name: str, paradigm: int, role: int) -> bool:
    """Whether a region is a synchronization operation."""
    return paradigm == MPI or role in SYNC_ROLES or name.startswith(SYNC_PREFIXES)


def segments_and_sos(time, kind, ref, dominant: int, sync) -> list[tuple]:
    """``(t_start, t_stop, sos)`` of one stream's segments, in time
    order; ``sync[r]`` says whether region ``r`` is synchronization.

    One walk with an explicit stack of ``(region, t_enter, in sync)``
    entries, ``in sync`` being true for a sync frame and every frame
    inside one: a segment opens at an enter of ``dominant`` with no
    ``dominant`` frame open, each top-level sync frame that closes
    inside it adds its inclusive time to its sync sum, and it closes
    with its own leave.
    """
    out = []
    stack: list[tuple[int, float, bool]] = []
    start = None  # the open segment's enter time
    sync_sum = 0.0
    for i in range(len(kind)):
        k, r, t = int(kind[i]), int(ref[i]), float(time[i])
        if k == ENTER:
            under = bool(stack) and stack[-1][2]
            if r == dominant and start is None:
                start, sync_sum = t, 0.0
            stack.append((r, t, under or bool(sync[r])))
        elif k == LEAVE:
            region, t_enter, _ = stack.pop()
            under = bool(stack) and stack[-1][2]
            if sync[region] and not under and start is not None:
                sync_sum += t - t_enter
            if region == dominant and all(f[0] != dominant for f in stack):
                out.append((start, t, (t - start) - sync_sum))
                start = None
    return out

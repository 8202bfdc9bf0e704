"""The shard engine's worker pool.

A :class:`~repro.core.engine.ShardEngine` whose plan has more than one
shard runs each phase's shard tasks in worker processes, one task per
rank group: a worker decodes only its own ranks, replays them into the
engine's spill and hands back its part.  Results come back in shard
order whatever the completion order, and each worker's telemetry
snapshot merges into the parent's collector in that order.

The worker count defaults to ``min(num_shards, cpu_count)`` and can be
pinned with the ``REPRO_SHARD_WORKERS`` environment variable (``1``
runs the shard tasks in process, which is also how results stay
reproducible on machines without usable multiprocessing).
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed

from .. import obs
from .engine import _heartbeat

__all__ = ["run_pool", "shard_workers"]

#: Pending shard tasks of the in-flight pool run (telemetry only).
_G_QUEUE = obs.gauge("shard.queue_depth")


def shard_workers(num_shards: int) -> int:
    """Worker-process count: ``REPRO_SHARD_WORKERS`` or cpu count."""
    env = os.environ.get("REPRO_SHARD_WORKERS", "").strip()
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_SHARD_WORKERS must be an integer, got {env!r}"
            ) from None
        if n < 1:
            raise ValueError(f"REPRO_SHARD_WORKERS must be >= 1, got {n}")
    else:
        try:
            n = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            n = os.cpu_count() or 1
    return max(1, min(n, num_shards))



# ---------------------------------------------------------------------------
# Worker side (top-level: must be picklable by reference)
# ---------------------------------------------------------------------------


def _worker_obs_setup(payload: dict) -> bool:
    """Enable telemetry inside a worker process when the parent asks.

    Returns whether it did.  A forked worker inherits the parent's
    enabled state and a stale copy of its collector; a fresh worker
    collector replaces it, and its snapshot ships back with the result.
    The payload's ``obs`` value is the parent's trace context
    (:func:`repro.obs.current_context`): the worker collector inherits
    the parent's trace id, epoch and launching span, so its journals
    land on the parent's time axis in the same causal trace.
    """
    ctx = payload.get("obs")
    if not ctx:
        return False
    obs.enable(obs.Collector(origin=f"shard-{payload['shard']}", **ctx))
    return True


def _pool_task(fn, payload: dict):
    """Run one shard task, ``fn(payload)``, in a worker process.

    Returns the result and, when the payload carries ``obs``, the
    worker collector's snapshot.
    """
    owns_obs = _worker_obs_setup(payload)
    try:
        with obs.span(f"shard.{fn.__name__.strip('_')}"):
            result = fn(payload)
    finally:
        col = obs.disable() if owns_obs else None
    return result, None if col is None else col.snapshot()


def run_pool(fn, payloads: list[dict], workers: int) -> list:
    """``fn`` over every payload in a pool of ``workers`` processes.

    Results keep payload order regardless of completion order, and
    worker telemetry merges into the parent's collector in that order
    (worker journals appear in ascending shard order in the exported
    self-trace), so the parent-side merges stay deterministic.  Each
    completion emits an INFO heartbeat and updates the
    ``shard.queue_depth`` gauge.
    """
    task = functools.partial(_pool_task, fn)
    phase = fn.__name__.strip("_")
    total = len(payloads)
    results: list = [None] * total
    t0 = time.perf_counter()
    with ProcessPoolExecutor(max_workers=min(workers, total)) as pool:
        futures = {pool.submit(task, p): i for i, p in enumerate(payloads)}
        _G_QUEUE.set(total)
        for done, fut in enumerate(as_completed(futures), 1):
            i = futures[fut]
            results[i] = fut.result()
            _G_QUEUE.set(total - done)
            _heartbeat(phase, payloads[i], done, total, time.perf_counter() - t0)
    col = obs.collector()
    for _, snapshot in results:
        if snapshot is not None and col is not None:
            col.merge(snapshot)
    return [result for result, _ in results]

"""Micro-batching: coalesce concurrent estimate calls into shared batches.

Concurrent callers block in :meth:`MicroBatcher.submit`; a single worker
thread drains the queue into batches of at most ``max_batch_size``
requests, waiting up to ``max_wait_ms`` after the first request for
companions (by default 0: only requests already queued join), and runs
one ``run_batch(queries, rngs)`` call per batch. Under load the queue
fills while a batch runs, so batches form without any timer.
For AR estimators that one call shares the forward passes across all
coalesced queries (paper Section 5.3), which is where serving latency is
won; per-query generators keep each result independent of who else
happened to be in the batch.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigError, EstimateTimeoutError, ServeError
from repro.query.query import Query

_SHUTDOWN = object()


@dataclass
class _Pending:
    """One in-flight request: inputs plus a slot the worker fills."""

    query: Query
    rng: np.random.Generator
    done: threading.Event = field(default_factory=threading.Event)
    result: float | None = None
    error: BaseException | None = None


@dataclass
class BatcherStats:
    batches: int = 0
    requests: int = 0
    largest_batch: int = 0
    # Signature-grouping stats, reported back by grouped batch drivers
    # via MicroBatcher.note_groups (estimators without a grouped driver
    # leave them at zero).
    grouped_batches: int = 0
    groups: int = 0
    grouped_requests: int = 0
    largest_group: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.requests / self.batches if self.batches else 0.0

    @property
    def groups_per_batch(self) -> float:
        return self.groups / self.grouped_batches if self.grouped_batches else 0.0

    @property
    def mean_group_size(self) -> float:
        return self.grouped_requests / self.groups if self.groups else 0.0


class MicroBatcher:
    """Coalesces ``submit`` calls into ``run_batch`` invocations.

    ``run_batch(queries, rngs)`` receives the coalesced queries and the
    parallel list of their callers' per-query generators.
    ``max_wait_ms=0`` batches only what is already queued (no added
    latency); larger values trade a bounded delay for bigger shared
    batches.
    """

    def __init__(
        self,
        run_batch: Callable[[list[Query], Sequence], np.ndarray],
        max_batch_size: int = 16,
        max_wait_ms: float = 0.0,
        name: str = "batcher",
    ):
        if max_batch_size < 1:
            raise ConfigError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ConfigError("max_wait_ms must be >= 0")
        self.run_batch = run_batch
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.name = name
        self._queue: queue.Queue = queue.Queue()
        self._stats = BatcherStats()
        self._stats_lock = threading.Lock()
        # An Event, not a bool: submit() polls it from request threads
        # while close() sets it, and an Event is its own synchronisation.
        self._closed = threading.Event()
        self._worker = threading.Thread(
            target=self._run, name=f"repro-serve-{name}", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    def submit(
        self,
        query: Query,
        rng: np.random.Generator,
        timeout_seconds: float | None = None,
    ) -> float:
        """Estimate one query, drawing from ``rng``, sharing a batch with
        concurrent callers.

        Blocks until the worker produces the result. Raises
        :class:`EstimateTimeoutError` if the deadline passes first (the
        batch still completes in the background; only this caller gives
        up), and re-raises whatever ``run_batch`` raised otherwise.
        """
        if self._closed.is_set():
            raise ServeError(f"batcher {self.name!r} is closed")
        pending = _Pending(query=query, rng=rng)
        self._queue.put(pending)
        if not pending.done.wait(timeout=timeout_seconds):
            raise EstimateTimeoutError(
                f"estimate missed its {timeout_seconds * 1000:.0f} ms deadline"
            )
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None
        return pending.result

    def stats(self) -> BatcherStats:
        with self._stats_lock:
            return BatcherStats(
                batches=self._stats.batches,
                requests=self._stats.requests,
                largest_batch=self._stats.largest_batch,
                grouped_batches=self._stats.grouped_batches,
                groups=self._stats.groups,
                grouped_requests=self._stats.grouped_requests,
                largest_group=self._stats.largest_group,
            )

    def note_groups(self, group_sizes: Sequence[int]) -> None:
        """Record one executed batch's signature-group sizes.

        Called by the batch runner *after* ``run_batch`` returns (never
        while it holds the model lock inside), with one entry per
        constrained-column signature group the driver formed.
        """
        if not group_sizes:
            return
        with self._stats_lock:
            self._stats.grouped_batches += 1
            self._stats.groups += len(group_sizes)
            self._stats.grouped_requests += sum(group_sizes)
            self._stats.largest_group = max(
                self._stats.largest_group, max(group_sizes)
            )

    def close(self) -> None:
        """Stop the worker; queued-but-unserved requests fail cleanly."""
        if self._closed.is_set():
            return
        self._closed.set()
        self._queue.put(_SHUTDOWN)
        self._worker.join(timeout=5.0)

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                self._drain_after_shutdown()
                return
            batch = [item]
            deadline = time.monotonic() + self.max_wait_ms / 1000.0
            while len(batch) < self.max_batch_size:
                remaining = deadline - time.monotonic()
                try:
                    nxt = self._queue.get(
                        timeout=remaining if remaining > 0 else None,
                        block=remaining > 0,
                    )
                except queue.Empty:
                    break
                if nxt is _SHUTDOWN:
                    self._queue.put(_SHUTDOWN)  # handle after this batch
                    break
                batch.append(nxt)
            self._execute(batch)

    def _execute(self, batch: list[_Pending]) -> None:
        queries = [p.query for p in batch]
        rngs = [p.rng for p in batch]
        with self._stats_lock:
            self._stats.batches += 1
            self._stats.requests += len(batch)
            self._stats.largest_batch = max(self._stats.largest_batch, len(batch))
        try:
            results = self.run_batch(queries, rngs)
            # Wire boundary for precision tiers: a float32 estimator's
            # selectivities widen exactly here (value-preserving — every
            # float32 is a float64), so callers, the cache, and the HTTP
            # layer always speak doubles regardless of the plan dtype.
            values = [float(v) for v in np.asarray(results, dtype=np.float64)]
            if len(values) != len(batch):
                raise ServeError(
                    f"run_batch returned {len(values)} results for {len(batch)} queries"
                )
        except BaseException as exc:  # propagate to every waiter
            for p in batch:
                p.error = exc
                p.done.set()
            return
        for p, value in zip(batch, values):
            p.result = value
            p.done.set()

    def _drain_after_shutdown(self) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is _SHUTDOWN:
                continue
            item.error = ServeError(f"batcher {self.name!r} closed while request queued")
            item.done.set()

"""Worker pool and request router for multi-process sharded serving.

Topology: the parent is an :class:`~repro.serve.service.EstimationService`
whose registry also owns every published plan segment
(:mod:`repro.serve.cluster.shm`); each worker process runs an
ordinary in-process :class:`~repro.serve.service.EstimationService`
(cache + micro-batcher + deterministic seeding) over estimators whose
compiled plans are zero-copy views into the shared segments.  Requests
travel over one duplex pipe per worker; a monitor thread heartbeats,
detects crashes/hangs, and respawns.

Determinism: workers answer with the same
``query_seed(model, cache_key)``-seeded progressive sampling as a
single-process service, so a served selectivity is bitwise-equal no
matter which worker computed it, whether it came from that worker's
cache, and across respawns — the property the benchmark spot-checks.

Degradation ladder (parent side, the single-process service's fallback
step): admission control sheds when the routed worker's queue depth
exceeds ``max_queue_depth`` (→ fallback answer marked ``source='shed'``,
or :class:`~repro.errors.OverloadError` without a fallback, HTTP 429);
misses of ``ServeConfig.timeout_ms`` fall back exactly like the
in-process timeout path; a worker crash mid-request is retried once on
a healthy peer before degrading.

Hot reload publishes the NEW segment first, broadcasts the new payload
(workers re-register, re-keying their caches via
``ServedModel.current_version()``), and only then releases the old
segment — readers never observe a torn routing table, and the old
mapping unlinks once the last worker drops its views.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
import zlib
from dataclasses import dataclass
from multiprocessing import get_context

from repro.errors import (
    ConfigError,
    EstimateTimeoutError,
    NotFittedError,
    OverloadError,
    QueryError,
    SchemaError,
    ServeError,
    UnknownModelError,
    WorkerCrashError,
)
from repro.estimators.base import Estimator
from repro.query.query import Query
from repro.serve.cluster import shm
from repro.serve.service import (
    EstimateResult,
    EstimationService,
    ServeConfig,
    ServedModel,
    _runtime_plan_of,
)
from repro.serve.telemetry import Telemetry, TelemetrySnapshot

__all__ = [
    "ClusterConfig",
    "ClusterService",
    "WorkerHandle",
    "WorkerPool",
]

_SHARD_POLICIES = ("replicate", "hash")

# Exceptions a worker may legitimately raise per-request; anything else
# reaches the parent as a bare ServeError with the worker's repr.
_WIRE_ERRORS = {
    cls.__name__: cls
    for cls in (
        UnknownModelError,
        QueryError,
        SchemaError,
        NotFittedError,
        ConfigError,
        ServeError,
    )
}


@dataclass
class ClusterConfig:
    """Knobs of the multi-process serving layer (docs/serving.md)."""

    workers: int = 2
    shard_policy: str = "replicate"  # 'replicate' | 'hash'
    max_queue_depth: int = 32  # per worker, estimates in flight
    heartbeat_interval_s: float = 1.0
    heartbeat_misses: int = 20  # consecutive missed pongs before respawn
    spawn_timeout_s: float = 120.0  # worker import+attach+register budget
    worker_threads: int = 4  # concurrent estimates per worker (feeds batcher)
    serve: ServeConfig = dataclasses.field(default_factory=ServeConfig)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError("cluster needs at least one worker")
        if self.shard_policy not in _SHARD_POLICIES:
            raise ConfigError(
                f"shard_policy must be one of {_SHARD_POLICIES}, "
                f"got {self.shard_policy!r}"
            )
        if self.max_queue_depth < 1:
            raise ConfigError("max_queue_depth must be >= 1")

    def worker_serve_config(self) -> ServeConfig:
        """The per-worker service config: ``serve.timeout_ms`` and the
        fallback are enforced parent-side, so workers run both disabled."""
        return dataclasses.replace(
            self.serve, timeout_ms=None, fallback_estimator=None
        )


# ---------------------------------------------------------------------------
# Worker process entry point
# ---------------------------------------------------------------------------


def _worker_main(conn, worker_id: int, serve_config: ServeConfig,
                 worker_threads: int) -> None:
    """Run one worker: attach segments, serve estimates until EOF/shutdown.

    Control messages (load/ping/shutdown) are handled inline so the loop
    stays responsive under load; estimates are dispatched to a small
    thread pool, which is what lets the worker's micro-batcher coalesce
    concurrent requests exactly as in single-process serving.
    """
    import gc
    import os
    from concurrent.futures import ThreadPoolExecutor

    from repro.serve.service import EstimationService

    service = EstimationService(config=serve_config)
    attachments: dict[str, shm.PlanAttachment] = {}
    plans: dict[str, object] = {}  # fingerprint -> shared MADEPlan
    retired: list[shm.PlanAttachment] = []  # closed once views die
    send_lock = threading.Lock()
    executor = ThreadPoolExecutor(
        max_workers=worker_threads, thread_name_prefix=f"repro-w{worker_id}"
    )

    def reply(request_id: int, ok: bool, payload) -> None:
        with send_lock:
            try:
                conn.send(("reply", request_id, ok, payload))
            except (OSError, ValueError):
                pass  # parent gone; the recv loop will hit EOF and exit

    def handle_estimate(request_id: int, model: str, query) -> None:
        try:
            result = service.estimate(model, query)
        except Exception as exc:
            reply(request_id, False, (type(exc).__name__, str(exc)))
            return
        reply(
            request_id,
            True,
            (result.selectivity, result.source, result.degraded, result.latency_ms),
        )

    def handle_load(request_id: int, payload: bytes, segments: list[str]) -> None:
        for name in segments:
            if name not in attachments:
                attachment = shm.attach_plan(name)
                attachments[name] = attachment
                plans[attachment.fingerprint] = attachment.plan
        entries = shm.load_in_worker(payload, plans)
        for entry in entries:
            # Invalidate before and after the swap: entries cached by the
            # outgoing generation must not answer for the incoming one,
            # and version keys are only correct once the registered
            # model carries the parent's generation number.
            name = entry["name"]
            service.cache.invalidate(lambda key, _n=name: key[0] == _n)
            served = service.register(name, entry["estimator"], fallback="")
            with served.lock:
                served.version = entry["version"]
            service.cache.invalidate(lambda key, _n=name: key[0] == _n)
        live = set(segments)
        for name in list(attachments):
            if name in live:
                continue
            attachment = attachments.pop(name)
            plans.pop(attachment.fingerprint, None)
            retired.append(attachment)
        gc.collect()
        retired[:] = [a for a in retired if not a.close()]
        reply(request_id, True, (os.getpid(), service.model_names()))

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "estimate":
                executor.submit(handle_estimate, message[1], message[2], message[3])
            elif kind == "ping":
                reply(message[1], True, (os.getpid(), service.telemetry.export()))
            elif kind == "load":
                try:
                    handle_load(message[1], message[2], message[3])
                except Exception as exc:
                    reply(message[1], False, (type(exc).__name__, str(exc)))
            elif kind == "shutdown":
                reply(message[1], True, None)
                break
    finally:
        executor.shutdown(wait=True)
        service.close()
        del service, plans
        gc.collect()
        for attachment in list(attachments.values()) + retired:
            attachment.close()
        conn.close()


# ---------------------------------------------------------------------------
# Parent-side worker handle
# ---------------------------------------------------------------------------


class _Pending:
    """One in-flight request: the caller waits on ``event``."""

    __slots__ = ("event", "value", "error", "is_estimate")

    def __init__(self, is_estimate: bool):
        self.event = threading.Event()
        self.value = None
        self.error: Exception | None = None
        self.is_estimate = is_estimate


class WorkerHandle:
    """Parent-side view of one worker: pipe, pending requests, health."""

    def __init__(self, worker_id: int, process, conn):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.ready = threading.Event()  # load acked, serving
        self.dead = threading.Event()  # EOF/crash observed
        self._send_lock = threading.Lock()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._pending: dict[int, _Pending] = {}
        self._outstanding = 0
        self._heartbeat_misses = 0
        self._telemetry: TelemetrySnapshot | None = None
        self._receiver = threading.Thread(
            target=self._receive_loop, name=f"repro-recv-{worker_id}", daemon=True
        )
        self._receiver.start()

    # -- request plumbing ------------------------------------------------
    def request(self, kind: str, *payload) -> _Pending:
        """Send one request; the returned pending resolves in the receiver."""
        if self.dead.is_set():
            raise WorkerCrashError(f"worker {self.worker_id} is down")
        request_id = next(self._ids)
        pending = _Pending(is_estimate=kind == "estimate")
        with self._lock:
            self._pending[request_id] = pending
            if pending.is_estimate:
                self._outstanding += 1
        try:
            with self._send_lock:
                self.conn.send((kind, request_id, *payload))
        except (OSError, ValueError) as exc:
            with self._lock:
                self._pending.pop(request_id, None)
                if pending.is_estimate:
                    self._outstanding -= 1
            self._mark_dead()
            raise WorkerCrashError(
                f"worker {self.worker_id} pipe closed mid-send"
            ) from exc
        return pending

    def _receive_loop(self) -> None:
        while True:
            try:
                message = self.conn.recv()
            except (EOFError, OSError):
                break
            if message[0] != "reply":  # pragma: no cover - protocol guard
                continue
            _, request_id, ok, payload = message
            with self._lock:
                pending = self._pending.pop(request_id, None)
                if pending is not None and pending.is_estimate:
                    self._outstanding -= 1
            if pending is None:
                continue  # caller gave up (deadline) — drop the late answer
            if ok:
                pending.value = payload
            else:
                kind, detail = payload
                pending.error = _WIRE_ERRORS.get(kind, ServeError)(detail)
            pending.event.set()
        self._mark_dead()

    def _mark_dead(self) -> None:
        self.dead.set()
        self.ready.clear()
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
            self._outstanding = 0
        for p in pending:
            p.error = WorkerCrashError(f"worker {self.worker_id} died mid-request")
            p.event.set()

    # -- health ----------------------------------------------------------
    def outstanding(self) -> int:
        with self._lock:
            return self._outstanding

    def available(self) -> bool:
        return self.ready.is_set() and not self.dead.is_set()

    def note_heartbeat(self, snapshot: TelemetrySnapshot | None) -> int:
        """Record a pong (or a miss when ``snapshot`` is None)."""
        with self._lock:
            if snapshot is None:
                self._heartbeat_misses += 1
            else:
                self._heartbeat_misses = 0
                self._telemetry = snapshot
            return self._heartbeat_misses

    def last_telemetry(self) -> TelemetrySnapshot | None:
        with self._lock:
            return self._telemetry

    def describe(self) -> dict:
        with self._lock:
            outstanding = self._outstanding
            misses = self._heartbeat_misses
        return {
            "worker": self.worker_id,
            "pid": self.process.pid,
            "alive": self.process.is_alive(),
            "ready": self.ready.is_set(),
            "outstanding": outstanding,
            "heartbeat_misses": misses,
        }

    def kill(self, join_timeout: float = 5.0) -> None:
        self._mark_dead()
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(join_timeout)
        if self.process.is_alive():  # pragma: no cover - stuck in C code
            self.process.kill()
            self.process.join(join_timeout)
        # Unlocked on purpose: ``request`` rechecks ``dead`` before
        # touching the pipe and already maps a send racing this close to
        # WorkerCrashError, so serializing with ``_send_lock`` here would
        # only create a lock-order hazard.
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


# ---------------------------------------------------------------------------
# Pool: lifecycle, heartbeat, respawn
# ---------------------------------------------------------------------------


class WorkerPool:
    """Spawns and supervises the worker set; owns no model state.

    ``payload_provider`` returns the current ``(payload, segment names)``
    broadcast — the pool calls it whenever a worker (re)spawns so a
    respawned worker always comes back with the live model set.
    """

    def __init__(self, config: ClusterConfig, payload_provider, telemetry: Telemetry):
        self.config = config
        self.telemetry = telemetry
        self._payload_provider = payload_provider
        self._ctx = get_context("spawn")
        self._closed = threading.Event()
        self._lock = threading.Lock()
        self._workers: list[WorkerHandle] = []
        self._restarts = 0
        self._monitor: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Spawn all workers in parallel, then wait until each is ready."""
        handles = [self._spawn(i) for i in range(self.config.workers)]
        payload, segments = self._payload_provider()
        pendings = [h.request("load", payload, segments) for h in handles]
        for handle, pending in zip(handles, pendings):
            self._await_ready(handle, pending)
        with self._lock:
            self._workers = handles
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-pool-monitor", daemon=True
        )
        self._monitor.start()

    def _spawn(self, worker_id: int) -> WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                worker_id,
                self.config.worker_serve_config(),
                self.config.worker_threads,
            ),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return WorkerHandle(worker_id, process, parent_conn)

    def _await_ready(self, handle: WorkerHandle, pending: _Pending) -> None:
        if not pending.event.wait(self.config.spawn_timeout_s):
            handle.kill()
            raise ServeError(f"worker {handle.worker_id} failed to start in time")
        if pending.error is not None:
            handle.kill()
            raise ServeError(
                f"worker {handle.worker_id} rejected its model payload"
            ) from pending.error
        handle.ready.set()

    def broadcast(self, payload: bytes, segments: list[str]) -> None:
        """Push a model payload to every live worker; all must ack."""
        with self._lock:
            handles = list(self._workers)
        pendings = []
        for handle in handles:
            try:
                pendings.append((handle, handle.request("load", payload, segments)))
            except WorkerCrashError:
                continue  # monitor will respawn it with the fresh payload
        for handle, pending in pendings:
            if not pending.event.wait(self.config.spawn_timeout_s):
                raise ServeError(f"worker {handle.worker_id} did not ack reload")
            if pending.error is not None:
                raise ServeError(
                    f"worker {handle.worker_id} failed to load new models"
                ) from pending.error

    def workers(self) -> list[WorkerHandle]:
        with self._lock:
            return list(self._workers)

    def restarts(self) -> int:
        with self._lock:
            return self._restarts

    # -- supervision -----------------------------------------------------
    def _monitor_loop(self) -> None:
        interval = self.config.heartbeat_interval_s
        while not self._closed.wait(interval):
            for slot, handle in enumerate(self.workers()):
                if self._closed.is_set():
                    return
                try:
                    if handle.dead.is_set() or not handle.process.is_alive():
                        self._respawn(slot, handle)
                        continue
                    if not handle.ready.is_set():
                        continue
                    try:
                        pending = handle.request("ping")
                    except WorkerCrashError:
                        self._respawn(slot, handle)
                        continue
                    if pending.event.wait(interval) and pending.error is None:
                        handle.note_heartbeat(pending.value[1])
                    elif handle.note_heartbeat(None) >= self.config.heartbeat_misses:
                        self._respawn(slot, handle)  # hung, not just slow
                except Exception:  # pragma: no cover - keep supervising
                    pass

    def _respawn(self, slot: int, old: WorkerHandle) -> None:
        if self._closed.is_set():
            return
        old.kill()
        replacement = self._spawn(old.worker_id)
        payload, segments = self._payload_provider()
        pending = replacement.request("load", payload, segments)
        self._await_ready(replacement, pending)
        installed = False
        with self._lock:
            # The slot may have been swapped already by a concurrent path;
            # only install over the handle we actually replaced.
            if slot < len(self._workers) and self._workers[slot] is old:
                self._workers[slot] = replacement
                self._restarts += 1
                installed = True
        if not installed:  # pragma: no cover - lost the race
            replacement.kill()
            return
        self.telemetry.increment("cluster.respawns")

    # -- telemetry -------------------------------------------------------
    def sample_telemetry(self, timeout_s: float = 2.0) -> list[TelemetrySnapshot]:
        """Fresh per-worker snapshots (last heartbeat for the unresponsive)."""
        handles = self.workers()
        pendings = []
        for handle in handles:
            if not handle.available():
                pendings.append((handle, None))
                continue
            try:
                pendings.append((handle, handle.request("ping")))
            except WorkerCrashError:
                pendings.append((handle, None))
        snapshots = []
        for handle, pending in pendings:
            snapshot = None
            if pending is not None and pending.event.wait(timeout_s):
                if pending.error is None:
                    snapshot = pending.value[1]
                    handle.note_heartbeat(snapshot)
            if snapshot is None:
                snapshot = handle.last_telemetry()
            if snapshot is not None:
                snapshots.append(snapshot)
        return snapshots

    def close(self) -> None:
        self._closed.set()
        monitor = self._monitor
        if monitor is not None:
            monitor.join(self.config.heartbeat_interval_s * 4 + 5.0)
        with self._lock:
            handles = list(self._workers)
            self._workers = []
        pendings = []
        for handle in handles:
            try:
                pendings.append((handle, handle.request("shutdown")))
            except WorkerCrashError:
                pendings.append((handle, None))
        for handle, pending in pendings:
            if pending is not None:
                pending.event.wait(5.0)
            handle.process.join(5.0)
            handle.kill()


# ---------------------------------------------------------------------------
# The cluster-facing service
# ---------------------------------------------------------------------------


class ClusterService(EstimationService):
    """An :class:`EstimationService` whose estimates run in worker processes.

    The registry, fallback ladder, reference path and reload logic are
    inherited; this class adds the worker pool, publishes each model
    generation's plan as a shared-memory ``segment`` (shipped to the
    workers before the generation goes live, released once it is
    retired), and routes :meth:`estimate` to a worker.  The parent runs
    no micro-batcher and keeps no result cache: each worker has both.
    """

    def __init__(self, config: ClusterConfig | None = None):
        self.cluster_config = config or ClusterConfig()
        super().__init__(self.cluster_config.serve)
        self.pool = WorkerPool(self.cluster_config, self._current_payload, self.telemetry)
        self._started = False

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "ClusterService":
        """Spawn the worker pool, loading whatever is registered so far."""
        if not self._started:
            self.pool.start()
            self._started = True
        return self

    def close(self) -> None:
        self.pool.close()
        super().close()

    # -- model generations -----------------------------------------------
    def _install(self, model: ServedModel) -> None:
        with model.lock:
            version, estimator = model.version, model.estimator
        segment = self._ship(model.name, version, estimator)
        with model.lock:
            model.segment = segment

    def _swap(self, model: ServedModel, fresh: Estimator, mtime: float | None) -> None:
        segment = self._ship(model.name, model.current_version() + 1, fresh)
        with model.lock:  # reentrant: the base swap takes it again
            retired, model.segment = model.segment, segment
            super()._swap(model, fresh, mtime)
        retired.release()

    def _retire(self, model: ServedModel) -> None:
        with model.lock:
            segment = model.segment
        segment.release()

    def _ship(self, name: str, version: int, estimator: Estimator) -> shm.PlanSegment:
        """Publish ``estimator``'s plan as generation ``version`` of
        ``name`` and load it into every live worker.

        The new segment is linked and broadcast before the caller
        releases the old generation's, so workers always hold a complete
        generation; the old segment unlinks once its last mapping
        closes.  A model pinned to ``precision="float32"`` ships a
        roughly half-size segment.
        """
        plan = _runtime_plan_of(estimator)
        if plan is None:
            raise ConfigError(
                f"cluster serving requires a compiled plan; {name!r} has none"
            )
        segment = shm.publish_plan(plan)
        if self._started:
            shipped = (name, version, estimator, segment.name)
            others = [g for g in self._live_generations() if g[0] != name]
            try:
                self.pool.broadcast(
                    _payload([shipped]),
                    sorted(segment for *_, segment in [*others, shipped]),
                )
            except BaseException:
                segment.release()
                raise
        return segment

    def _live_generations(self) -> list[tuple[str, int, Estimator, str]]:
        """(name, version, estimator, segment name) of every served model."""
        with self._registry_lock:
            models = list(self._models.values())
        generations = []
        for model in models:
            with model.lock:
                generations.append(
                    (model.name, model.version, model.estimator, model.segment.name)
                )
        return generations

    def _current_payload(self) -> tuple[bytes, list[str]]:
        """The full live model set — what a (re)spawned worker loads."""
        live = self._live_generations()
        return _payload(live), sorted(segment for *_, segment in live)

    # -- estimation ------------------------------------------------------
    def estimate(
        self, model_name: str, query: Query, timeout_ms: float | None = None
    ) -> EstimateResult:
        """Route one query to a worker; shed, degrade, or retry as needed."""
        start = time.perf_counter()
        model = self._require_model(model_name)
        self.telemetry.increment("requests")
        self.telemetry.increment(f"requests.{model_name}")
        key = query.cache_key()

        handle = self._route(model_name, key)
        if handle is None:  # admission control: every eligible queue full
            self.telemetry.increment("cluster.shed")
            overload = OverloadError(
                f"cluster queues full for {model_name!r} "
                f"(depth bound {self.cluster_config.max_queue_depth})"
            )
            return self._degrade(model, query, "shed", start, overload)

        deadline_ms = self.config.timeout_ms if timeout_ms is None else timeout_ms
        try:
            try:
                selectivity, source = self._dispatch(
                    handle, model_name, query, deadline_ms, start
                )
            except WorkerCrashError as crash:
                # One retry on a healthy peer; the monitor respawns the dead one.
                self.telemetry.increment("cluster.retries")
                handle = self._route(model_name, key, exclude=handle)
                if handle is None:
                    raise crash
                selectivity, source = self._dispatch(
                    handle, model_name, query, deadline_ms, start
                )
        except WorkerCrashError as exc:
            return self._degrade(model, query, "fallback", start, exc)
        except EstimateTimeoutError as exc:
            self.telemetry.increment("timeouts")
            return self._degrade(model, query, "fallback", start, exc)
        return self._finish(
            model, selectivity, f"worker{handle.worker_id}.{source}", False, start
        )

    def _dispatch(
        self,
        handle: WorkerHandle,
        model_name: str,
        query: Query,
        deadline_ms: float | None,
        start: float,
    ) -> tuple[float, str]:
        pending = handle.request("estimate", model_name, query)
        if deadline_ms is None:
            pending.event.wait()
        else:
            remaining = deadline_ms / 1000.0 - (time.perf_counter() - start)
            if not pending.event.wait(max(remaining, 0.0)):
                raise EstimateTimeoutError(
                    f"estimate on {model_name!r} missed its "
                    f"{deadline_ms:.0f}ms deadline"
                )
        if pending.error is not None:
            raise pending.error
        selectivity, source, _degraded, _worker_ms = pending.value
        return float(selectivity), source

    def _route(
        self, model_name: str, key: tuple, exclude: WorkerHandle | None = None
    ) -> WorkerHandle | None:
        """Pick the worker for this request, or None to shed.

        'hash' pins each (model, constraint signature) to one worker:
        queries constraining the same column set land together, so a
        worker's micro-batches coalesce into large signature groups for
        the grouped sampler driver (and its prefix cache stays hot for
        the signatures it owns).  A down or full designated worker falls
        through to the least-loaded peer (determinism does not depend on
        placement — every worker computes the same answer).
        'replicate' always takes the least-loaded available worker.
        """
        candidates = [
            h for h in self.pool.workers() if h.available() and h is not exclude
        ]
        if not candidates:
            return None
        bound = self.cluster_config.max_queue_depth
        if self.cluster_config.shard_policy == "hash":
            signature = tuple(sorted({column for column, _, _ in key}))
            digest = zlib.crc32(f"{model_name}|{signature!r}".encode())
            designated = candidates[digest % len(candidates)]
            if designated.outstanding() < bound:
                return designated
        chosen = min(candidates, key=lambda h: h.outstanding())
        return chosen if chosen.outstanding() < bound else None

    # -- observability ---------------------------------------------------
    def metrics(self) -> dict:
        """Cluster-wide view: router counters + merged worker telemetry."""
        merged = self.telemetry.export()
        for snapshot in self.pool.sample_telemetry():
            merged.merge(snapshot)
        models = self.models()
        return {
            "uptime_seconds": round(time.time() - self.started_at, 1),
            "models": models,
            "workers": [h.describe() for h in self.pool.workers()],
            "restarts": self.pool.restarts(),
            "segments": [m["segment"] for m in models],
            "telemetry": merged.as_dict(),
        }


def _payload(generations: list[tuple[str, int, Estimator, str]]) -> bytes:
    """Pickle ``_live_generations``-shaped entries for the workers."""
    payload, _ = shm.dump_for_worker(
        [
            {"name": name, "version": version, "estimator": _pruned_for_shipment(estimator)}
            for name, version, estimator, _segment in generations
        ]
    )
    return payload


def _pruned_for_shipment(estimator: Estimator) -> Estimator:
    """A shallow clone without training-only state (optimizer tapes are
    megabytes and meaningless in a serving worker)."""
    import copy

    shipped = copy.copy(estimator)
    inner = getattr(shipped, "model", None)
    if inner is not None and getattr(inner, "trainer", None) is not None:
        inner = copy.copy(inner)
        inner.trainer = None
        shipped.model = inner
    return shipped

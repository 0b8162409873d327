"""The estimation service: model registry, caching, batching, fallback.

:class:`EstimationService` turns fitted estimators into a long-lived,
thread-safe facility: requests name a model and carry a
:class:`~repro.query.query.Query`; the service answers from the result
cache, or coalesces the call into a shared micro-batch, or — when a
deadline is configured and missed — degrades to a cheap fallback
estimator and says so in the response.

Determinism contract
--------------------
Every query's progressive-sampling draws come from a generator seeded by
``query_seed(model name, cache key)``, so a served selectivity is a pure function of (model, query): bitwise-equal
whether it was computed alone, inside any micro-batch, by any thread, or
replayed from the cache. :meth:`EstimationService.estimate_sequential`
exposes the same pure path without cache or batcher for verification.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

from repro.errors import ConfigError, EstimateTimeoutError, ServeError, UnknownModelError
from repro.estimators.base import Estimator
from repro.estimators.registry import build_estimator
from repro.query.query import Query
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import QueryCache
from repro.serve.telemetry import Telemetry
from repro.utils.rng import ensure_rng, query_seed

__all__ = [
    "EstimateResult",
    "EstimationService",
    "ServeConfig",
    "ServedModel",
    "query_seed",  # canonical home is repro.utils.rng; re-exported for callers
]


@dataclass
class ServeConfig:
    """Knobs of the serving layer (see docs/serving.md)."""

    cache_entries: int = 4096
    cache_ttl_seconds: float | None = None
    max_batch_size: int = 16
    max_wait_ms: float = 0.0
    timeout_ms: float | None = None
    fallback_estimator: str | None = "sampling"
    telemetry_window: int = 2048

    def __post_init__(self) -> None:
        if self.timeout_ms is not None and self.timeout_ms <= 0:
            raise ConfigError("timeout_ms must be positive (or None)")


@dataclass
class EstimateResult:
    """One served answer, with enough provenance to debug it."""

    model: str
    selectivity: float
    cardinality: float
    source: str  # 'cache' | 'batch' | 'fallback'
    degraded: bool
    latency_ms: float

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "selectivity": self.selectivity,
            "cardinality": self.cardinality,
            "source": self.source,
            "degraded": self.degraded,
            "latency_ms": round(self.latency_ms, 3),
        }


class ServedModel:
    """A named estimator plus its lock and fallback.

    The serving service attaches what executes its estimates when it
    installs the model: a micro-batcher in process (``batcher``), or a
    published plan ``segment`` in a cluster parent.
    """

    def __init__(
        self,
        name: str,
        estimator: Estimator,
        fallback: Estimator | None = None,
        source_path: str | None = None,
        telemetry: Telemetry | None = None,
        precision: str | None = None,
    ):
        self.name = name
        self.estimator = estimator
        self.fallback = fallback
        self.source_path = source_path
        # Requested precision tier (None = the estimator's own config);
        # re-applied to every fresh estimator a hot reload swaps in.
        self.precision = precision
        self.source_mtime = _mtime(source_path)
        self.version = 0
        self.lock = threading.RLock()
        # Compiled-plan snapshot (read-only, safe to share across
        # threads); refreshed whenever the estimator is swapped.
        self.plan = _runtime_plan_of(estimator)
        # Service-wide telemetry sink for per-batch counters (None in
        # standalone uses); deltas are computed against the monotone
        # prefix-cache counters of the plan generation in `_prefix_plan`
        # (hot reload swaps in a fresh cache, resetting the baseline).
        self.telemetry = telemetry
        self._prefix_plan = self.plan
        self._prefix_baseline: dict[str, int] = {}
        self.batcher: MicroBatcher | None = None
        self.segment = None  # cluster mode: the published plan segment

    def _run_batch(self, queries, rngs):
        with self.lock:
            results = self.estimator.estimate_batch(queries, rngs=rngs)
            groups = _batch_groups_of(self.estimator)
            prefix_deltas = self._prefix_cache_deltas(self.plan)
        # Stats flow out *after* the model lock is released: the batcher
        # and telemetry have their own locks, and nesting them under the
        # model lock would add avoidable edges to the lock-order graph.
        if groups:
            self.batcher.note_groups(groups)
        if self.telemetry is not None:
            if groups:
                self.telemetry.increment("batch.grouped", 1)
                self.telemetry.increment("batch.groups", len(groups))
                self.telemetry.increment("batch.grouped_requests", sum(groups))
            for counter, delta in (prefix_deltas or {}).items():
                if delta:
                    self.telemetry.increment(f"prefix_cache.{counter}", delta)
        return results

    def _prefix_cache_deltas(self, plan) -> dict[str, int] | None:
        """Per-batch increments of ``plan``'s prefix-cache counters.

        Called under ``self.lock`` with the current plan snapshot (the
        baseline is lock-guarded state). Returns None when the model
        runs uncompiled.
        """
        cache = getattr(plan, "prefix_cache", None)
        if cache is None:
            return None
        if plan is not self._prefix_plan:  # hot reload: fresh cache
            self._prefix_plan = plan
            self._prefix_baseline = {}
        stats = cache.stats()
        deltas = {}
        for counter in ("hits", "misses", "evictions"):
            deltas[counter] = stats[counter] - self._prefix_baseline.get(counter, 0)
            self._prefix_baseline[counter] = stats[counter]
        return deltas

    @property
    def num_rows(self) -> int:
        with self.lock:
            return self.estimator.table.num_rows

    def current_version(self) -> int:
        """The reload generation, read under the model lock."""
        with self.lock:
            return self.version

    def describe(self) -> dict:
        # Snapshot the swappable state under the lock, then build the
        # payload (and query the batcher, which has its own lock) outside.
        with self.lock:
            estimator = self.estimator
            plan = self.plan
            version = self.version
            segment = self.segment
        prefix_cache = getattr(plan, "prefix_cache", None)
        info = {
            "name": self.name,
            "estimator": type(estimator).__name__,
            "kind": getattr(estimator, "name", "unknown"),
            "rows": estimator.table.num_rows,
            "version": version,
            "compiled": plan is not None,
            "plan_fingerprint": None if plan is None else plan.fingerprint,
            "plan_dtype": None if plan is None else str(plan.dtype),
            "plan_nbytes": None if plan is None else plan.nbytes(),
            "source_path": self.source_path,
            "fallback": getattr(self.fallback, "name", None),
            "prefix_cache": None if prefix_cache is None else prefix_cache.stats(),
        }
        if self.batcher is not None:
            stats = self.batcher.stats()
            info.update(
                batches=stats.batches,
                batched_requests=stats.requests,
                largest_batch=stats.largest_batch,
                mean_batch_size=round(stats.mean_batch_size, 2),
                groups_per_batch=round(stats.groups_per_batch, 2),
                mean_group_size=round(stats.mean_group_size, 2),
                largest_group=stats.largest_group,
            )
        if segment is not None:
            info["segment"] = segment.describe()
        return info


def _runtime_plan_of(estimator) -> object | None:
    """estimator.runtime_plan(), tolerating duck-typed estimators
    (tests and plugins) that predate the Estimator base method."""
    getter = getattr(estimator, "runtime_plan", None)
    return getter() if callable(getter) else None


def _apply_precision(estimator, precision: str | None) -> None:
    """Pin ``estimator`` to a compiled-plan precision tier.

    ``None`` leaves the estimator at its own configured tier.  An
    estimator without :meth:`set_precision` (duck-typed test doubles,
    non-AR estimators) cannot honour the knob, so asking for one is a
    configuration error, not a silent no-op.
    """
    if precision is None:
        return
    setter = getattr(estimator, "set_precision", None)
    if not callable(setter):
        raise ConfigError(
            f"estimator {type(estimator).__name__} does not support "
            f"precision tiers (requested {precision!r})"
        )
    setter(precision)


def _batch_groups_of(estimator) -> list[int] | None:
    """estimator.batch_group_sizes(), tolerating duck-typed estimators."""
    getter = getattr(estimator, "batch_group_sizes", None)
    return getter() if callable(getter) else None


def _mtime(path: str | None) -> float | None:
    if path is None:
        return None
    try:
        return os.path.getmtime(path)
    except OSError:
        return None


class EstimationService:
    """Routes (model, query) requests through cache, batcher, fallback.

    Subclasses change where estimates execute by overriding the
    generation hooks — :meth:`_install`, :meth:`_swap` and
    :meth:`_retire` — together with :meth:`estimate`; the registry,
    fallback ladder and reference path stay shared.
    """

    def __init__(self, config: ServeConfig | None = None, telemetry: Telemetry | None = None):
        self.config = config or ServeConfig()
        self.telemetry = telemetry or Telemetry(window=self.config.telemetry_window)
        self.cache = QueryCache(
            max_entries=self.config.cache_entries,
            ttl_seconds=self.config.cache_ttl_seconds,
        )
        self._models: dict[str, ServedModel] = {}
        self._registry_lock = threading.Lock()
        self.started_at = time.time()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "EstimationService":
        """Begin serving (in process this is immediate); returns self."""
        return self

    def __enter__(self) -> "EstimationService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Model registry
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        estimator: Estimator,
        fallback: Estimator | str | None = None,
        source_path: str | None = None,
        precision: str | None = None,
    ) -> ServedModel:
        """Serve a fitted estimator under ``name`` (replacing any holder).

        ``fallback`` is the degraded-mode estimator: a fitted
        :class:`Estimator`, a registry name to fit on the model's table
        now, or ``None`` to use ``config.fallback_estimator`` (pass the
        empty string to disable fallback for this model).

        ``precision`` ('float64' | 'float32') pins this model's
        compiled-plan tier: applied to the estimator now and re-applied
        to every fresh estimator a hot :meth:`reload` swaps in, so a
        model keeps its tier across weight updates.  ``None`` serves the
        estimator at whatever tier it already carries.

        Replacing a model starts the next version, so cache entries of
        the replaced estimator can never answer for the new one.
        """
        estimator.table  # raises NotFittedError early on unfitted models
        _apply_precision(estimator, precision)
        model = ServedModel(
            name,
            estimator,
            fallback=self._resolve_fallback(estimator, fallback),
            source_path=source_path,
            telemetry=self.telemetry,
            precision=precision,
        )
        with self._registry_lock:
            previous = self._models.get(name)
        if previous is not None:
            with model.lock:
                model.version = previous.current_version() + 1
        self._install(model)
        with self._registry_lock:
            replaced = self._models.get(name)
            self._models[name] = model
        self.cache.invalidate(lambda key: key[0] == name)
        if replaced is not None:
            self._retire(replaced)
        self.telemetry.increment("models.registered")
        return model

    def load_model(
        self, name: str, path: str, table, fallback=None, precision: str | None = None
    ) -> ServedModel:
        """Load a ``save_iam`` archive and serve it under ``name``.

        ``table`` rebinds inference exactly as
        :func:`repro.core.persistence.load_iam` requires; the archive
        path is remembered so :meth:`reload` can hot-swap new weights.
        ``precision`` pins the plan tier as in :meth:`register`.
        """
        return self.register(
            name, _estimator_from_archive(path, table), fallback=fallback,
            source_path=path, precision=precision,
        )

    def reload(self, name: str, force: bool = False) -> bool:
        """Hot-reload ``name`` from its archive if the file changed.

        Returns True when new weights were swapped in. The swap happens
        under the per-model lock, so in-flight batches finish on the old
        weights and later ones see the new; the bumped version keys the
        cache, so stale entries can never answer for the new model. The
        old compiled plan is invalidated with the same swap — the fresh
        estimator arrives with its own plan compiled from the new
        weights, so no thread can mix old-plan logits with new state.
        """
        model = self._require_model(name)
        if model.source_path is None:
            raise ServeError(f"model {name!r} was not loaded from an archive")
        current = _mtime(model.source_path)
        # Snapshot under the lock; the (slow) archive load runs outside
        # it so in-flight estimates keep draining on the old weights.
        with model.lock:
            last_mtime = model.source_mtime
            table = model.estimator.table
        if not force and current is not None and current == last_mtime:
            return False
        fresh = _estimator_from_archive(model.source_path, table)
        # Re-apply the pinned tier before the swap (outside the lock —
        # recompiling the plan is the slow part), so readers atomically
        # go from old-tier plan to new-tier plan with nothing in between.
        _apply_precision(fresh, model.precision)
        self._swap(model, fresh, current)
        self.cache.invalidate(lambda key: key[0] == name)
        self.telemetry.increment("models.reloaded")
        return True

    def unregister(self, name: str) -> None:
        with self._registry_lock:
            model = self._models.pop(name, None)
        if model is None:
            raise UnknownModelError(f"no model named {name!r}")
        self._retire(model)
        self.cache.invalidate(lambda key: key[0] == name)

    def models(self) -> list[dict]:
        with self._registry_lock:
            models = list(self._models.values())
        return [m.describe() for m in models]

    def model_names(self) -> list[str]:
        with self._registry_lock:
            return sorted(self._models)

    def _require_model(self, name: str) -> ServedModel:
        with self._registry_lock:
            model = self._models.get(name)
        if model is None:
            raise UnknownModelError(
                f"no model named {name!r}; registered: {self.model_names()}"
            )
        return model

    def _resolve_fallback(
        self, estimator: Estimator, fallback: Estimator | str | None
    ) -> Estimator | None:
        if isinstance(fallback, Estimator):
            return fallback
        name = self.config.fallback_estimator if fallback is None else fallback
        if not name:
            return None
        return build_estimator(name).fit(estimator.table)

    # ------------------------------------------------------------------
    # Model generations: where estimates execute
    # ------------------------------------------------------------------
    def _install(self, model: ServedModel) -> None:
        """Make a new model ready to serve, before it enters the registry."""
        model.batcher = MicroBatcher(
            model._run_batch,
            max_batch_size=self.config.max_batch_size,
            max_wait_ms=self.config.max_wait_ms,
            name=model.name,
        )

    def _swap(self, model: ServedModel, fresh: Estimator, mtime: float | None) -> None:
        """Serve ``fresh`` as the next version of ``model`` (hot reload)."""
        with model.lock:
            model.estimator = fresh
            model.plan = _runtime_plan_of(fresh)
            model.source_mtime = mtime
            model.version += 1

    def _retire(self, model: ServedModel) -> None:
        """Release what :meth:`_install` set up, once ``model`` left the registry."""
        model.batcher.close()

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate(
        self, model_name: str, query: Query, timeout_ms: float | None = None
    ) -> EstimateResult:
        """Serve one query: cache, then micro-batch, then fallback."""
        start = time.perf_counter()
        model = self._require_model(model_name)
        key = (model_name, model.current_version(), query.cache_key())
        self.telemetry.increment("requests")
        self.telemetry.increment(f"requests.{model_name}")

        cached = self.cache.get(key)
        if cached is not None:
            self.telemetry.increment("cache.hits")
            return self._finish(model, cached, "cache", False, start)
        self.telemetry.increment("cache.misses")

        rng = ensure_rng(query_seed(model_name, key[2]))
        deadline_ms = self.config.timeout_ms if timeout_ms is None else timeout_ms
        try:
            selectivity = model.batcher.submit(
                query,
                rng=rng,
                timeout_seconds=None if deadline_ms is None else deadline_ms / 1000.0,
            )
        except EstimateTimeoutError as exc:
            self.telemetry.increment("timeouts")
            return self._degrade(model, query, "fallback", start, exc)
        except Exception:
            self.telemetry.increment("errors")
            raise
        self.cache.put(key, selectivity)
        return self._finish(model, selectivity, "batch", False, start)

    def estimate_sequential(self, model_name: str, query: Query) -> float:
        """The reference path: no cache, no batcher, same determinism.

        This equals :meth:`estimate`'s selectivity bitwise for the same
        (model, query) — the invariant the concurrency tests and
        ``--selftest`` assert.
        """
        model = self._require_model(model_name)
        rngs = [ensure_rng(query_seed(model_name, query.cache_key()))]
        with model.lock:
            return float(model.estimator.estimate_batch([query], rngs=rngs)[0])

    def _degrade(
        self, model: ServedModel, query: Query, source: str, start: float, error: Exception
    ) -> EstimateResult:
        """Answer from ``model``'s fallback, marked degraded; without a
        fallback, raise ``error`` (why the primary path gave up)."""
        if model.fallback is None:
            raise error
        selectivity = float(model.fallback.estimate(query))
        self.telemetry.increment("degraded")
        return self._finish(model, selectivity, source, True, start)

    def _finish(
        self, model: ServedModel, selectivity: float, source: str, degraded: bool, start: float
    ) -> EstimateResult:
        latency_ms = (time.perf_counter() - start) * 1000.0
        self.telemetry.observe_ms("estimate", latency_ms)
        self.telemetry.observe_ms(f"estimate.{model.name}", latency_ms)
        return EstimateResult(
            model=model.name,
            selectivity=float(selectivity),
            cardinality=float(selectivity) * model.num_rows,
            source=source,
            degraded=degraded,
            latency_ms=latency_ms,
        )

    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """JSON-ready health/telemetry snapshot for ``/metrics``."""
        return {
            "uptime_seconds": round(time.time() - self.started_at, 1),
            "models": self.models(),
            "cache": self.cache.stats().as_dict(),
            "telemetry": self.telemetry.snapshot(),
        }

    def close(self) -> None:
        with self._registry_lock:
            models = list(self._models.values())
            self._models.clear()
        for model in models:
            self._retire(model)


def _estimator_from_archive(path: str, table) -> Estimator:
    """load_iam + wrap in the Estimator interface the service speaks."""
    from repro.core.persistence import load_iam
    from repro.estimators.iam import IAMEstimator

    core_model = load_iam(path, table)
    estimator = IAMEstimator(config=core_model.config)
    estimator.model = core_model
    estimator._table = table
    return estimator

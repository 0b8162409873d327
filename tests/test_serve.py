"""repro.serve: cache, telemetry, batcher, and service behaviour.

The concurrency tests assert the subsystem's core invariant: served
selectivities (through micro-batching, caching, and N client threads)
are bitwise-equal to single-threaded sequential estimation on the same
fitted model.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.core.persistence import save_iam
from repro.errors import (
    ConfigError,
    EstimateTimeoutError,
    NotFittedError,
    ServeError,
    UnknownModelError,
)
from repro.estimators.iam import IAMEstimator
from repro.query.generator import QueryGenerator
from repro.serve import (
    EstimationService,
    MicroBatcher,
    QueryCache,
    ServeConfig,
    Telemetry,
)
from repro.serve.cluster.testing import SlowEstimator as _Slow


# ----------------------------------------------------------------------
# QueryCache
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestQueryCache:
    def test_hit_miss_counters(self):
        cache = QueryCache(max_entries=4)
        assert cache.get("a") is None
        cache.put("a", 1.0)
        assert cache.get("a") == 1.0
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert 0 < stats.hit_rate < 1

    def test_lru_eviction_prefers_recently_used(self):
        cache = QueryCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'; 'b' is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats().evictions == 1

    def test_ttl_expiry_with_injected_clock(self):
        clock = FakeClock()
        cache = QueryCache(max_entries=8, ttl_seconds=10.0, clock=clock)
        cache.put("a", 1)
        clock.advance(9.0)
        assert cache.get("a") == 1
        clock.advance(2.0)
        assert cache.get("a") is None
        stats = cache.stats()
        assert stats.expirations == 1
        assert stats.entries == 0

    def test_overwrite_does_not_evict(self):
        cache = QueryCache(max_entries=2)
        cache.put("a", 1)
        cache.put("a", 2)
        cache.put("b", 3)
        assert cache.stats().evictions == 0
        assert cache.get("a") == 2

    def test_invalidate_by_predicate(self):
        cache = QueryCache(max_entries=8)
        for model in ("m1", "m2"):
            for i in range(3):
                cache.put((model, i), i)
        assert cache.invalidate(lambda k: k[0] == "m1") == 3
        assert len(cache) == 3
        assert cache.get(("m2", 0)) == 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            QueryCache(max_entries=0)
        with pytest.raises(ConfigError):
            QueryCache(ttl_seconds=0.0)


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
class TestTelemetry:
    def test_counters_and_snapshot(self):
        telemetry = Telemetry()
        telemetry.increment("requests")
        telemetry.increment("requests", 2)
        assert telemetry.counter("requests") == 3
        assert telemetry.snapshot()["counters"] == {"requests": 3}

    def test_latency_percentiles(self):
        telemetry = Telemetry()
        for ms in range(1, 101):
            telemetry.observe_ms("estimate", float(ms))
        summary = telemetry.snapshot()["latency"]["estimate"]
        assert summary["count"] == 100
        assert summary["p50_ms"] == 50.0
        assert summary["p95_ms"] == 95.0
        assert summary["p99_ms"] == 99.0
        assert summary["max_ms"] == 100.0
        assert summary["mean_ms"] == pytest.approx(50.5)

    def test_bounded_window(self):
        telemetry = Telemetry(window=10)
        for ms in range(1000):
            telemetry.observe_ms("x", float(ms))
        summary = telemetry.snapshot()["latency"]["x"]
        assert summary["count"] == 1000  # lifetime count survives
        assert summary["p50_ms"] >= 990.0  # percentiles reflect the window


class TestTelemetryMerge:
    """Multi-process aggregation: snapshots merge, not just the parent's."""

    def _loaded(self, requests: int, base_ms: float) -> Telemetry:
        telemetry = Telemetry()
        telemetry.increment("requests", requests)
        for i in range(requests):
            telemetry.observe_ms("estimate", base_ms + i)
        return telemetry

    def test_counters_sum_across_workers(self):
        merged = self._loaded(3, 1.0).export()
        merged.merge(self._loaded(5, 1.0).export())
        merged.merge(Telemetry().export())  # empty worker is a no-op
        assert merged.as_dict()["counters"] == {"requests": 8}

    def test_latency_reservoirs_pool_rather_than_average(self):
        # worker A: 1..100ms, worker B: 1001..1100ms. Pooled p50 must sit
        # at the boundary of the union, not at either worker's median.
        merged = self._loaded(100, 1.0).export()
        merged.merge(self._loaded(100, 1001.0).export())
        summary = merged.as_dict()["latency"]["estimate"]
        assert summary["count"] == 200
        assert summary["p50_ms"] == 100.0
        assert summary["p99_ms"] == 1098.0
        assert summary["max_ms"] == 1100.0

    def test_merge_returns_self_and_chains(self):
        snapshot = self._loaded(1, 5.0).export()
        chained = snapshot.merge(self._loaded(1, 7.0).export()).merge(
            self._loaded(1, 9.0).export()
        )
        assert chained is snapshot
        assert chained.as_dict()["counters"] == {"requests": 3}

    def test_snapshot_shape_is_unchanged_by_export_path(self):
        telemetry = self._loaded(4, 2.0)
        assert telemetry.snapshot() == telemetry.export().as_dict()


# ----------------------------------------------------------------------
# MicroBatcher
# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_coalesces_concurrent_submissions(self, twi_workload):
        queries = twi_workload.queries[:8]
        batch_sizes: list[int] = []

        def run_batch(batch, rngs):
            batch_sizes.append(len(batch))
            return np.array([float(len(q.predicates)) for q in batch])

        batcher = MicroBatcher(run_batch, max_batch_size=8, max_wait_ms=100.0)
        try:
            results: dict[int, float] = {}
            barrier = threading.Barrier(len(queries))

            def client(i):
                barrier.wait()
                results[i] = batcher.submit(queries[i], np.random.default_rng(i))

            threads = [threading.Thread(target=client, args=(i,)) for i in range(len(queries))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            batcher.close()

        for i, query in enumerate(queries):
            assert results[i] == float(len(query.predicates))
        assert sum(batch_sizes) == len(queries)
        assert max(batch_sizes) > 1  # at least one real coalesced batch
        stats = batcher.stats()
        assert stats.requests == len(queries)
        assert stats.largest_batch == max(batch_sizes)

    def test_propagates_worker_exception(self, twi_workload):
        def run_batch(batch, rngs):
            raise ValueError("kaboom")

        batcher = MicroBatcher(run_batch, max_batch_size=2, max_wait_ms=0.0)
        try:
            with pytest.raises(ValueError, match="kaboom"):
                batcher.submit(twi_workload.queries[0], np.random.default_rng(0))
        finally:
            batcher.close()

    def test_timeout_raises(self, twi_workload):
        def run_batch(batch, rngs):
            time.sleep(0.5)
            return np.zeros(len(batch))

        batcher = MicroBatcher(run_batch, max_batch_size=2, max_wait_ms=0.0)
        try:
            with pytest.raises(EstimateTimeoutError):
                batcher.submit(
                    twi_workload.queries[0], np.random.default_rng(0), timeout_seconds=0.02
                )
        finally:
            batcher.close()

    def test_submit_after_close_fails(self, twi_workload):
        batcher = MicroBatcher(lambda b, r: np.zeros(len(b)))
        batcher.close()
        with pytest.raises(ServeError):
            batcher.submit(twi_workload.queries[0], np.random.default_rng(0))


# ----------------------------------------------------------------------
# EstimationService
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def iam_estimator(fitted_iam, twi_small) -> IAMEstimator:
    """The session IAM behind the Estimator interface the service speaks."""
    estimator = IAMEstimator(config=fitted_iam.config)
    estimator.model = fitted_iam
    estimator._table = twi_small
    return estimator


@pytest.fixture()
def service(iam_estimator) -> EstimationService:
    svc = EstimationService(
        ServeConfig(max_batch_size=8, max_wait_ms=5.0, fallback_estimator=None)
    )
    svc.register("twi", iam_estimator)
    yield svc
    svc.close()


class TestEstimationService:
    def test_concurrent_served_equals_sequential(self, service, twi_workload):
        """8 threads + batching + caching == single-threaded reference."""
        queries = twi_workload.queries[:10]
        reference = [service.estimate_sequential("twi", q) for q in queries]

        results: dict[tuple[int, int, int], float] = {}
        sources: list[str] = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def client(tid):
            barrier.wait()
            for repeat in range(2):
                for qi, query in enumerate(queries):
                    r = service.estimate("twi", query)
                    with lock:
                        results[(tid, repeat, qi)] = r.selectivity
                        sources.append(r.source)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(results) == 8 * 2 * len(queries)
        for (tid, repeat, qi), value in results.items():
            assert value == reference[qi], (
                f"thread {tid} repeat {repeat} query {qi}: "
                f"{value} != {reference[qi]}"
            )
        stats = service.cache.stats()
        assert stats.hits > 0
        assert "cache" in sources and "batch" in sources
        # Equal selectivities must survive the arithmetic into cardinality.
        single = service.estimate("twi", queries[0])
        assert single.cardinality == single.selectivity * service._require_model("twi").num_rows

    def test_repeat_is_deterministic_across_service_instances(
        self, iam_estimator, twi_workload
    ):
        query = twi_workload.queries[0]
        values = []
        for _ in range(2):
            svc = EstimationService(ServeConfig(fallback_estimator=None))
            svc.register("twi", iam_estimator)
            try:
                values.append(svc.estimate("twi", query).selectivity)
            finally:
                svc.close()
        assert values[0] == values[1]

    def test_unknown_model(self, service, twi_workload):
        with pytest.raises(UnknownModelError):
            service.estimate("nope", twi_workload.queries[0])

    def test_unfitted_estimator_rejected(self):
        svc = EstimationService(ServeConfig(fallback_estimator=None))
        try:
            with pytest.raises(NotFittedError):
                svc.register("bad", IAMEstimator())
        finally:
            svc.close()

    def test_timeout_falls_back_degraded(self, service, iam_estimator, twi_workload):
        service.register(
            "slow", _Slow(iam_estimator, delay_seconds=0.3), fallback="sampling"
        )
        result = service.estimate("slow", twi_workload.queries[0], timeout_ms=10.0)
        assert result.degraded and result.source == "fallback"
        assert 0.0 <= result.selectivity <= 1.0
        assert service.telemetry.counter("degraded") == 1
        # Degraded answers are not cached: a later generous call recomputes.
        follow_up = service.estimate("slow", twi_workload.queries[0], timeout_ms=5000.0)
        assert follow_up.source == "batch" and not follow_up.degraded

    def test_timeout_without_fallback_raises(self, service, iam_estimator, twi_workload):
        service.register("slow-nofb", _Slow(iam_estimator, delay_seconds=0.3), fallback="")
        with pytest.raises(EstimateTimeoutError):
            service.estimate("slow-nofb", twi_workload.queries[0], timeout_ms=10.0)

    def test_metrics_shape(self, service, twi_workload):
        service.estimate("twi", twi_workload.queries[0])
        metrics = service.metrics()
        assert metrics["models"][0]["name"] == "twi"
        assert metrics["cache"]["misses"] >= 1
        assert "estimate" in metrics["telemetry"]["latency"]
        assert metrics["telemetry"]["counters"]["requests"] >= 1

    def test_reregistered_name_does_not_answer_from_the_old_cache(
        self, service, twi_small, twi_workload
    ):
        from repro.estimators.registry import build_estimator

        query = twi_workload.queries[0]
        service.register("m", build_estimator("sampling", seed=0).fit(twi_small))
        service.estimate("m", query)
        replacement = build_estimator("postgres").fit(twi_small)
        service.register("m", replacement)
        result = service.estimate("m", query)
        assert result.source == "batch"
        assert result.selectivity == pytest.approx(replacement.estimate(query))
        assert service._require_model("m").current_version() == 1

    def test_unregister(self, service, twi_workload):
        service.estimate("twi", twi_workload.queries[0])
        service.unregister("twi")
        with pytest.raises(UnknownModelError):
            service.estimate("twi", twi_workload.queries[0])
        with pytest.raises(UnknownModelError):
            service.unregister("twi")


class TestHotReload:
    def test_load_and_reload(self, fitted_iam, twi_small, tmp_path, twi_workload):
        path = os.fspath(tmp_path / "iam.npz")
        save_iam(fitted_iam, path)
        svc = EstimationService(ServeConfig(fallback_estimator=None))
        try:
            svc.load_model("twi", path, twi_small)
            query = twi_workload.queries[0]
            before = svc.estimate("twi", query)
            assert svc.cache.stats().entries == 1

            # Unchanged archive: no reload.
            assert svc.reload("twi") is False
            # Touched archive: hot-swap, version bump, cache invalidated.
            os.utime(path, (time.time() + 5, time.time() + 5))
            assert svc.reload("twi") is True
            model = svc._require_model("twi")
            assert model.current_version() == 1
            assert svc.cache.stats().entries == 0
            after = svc.estimate("twi", query)
            # Same archive bits + deterministic serving = same answer.
            assert after.selectivity == before.selectivity
        finally:
            svc.close()

    def test_reload_requires_archive_backing(self, service):
        with pytest.raises(ServeError):
            service.reload("twi")

    def test_forced_reload_without_change(self, fitted_iam, twi_small, tmp_path):
        path = os.fspath(tmp_path / "iam.npz")
        save_iam(fitted_iam, path)
        svc = EstimationService(ServeConfig(fallback_estimator=None))
        try:
            svc.load_model("twi", path, twi_small)
            assert svc.reload("twi", force=True) is True
            assert svc._require_model("twi").current_version() == 1
        finally:
            svc.close()


# ----------------------------------------------------------------------
# Precision tiers through the serving layer
# ----------------------------------------------------------------------
class TestPrecisionServing:
    def test_precision_knob_threads_through_load_and_reload(
        self, fitted_iam, twi_small, tmp_path, twi_workload
    ):
        path = os.fspath(tmp_path / "iam.npz")
        save_iam(fitted_iam, path)
        query = twi_workload.queries[0]

        svc = EstimationService(ServeConfig(fallback_estimator=None))
        try:
            svc.load_model("twi", path, twi_small, precision="float32")
            served = svc._require_model("twi")
            assert served.precision == "float32"
            info = served.describe()
            assert info["plan_dtype"] == "float32"
            assert info["plan_nbytes"] == served.plan.nbytes()
            before = svc.estimate("twi", query).selectivity

            # The same archive served at the default tier stays float64.
            reference = EstimationService(ServeConfig(fallback_estimator=None))
            try:
                reference.load_model("twi", path, twi_small)
                assert (
                    reference._require_model("twi").describe()["plan_dtype"]
                    == "float64"
                )
            finally:
                reference.close()

            # Hot reload re-applies the model's tier to the fresh estimator.
            os.utime(path, (time.time() + 5, time.time() + 5))
            assert svc.reload("twi") is True
            assert svc._require_model("twi").describe()["plan_dtype"] == "float32"
            assert svc.estimate("twi", query).selectivity == before
        finally:
            svc.close()

    @staticmethod
    def _load_fitted(overrides, twi_small, tmp_path, precision=None):
        """Fit with ``overrides``, save, and ``load_model`` the archive;
        returns (fitted IAM, service)."""
        from repro.core.config import IAMConfig
        from repro.core.model import IAM
        from tests.conftest import FAST_IAM

        fitted = IAM(IAMConfig(**{**FAST_IAM, "epochs": 1, **overrides})).fit(twi_small)
        path = os.fspath(tmp_path / "iam.npz")
        save_iam(fitted, path)
        svc = EstimationService(ServeConfig(fallback_estimator=None))
        svc.load_model("twi", path, twi_small, precision=precision)
        return fitted, svc

    @staticmethod
    def _assert_served_like_fitted(svc, fitted, queries):
        from repro.utils.rng import ensure_rng, query_seed

        for query in queries:
            rng = ensure_rng(query_seed("twi", query.cache_key()))
            expected = fitted.estimate_many([query], rngs=[rng])[0]
            assert svc.estimate("twi", query).selectivity == expected

    @pytest.mark.parametrize("precision", [None, "float32"])
    def test_float32_archive_serves_float32_plan(
        self, precision, twi_small, tmp_path, twi_workload
    ):
        """The archive's own tier is served, whether or not it is asked for."""
        fitted, svc = self._load_fitted(
            {"inference_precision": "float32"}, twi_small, tmp_path, precision
        )
        try:
            assert svc._require_model("twi").describe()["plan_dtype"] == "float32"
            self._assert_served_like_fitted(svc, fitted, twi_workload.queries[:6])
        finally:
            svc.close()

    def test_stratified_archive_answers_like_fitted_model(
        self, twi_small, tmp_path, twi_workload
    ):
        fitted, svc = self._load_fitted(
            {"stratified_sampling": True}, twi_small, tmp_path
        )
        try:
            self._assert_served_like_fitted(svc, fitted, twi_workload.queries[:6])
        finally:
            svc.close()

    def test_precision_rejected_for_estimators_without_tiers(self, twi_small):
        from repro.estimators.registry import build_estimator

        estimator = build_estimator("sampling", fraction=0.05, seed=0).fit(twi_small)
        svc = EstimationService(ServeConfig(fallback_estimator=None))
        try:
            with pytest.raises(ConfigError):
                svc.register("s", estimator, precision="float32")
        finally:
            svc.close()

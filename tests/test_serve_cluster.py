"""repro.serve.cluster: shared-plan publication, routing, and recovery.

The subsystem's invariant extends the serve layer's: a selectivity
served by ANY worker process — through that worker's cache and
micro-batcher, after a crash-triggered retry, or after a hot reload —
is bitwise-equal to the single-process sequential reference.  These
tests also gate the lifecycle guarantees: kill -9 recovery without lost
requests, admission-control shedding, and zero leaked ``/dev/shm``
segments once a service closes.

Worker processes are spawned (each one re-imports the package), so the
clusters here are deliberately few and small: module-scoped where
possible, one or two workers each.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.persistence import save_iam
from repro.errors import (
    ConfigError,
    OverloadError,
    ServeError,
    UnknownModelError,
)
from repro.estimators.iam import IAMEstimator
from repro.serve import ClusterConfig, ClusterService, ServeConfig
from repro.serve.cluster import (
    attach_plan,
    dump_for_worker,
    leaked_segments,
    load_in_worker,
    publish_plan,
)
from repro.serve.cluster.shm import PlanSegment
from repro.serve.cluster.testing import SlowEstimator


@pytest.fixture(scope="module")
def iam_estimator(fitted_iam, twi_small) -> IAMEstimator:
    estimator = IAMEstimator(config=fitted_iam.config)
    estimator.model = fitted_iam
    estimator._table = twi_small
    return estimator


def _wait_until(predicate, timeout_s: float = 30.0, interval_s: float = 0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


# ----------------------------------------------------------------------
# shm: publish / attach / refcount
# ----------------------------------------------------------------------
class TestSharedPlanSegments:
    def test_publish_attach_roundtrip_is_zero_copy(self, iam_estimator):
        plan = iam_estimator.runtime_plan()
        segment = publish_plan(plan, nonce=901)
        try:
            attachment = attach_plan(segment.name)
            shared = attachment.plan
            assert shared.fingerprint == plan.fingerprint
            np.testing.assert_array_equal(shared.out_weight, plan.out_weight)
            assert not shared.out_weight.flags.writeable
            # zero-copy: the attached arrays alias the mapping, not a copy
            assert shared.out_weight.base is not None
            # close refuses while views are alive, succeeds once dropped
            assert attachment.close() is False
            del shared
            assert attachment.close() is True
        finally:
            assert segment.release() is True
        assert segment.released

    def test_refcount_delays_unlink_until_last_release(self, iam_estimator):
        plan = iam_estimator.runtime_plan()
        segment = publish_plan(plan, nonce=902)
        segment.retain()
        assert segment.release() is False  # one holder left
        assert segment.name in leaked_segments()
        assert segment.release() is True
        assert segment.name not in leaked_segments()
        with pytest.raises(ServeError):
            segment.retain()

    def test_float32_segment_halves_bytes_and_roundtrips(self, iam_estimator):
        from repro.runtime import compile_made

        made = iam_estimator.model.model
        plan64 = compile_made(made)
        plan32 = compile_made(made, dtype=np.float32)
        seg64 = publish_plan(plan64, nonce=911)
        seg32 = publish_plan(plan32, nonce=912)
        try:
            assert np.dtype(seg64.dtype) == np.float64
            assert np.dtype(seg32.dtype) == np.float32
            assert seg32.describe()["dtype"] == seg32.dtype
            assert seg32.nbytes <= 0.6 * seg64.nbytes
            attachment = attach_plan(seg32.name, verify=True)
            try:
                shared = attachment.plan
                assert shared.dtype == np.float32
                rng = np.random.default_rng(4)
                tokens = np.column_stack(
                    [rng.integers(0, v, size=16) for v in plan32.vocab_sizes]
                )
                for column in range(plan32.n_columns):
                    assert np.array_equal(
                        shared.forward_slice(column, tokens),
                        plan32.forward_slice(column, tokens),
                    )
            finally:
                del shared
                attachment.close()
        finally:
            assert seg64.release() is True
            assert seg32.release() is True
        assert seg64.released and seg32.released

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        raw = shared_memory.SharedMemory(create=True, size=128)
        try:
            with pytest.raises(ConfigError):
                attach_plan(raw.name)
        finally:
            raw.close()
            raw.unlink()

    def test_plan_pickler_externalizes_plans_and_workspaces(self, iam_estimator):
        plan = iam_estimator.runtime_plan()
        payload, fingerprints = dump_for_worker(
            [{"name": "twi", "version": 0, "estimator": iam_estimator}]
        )
        assert fingerprints == [plan.fingerprint]
        # The plan's arrays must NOT be in the payload: a plain pickle of
        # the same graph carries them, so it is bigger by about that much.
        import pickle

        plan_bytes = sum(a.nbytes for a in plan.to_buffers()[1].values())
        plain = pickle.dumps(
            [{"name": "twi", "version": 0, "estimator": iam_estimator}]
        )
        assert len(plain) - len(payload) > plan_bytes // 2
        entries = load_in_worker(payload, {plan.fingerprint: plan})
        rebuilt = entries[0]["estimator"]
        assert rebuilt.runtime_plan() is plan

    def test_load_without_segment_fails_loudly(self, iam_estimator):
        payload, _ = dump_for_worker([{"estimator": iam_estimator}])
        with pytest.raises(ServeError, match="no matching"):
            load_in_worker(payload, {})


# ----------------------------------------------------------------------
# ClusterService: routing + determinism
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cluster(iam_estimator):
    before = leaked_segments()
    service = ClusterService(
        ClusterConfig(
            workers=2,
            serve=ServeConfig(max_batch_size=8, max_wait_ms=5.0),
            heartbeat_interval_s=0.2,
        )
    )
    service.register("twi", iam_estimator, fallback="")
    service.start()
    yield service
    service.close()
    assert leaked_segments() == before


class TestClusterService:
    def test_concurrent_cluster_equals_sequential(self, cluster, twi_workload):
        queries = twi_workload.queries[:8]
        reference = [cluster.estimate_sequential("twi", q) for q in queries]

        results: dict[tuple[int, int], float] = {}
        errors: list[str] = []
        lock = threading.Lock()
        barrier = threading.Barrier(6)

        def client(tid):
            barrier.wait()
            for qi, query in enumerate(queries):
                try:
                    r = cluster.estimate("twi", query)
                except Exception as exc:  # pragma: no cover - diagnostics
                    with lock:
                        errors.append(repr(exc))
                    return
                with lock:
                    results[(tid, qi)] = r.selectivity
                assert not r.degraded
                assert r.source.startswith("worker")

        threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 6 * len(queries)
        for (_tid, qi), value in results.items():
            assert value == reference[qi]

    def test_unknown_model_raises_without_worker_round_trip(self, cluster, twi_workload):
        with pytest.raises(UnknownModelError):
            cluster.estimate("nope", twi_workload.queries[0])

    def test_metrics_merge_worker_telemetry(self, cluster, twi_workload):
        for query in twi_workload.queries[:4]:
            cluster.estimate("twi", query)
        metrics = cluster.metrics()
        assert len(metrics["workers"]) == 2
        assert all(w["alive"] for w in metrics["workers"])
        counters = metrics["telemetry"]["counters"]
        # parent routing counters and worker-side service counters both
        # appear in the merged view: worker 'requests' at least match the
        # parent's non-shed request count.
        assert counters["requests"] >= 2 * 4
        assert "cache.misses" in counters
        assert metrics["segments"] and not metrics["segments"][0]["unlinked"]

    def test_estimator_without_plan_is_rejected(self, cluster, twi_small):
        class Planless:
            name = "planless"

            @property
            def table(self):
                return twi_small

        with pytest.raises(ConfigError, match="compiled plan"):
            cluster.register("planless", Planless(), fallback="")


def test_hash_policy_pins_queries_for_cache_affinity(iam_estimator, twi_workload):
    before = leaked_segments()
    service = ClusterService(
        ClusterConfig(
            workers=2,
            shard_policy="hash",
            serve=ServeConfig(max_batch_size=8, max_wait_ms=5.0),
        )
    )
    try:
        service.start()
        # register AFTER start: covers the broadcast-to-live-pool path
        service.register("twi", iam_estimator, fallback="")
        queries = twi_workload.queries[:5]
        first = [service.estimate("twi", q) for q in queries]
        second = [service.estimate("twi", q) for q in queries]
        for a, b in zip(first, second):
            assert b.selectivity == a.selectivity
            # the repeat hits the SAME worker's cache
            assert b.source == a.source.split(".")[0] + ".cache"
    finally:
        service.close()
    assert leaked_segments() == before


# ----------------------------------------------------------------------
# Degradation: shedding, timeouts, overload
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def slow_cluster(iam_estimator):
    before = leaked_segments()
    service = ClusterService(
        ClusterConfig(
            workers=1,
            max_queue_depth=1,
            serve=ServeConfig(max_batch_size=4, max_wait_ms=1.0),
        )
    )
    service.register(
        "slow", SlowEstimator(iam_estimator, delay_seconds=0.25), fallback="sampling"
    )
    service.start()
    yield service
    service.close()
    assert leaked_segments() == before


class TestDegradation:
    def test_queue_overflow_sheds_to_fallback(self, slow_cluster, twi_workload):
        queries = twi_workload.queries[:6]
        results = []
        lock = threading.Lock()
        barrier = threading.Barrier(len(queries))

        def client(query):
            barrier.wait()
            r = slow_cluster.estimate("slow", query)
            with lock:
                results.append(r)

        threads = [threading.Thread(target=client, args=(q,)) for q in queries]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == len(queries)
        shed = [r for r in results if r.source == "shed"]
        assert shed and all(r.degraded for r in shed)
        assert slow_cluster.telemetry.counter("cluster.shed") >= len(shed)
        assert any(r.source.startswith("worker") for r in results)

    def test_deadline_miss_falls_back_degraded(self, slow_cluster, twi_workload):
        result = slow_cluster.estimate(
            "slow", twi_workload.queries[6], timeout_ms=30.0
        )
        assert result.degraded and result.source == "fallback"
        assert slow_cluster.telemetry.counter("timeouts") >= 1


def test_serve_config_deadline_degrades_cluster_requests(iam_estimator, twi_workload):
    before = leaked_segments()
    service = ClusterService(ClusterConfig(workers=1, serve=ServeConfig(timeout_ms=20.0)))
    try:
        service.register(
            "slow", SlowEstimator(iam_estimator, delay_seconds=0.3), fallback="sampling"
        )
        service.start()
        result = service.estimate("slow", twi_workload.queries[0])
        assert result.degraded and result.source == "fallback"
        assert result.latency_ms < 300.0
    finally:
        service.close()
    assert leaked_segments() == before


def test_overload_without_fallback_raises_429_error(iam_estimator, twi_workload):
    before = leaked_segments()
    service = ClusterService(
        ClusterConfig(
            workers=1,
            max_queue_depth=1,
            serve=ServeConfig(max_batch_size=4, max_wait_ms=1.0),
        )
    )
    try:
        service.register(
            "slow", SlowEstimator(iam_estimator, delay_seconds=0.4), fallback=""
        )
        service.start()
        outcomes = []
        lock = threading.Lock()
        barrier = threading.Barrier(4)

        def client(query):
            barrier.wait()
            try:
                service.estimate("slow", query)
                with lock:
                    outcomes.append("ok")
            except OverloadError:
                with lock:
                    outcomes.append("overload")

        threads = [
            threading.Thread(target=client, args=(q,))
            for q in twi_workload.queries[:4]
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert "overload" in outcomes and "ok" in outcomes
    finally:
        service.close()
    assert leaked_segments() == before


# ----------------------------------------------------------------------
# Crash recovery and hot reload
# ----------------------------------------------------------------------
def test_kill9_worker_recovers_without_lost_requests(iam_estimator, twi_workload):
    before = leaked_segments()
    service = ClusterService(
        ClusterConfig(
            workers=2,
            serve=ServeConfig(max_batch_size=8, max_wait_ms=5.0),
            heartbeat_interval_s=0.2,
        )
    )
    try:
        service.register("twi", iam_estimator, fallback="")
        service.start()
        queries = twi_workload.queries[:6]
        reference = [service.estimate_sequential("twi", q) for q in queries]
        original_pids = {w["pid"] for w in service.metrics()["workers"]}

        stop = threading.Event()
        results: list[tuple[int, float]] = []
        errors: list[str] = []
        lock = threading.Lock()

        def client():
            while not stop.is_set():
                for qi, query in enumerate(queries):
                    try:
                        r = service.estimate("twi", query)
                    except Exception as exc:  # pragma: no cover - diagnostics
                        with lock:
                            errors.append(repr(exc))
                        return
                    with lock:
                        results.append((qi, r.selectivity))

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.3)  # in-flight load on both workers
        victim = service.pool.workers()[0].process.pid
        os.kill(victim, signal.SIGKILL)

        assert _wait_until(lambda: service.pool.restarts() >= 1)
        time.sleep(0.5)  # traffic through the respawned worker
        stop.set()
        for t in threads:
            t.join(30.0)

        assert not errors
        assert results
        for qi, value in results:
            assert value == reference[qi]
        final = service.metrics()
        assert all(w["alive"] for w in final["workers"])
        new_pids = {w["pid"] for w in final["workers"]}
        assert victim not in new_pids
        assert new_pids - original_pids  # a genuinely fresh process
    finally:
        service.close()
    assert leaked_segments() == before


def test_hot_reload_swaps_segment_and_bumps_version(
    fitted_iam, twi_small, twi_workload, tmp_path
):
    path = str(tmp_path / "twi.iam.npz")
    save_iam(fitted_iam, path)
    baseline = leaked_segments()
    service = ClusterService(
        ClusterConfig(workers=1, serve=ServeConfig(max_batch_size=8, max_wait_ms=5.0))
    )
    try:
        service.start()
        service.load_model("twi", path, twi_small, fallback="")
        query = twi_workload.queries[0]
        before = service.estimate("twi", query)
        old_segment: PlanSegment = service._require_model("twi").segment
        assert service.reload("twi") is False  # archive unchanged

        os.utime(path, (time.time() + 5, time.time() + 5))
        assert service.reload("twi") is True
        record = service._require_model("twi")
        assert record.version == 1
        assert record.segment is not old_segment
        assert old_segment.released  # old generation drained + unlinked
        assert old_segment.name not in leaked_segments()

        after = service.estimate("twi", query)
        # same archive bytes -> same model -> bitwise-equal answers, and
        # equal to the sequential reference on the reloaded estimator
        assert after.selectivity == before.selectivity
        assert after.selectivity == service.estimate_sequential("twi", query)
    finally:
        service.close()
    assert leaked_segments() == baseline

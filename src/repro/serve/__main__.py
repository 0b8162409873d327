"""CLI: run (or smoke-test) the estimation service.

Usage::

    python -m repro.serve                      # fit a demo IAM, serve :8080
    python -m repro.serve --port 9000 --dataset wisdm --rows 20000
    python -m repro.serve --workers 4          # multi-process sharded pool
    python -m repro.serve --selftest           # CI smoke: fit, serve, verify
    python -m repro.serve --selftest --workers 2   # multi-process smoke

``--selftest`` exercises the whole stack — concurrent clients through
micro-batching and the cache, bitwise-equality against the sequential
reference, telemetry, a ``save_iam`` archive loaded under a second name
(bitwise-equal to the fitted model), an HTTP round trip, and the
degraded/timeout fallback — and exits nonzero on any violation.  With
``--workers N`` (N > 1) the same steps run against the multi-process
cluster, plus a SIGKILL/respawn cycle and a shared-memory leak check.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

from repro.serve.http import make_server, start_in_background
from repro.serve.service import EstimationService, ServeConfig

_FAST_IAM = dict(
    n_components=6,
    gmm_domain_threshold=100,
    epochs=2,
    learning_rate=1e-2,
    hidden_sizes=(16, 16),
    n_progressive_samples=64,
    samples_per_component=500,
    interval_kind="empirical",
    seed=0,
)


def _fit_demo_estimator(dataset: str, rows: int, epochs: int | None,
                        quiet: bool = False):
    from repro.core.config import IAMConfig
    from repro.datasets import load_dataset
    from repro.estimators.iam import IAMEstimator

    table = load_dataset(dataset, n_rows=rows, seed=0)
    overrides = dict(_FAST_IAM)
    if epochs is not None:
        overrides["epochs"] = epochs
    if not quiet:
        print(f"fitting IAM on {dataset} ({table.num_rows} rows) ...", flush=True)
    started = time.perf_counter()
    estimator = IAMEstimator(config=IAMConfig(**overrides)).fit(table)
    if not quiet:
        print(f"fitted in {time.perf_counter() - started:.1f}s", flush=True)
    return estimator


def build_demo_service(
    dataset: str = "twi",
    rows: int = 1500,
    epochs: int | None = None,
    config: ServeConfig | None = None,
    quiet: bool = False,
    workers: int = 1,
    shard_policy: str = "replicate",
    precision: str | None = None,
) -> EstimationService:
    """Fit a small IAM on a synthetic dataset and serve it by name.

    ``workers > 1`` serves it from a started
    :class:`~repro.serve.cluster.ClusterService` (an
    :class:`EstimationService` whose estimates run in worker processes).
    ``precision`` pins the compiled-plan tier ('float64' | 'float32')
    for the served model.
    """
    estimator = _fit_demo_estimator(dataset, rows, epochs, quiet=quiet)
    if workers > 1:
        from repro.serve.cluster import ClusterConfig, ClusterService

        service = ClusterService(
            ClusterConfig(
                workers=workers, shard_policy=shard_policy, serve=config or ServeConfig()
            )
        )
        if not quiet:
            print(f"starting {workers} worker processes ...", flush=True)
    else:
        service = EstimationService(config=config)
    service.register(dataset, estimator, precision=precision)
    return service.start()


# ----------------------------------------------------------------------
# Selftest
# ----------------------------------------------------------------------
def _http_json(url: str, payload: dict | None = None) -> tuple[int, dict]:
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def _selftest_queries(service: EstimationService, name: str, n: int):
    from repro.query.generator import QueryGenerator

    model = service._require_model(name)
    with model.lock:
        table = model.estimator.table
    generator = QueryGenerator(table, seed=42)
    return [generator.generate() for _ in range(n)]


def run_selftest(
    dataset: str = "twi",
    rows: int = 1500,
    workers: int = 1,
    shard_policy: str = "replicate",
    precision: str | None = None,
) -> int:
    """End-to-end smoke test; returns a process exit code.

    Covers concurrent clients through the cache and batcher (in worker
    processes when ``workers > 1``), bitwise equality against the
    sequential reference, telemetry, a saved-and-loaded archive that
    answers bitwise like the fitted model, an HTTP round trip, and the
    timeout-degrade path.  A cluster also gets a SIGKILL/respawn cycle
    and a /dev/shm leak check on close. ``precision`` pins the demo
    model's plan tier, as in :func:`build_demo_service`.
    """
    from repro.core.persistence import save_iam
    from repro.serve.cluster import leaked_segments
    from repro.serve.cluster.testing import SlowEstimator
    from repro.utils.rng import ensure_rng, query_seed

    baseline = leaked_segments()
    config = ServeConfig(max_batch_size=8, max_wait_ms=5.0, cache_entries=512)
    service = build_demo_service(
        dataset, rows=rows, config=config, workers=workers,
        shard_policy=shard_policy, precision=precision,
    )
    failures: list[str] = []
    try:
        plan_dtype = service.models()[0]["plan_dtype"]
        if precision is not None and plan_dtype != precision:
            failures.append(f"asked for a {precision} plan, serving {plan_dtype}")
        queries = _selftest_queries(service, dataset, 12)
        reference = [service.estimate_sequential(dataset, q) for q in queries]

        # 8 threads, 2 passes: the second pass must hit a cache, and
        # every served value must equal the sequential reference bitwise.
        results: dict[tuple[int, int], float] = {}
        errors: list[str] = []
        lock = threading.Lock()

        def client(thread_id: int) -> None:
            for repeat in range(2):
                for qi, query in enumerate(queries):
                    try:
                        r = service.estimate(dataset, query)
                    except Exception as exc:  # pragma: no cover - diagnostics
                        with lock:
                            errors.append(f"thread {thread_id}: {exc!r}")
                        return
                    with lock:
                        results[(thread_id * 2 + repeat, qi)] = r.selectivity

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            failures.append(f"client errors: {errors[:3]}")
        mismatches = sum(1 for (_, qi), v in results.items() if v != reference[qi])
        if mismatches:
            failures.append(f"{mismatches} served values differ from sequential reference")

        # Telemetry (merged across worker processes in a cluster).
        metrics = service.metrics()
        counters = metrics["telemetry"]["counters"]
        if counters.get("cache.hits", 0) == 0:
            failures.append("repeated workload produced zero cache hits")
        if counters.get("requests", 0) < len(results):
            failures.append(
                f"telemetry lost requests: {counters.get('requests', 0)} < {len(results)}"
            )
        if workers > 1 and sum(w["alive"] for w in metrics["workers"]) != workers:
            failures.append(f"expected {workers} live workers: {metrics['workers']}")

        # The archive path: the saved model, loaded under a second name,
        # answers bitwise like the fitted estimator for the same seeds.
        model, loaded = service._require_model(dataset), f"{dataset}-archive"
        with tempfile.TemporaryDirectory() as tmp, model.lock:
            path = os.path.join(tmp, "model.npz")
            save_iam(model.estimator.model, path)
            service.load_model(loaded, path, model.estimator.table)
            rngs = [ensure_rng(query_seed(loaded, q.cache_key())) for q in queries]
            fitted = [model.estimator.estimate_batch([q], [r])[0] for q, r in zip(queries, rngs)]
        if [service.estimate(loaded, q).selectivity for q in queries] != fitted:
            failures.append("answers of the loaded archive differ from the fitted model")
        service.unregister(loaded)

        # HTTP round trip on an ephemeral port.
        server = make_server(service, port=0)
        start_in_background(server)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            status, health = _http_json(f"{base}/healthz")
            if status != 200 or health.get("status") != "ok":
                failures.append(f"/healthz returned {status}: {health}")
            predicates = [[p.column, p.op.value, float(p.value)] for p in queries[0]]
            status, body = _http_json(
                f"{base}/estimate", {"model": dataset, "predicates": predicates}
            )
            if status != 200:
                failures.append(f"/estimate returned {status}: {body}")
            elif body["selectivity"] != reference[0]:
                failures.append("HTTP selectivity differs from sequential reference")
            status, _ = _http_json(f"{base}/metrics")
            if status != 200:
                failures.append(f"/metrics unhealthy (status {status})")
            status, _ = _http_json(
                f"{base}/estimate", {"model": "nope", "predicates": predicates}
            )
            if status != 404:
                failures.append(f"unknown model returned {status}, expected 404")
        finally:
            server.shutdown()
            server.server_close()

        if workers > 1:
            # SIGKILL one worker: the monitor must respawn it and answers
            # must stay bitwise-identical throughout.
            os.kill(service.pool.workers()[0].process.pid, signal.SIGKILL)
            deadline = time.perf_counter() + 30.0
            while service.pool.restarts() < 1 and time.perf_counter() < deadline:
                time.sleep(0.05)
            if service.pool.restarts() < 1:
                failures.append("killed worker was never respawned")
            after = [service.estimate(dataset, q).selectivity for q in queries]
            if after != reference:
                failures.append("answers diverged after worker respawn")

        # Degraded path: a deliberately slow model must fall back.
        # (SlowEstimator lives in an importable module, so spawned
        # workers can unpickle it.)
        with model.lock:
            estimator = model.estimator
        service.register(
            "slow", SlowEstimator(estimator, delay_seconds=0.3), fallback="sampling"
        )
        degraded = service.estimate("slow", queries[0], timeout_ms=15.0)
        if not degraded.degraded or degraded.source != "fallback":
            failures.append(f"timeout did not degrade: {degraded.as_dict()}")
    finally:
        service.close()

    leaks = [s for s in leaked_segments() if s not in baseline]
    if workers > 1 and leaks:
        failures.append(f"leaked shared-memory segments: {leaks}")

    if failures:
        print("SELFTEST FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"selftest ok ({workers} worker(s), {shard_policy if workers > 1 else 'in-process'}, "
        f"{plan_dtype} plan): "
        f"{len(results)} concurrent answers bitwise-equal, "
        f"{service.telemetry.counter('degraded')} degraded"
    )
    return 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve fitted selectivity estimators over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--dataset", choices=["twi", "wisdm", "higgs"], default="twi")
    parser.add_argument("--rows", type=int, default=1500, help="demo table rows")
    parser.add_argument("--epochs", type=int, default=None, help="demo IAM epochs")
    parser.add_argument("--timeout-ms", type=float, default=None,
                        help="per-request deadline before fallback")
    parser.add_argument("--max-batch-size", type=int, default=16)
    parser.add_argument("--max-wait-ms", type=float, default=0.0)
    parser.add_argument("--cache-ttl", type=float, default=None,
                        help="result cache TTL in seconds")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes; >1 serves through the "
                             "multi-process cluster")
    parser.add_argument("--shard-policy", choices=["replicate", "hash"],
                        default="replicate",
                        help="request routing across workers")
    parser.add_argument("--precision", choices=["float64", "float32"],
                        default=None,
                        help="compiled-plan precision tier for the demo "
                             "model (float32 = the q-error-gated serving "
                             "tier, half-size plans and shm segments)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the end-to-end smoke test and exit")
    args = parser.parse_args(argv)

    if args.selftest:
        return run_selftest(
            args.dataset, rows=args.rows, workers=args.workers,
            shard_policy=args.shard_policy, precision=args.precision,
        )

    config = ServeConfig(
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        timeout_ms=args.timeout_ms,
        cache_ttl_seconds=args.cache_ttl,
    )
    service = build_demo_service(
        args.dataset, rows=args.rows, epochs=args.epochs, config=config,
        workers=args.workers, shard_policy=args.shard_policy,
        precision=args.precision,
    )
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"serving {service.model_names()} on http://{host}:{port}", flush=True)
    print("endpoints: POST /estimate, GET /healthz, GET /models, GET /metrics")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

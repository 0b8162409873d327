"""The benchmark's four workloads: model set-up, load, checks, metrics.

The IAM config, dataset sizes and request streams are pinned here rather
than taken from ``repro.bench``, so a rewrite of the repository's own
bench harness cannot change what this benchmark measures.

Every workload serves a model fitted on a fixed dataset (seed 0) with a
fixed config (seed 0). ``--seed`` seeds only the request streams, the
Zipf draws and the planning rounds' bindings; every input is built
before timing starts, and the q-error set is the same on every run.
Load is a closed loop, because an optimizer waits for each estimate.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import resource
import sys
import tempfile
import threading
import time
import traceback
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from multiprocessing import resource_tracker

import numpy as np

import repro.core.persistence as persistence
from repro.core.config import IAMConfig
from repro.datasets import make_higgs, make_wisdm
from repro.estimators.iam import IAMEstimator
from repro.metrics import q_errors
from repro.query.executor import true_selectivity
from repro.query.generator import QueryGenerator
from repro.query.predicate import Op, Predicate
from repro.query.query import Query
from repro.serve.cluster import shm
from repro.serve.cluster.pool import ClusterConfig, ClusterService
from repro.serve.http import make_server, start_in_background
from repro.serve.service import EstimationService, ServeConfig
from repro.utils.rng import ensure_rng, query_seed

from perf.catalog import END_TO_END, PER_LAYER, WORKLOADS
from perf.trace import Tracer, coverage, layer_metrics, percentile

MODEL = "iam"
CLIENTS = 2  # the host has 2 cores; one process drives all the load
ACCURACY_SEED = 20220329  # the q-error set is the same on every run
TEMPLATE_SEED = 7  # the optimizer's query shapes are the same on every run
CHECK_EVERY_REQUEST = 50  # every 50th answer is compared bitwise
CHECK_EVERY_ROUND = 10


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale."""

    rows: int
    epochs: int
    hidden: tuple[int, ...]
    progressive_samples: int
    components: int
    mc_samples: int
    setups: int  # set-ups per untraced run; setup_s is their median
    warmup: int  # requests (estimates) that end each set-up
    accuracy_queries: int
    pool: int  # distinct queries behind the Zipf stream
    requests_per_s: int  # pre-built requests per measured second
    reload_every: int  # requests between forced reloads
    rounds_per_s: int  # pre-built planning rounds per measured second


# The paper-scale profile: 40k rows, hidden (128,128,128), S=512, K=30,
# 10k GMM samples. Two epochs, not twenty: a run sets up three times and
# the whole benchmark must fit its time budget.
FULL = Scale(
    rows=40_000, epochs=2, hidden=(128, 128, 128), progressive_samples=512,
    components=30, mc_samples=10_000, setups=3, warmup=20,
    accuracy_queries=1000, pool=2000, requests_per_s=1000, reload_every=150,
    rounds_per_s=40,
)
# Micro sizes for the self-tests: every workload in a few seconds.
SMOKE = Scale(
    rows=1200, epochs=2, hidden=(24, 24, 24), progressive_samples=64,
    components=6, mc_samples=300, setups=1, warmup=4,
    accuracy_queries=60, pool=100, requests_per_s=2000, reload_every=40,
    rounds_per_s=400,
)


def iam_config(scale: Scale) -> IAMConfig:
    return IAMConfig(
        n_components=scale.components,
        epochs=scale.epochs,
        learning_rate=1e-2,
        hidden_sizes=scale.hidden,
        n_progressive_samples=scale.progressive_samples,
        samples_per_component=scale.mc_samples,
        interval_kind="empirical",
        seed=0,
    )


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _rng(seed: int, purpose: str) -> np.random.Generator:
    """An independent generator per (seed, purpose)."""
    return np.random.default_rng([seed, zlib.crc32(purpose.encode())])


def mixed_queries(table, n: int, rng: np.random.Generator) -> list[Query]:
    """``n`` distinct queries: 70% the paper's uniform generator, 30%
    anchored on a tuple (the low-selectivity tail)."""
    generator = QueryGenerator(table, seed=rng)
    queries, seen = [], set()
    while len(queries) < n:
        if rng.random() < 0.3:
            query = generator.generate_centered(
                selectivity_hint=float(rng.choice([0.005, 0.01, 0.03]))
            )
        else:
            query = generator.generate()
        if query.cache_key() not in seen:
            seen.add(query.cache_key())
            queries.append(query)
    return queries


def body_of(query: Query) -> bytes:
    predicates = [[p.column, p.op.value, p.value] for p in query]
    return json.dumps({"model": MODEL, "predicates": predicates}).encode()


_SUBSETS = [
    [j for j in range(4) if mask >> j & 1] for mask in range(1, 16)
]


def planning_rounds(table, n_rounds: int, rng: np.random.Generator) -> list[list[Query]]:
    """Rounds of 60 estimates: a four-column template, 4 fresh bindings,
    and all 15 conjunct subsets of each binding.

    The 8 templates are the application's fixed query shapes, so they do
    not depend on the seed, and rounds take them in turn: every window
    then mixes the shapes in the same proportions. A binding anchors on
    a seeded random tuple and keeps, per column, a window of +-5/10/20%
    of the rows around the tuple's rank.
    """
    n = table.num_rows
    ordered = {c.name: np.sort(c.values) for c in table.columns}
    shapes = _rng(TEMPLATE_SEED, "templates")
    templates = [
        sorted(int(k) for k in shapes.choice(table.num_columns, size=4, replace=False))
        for _ in range(8)
    ]
    rounds = []
    for index in range(n_rounds):
        template = templates[index % len(templates)]
        queries = []
        for _ in range(4):
            row = int(rng.integers(n))
            width = float(rng.choice([0.05, 0.1, 0.2]))
            windows = []
            for k in template:
                column = table.columns[k]
                values = ordered[column.name]
                rank = np.searchsorted(values, column.values[row]) / n
                low = values[int(max(rank - width, 0.0) * (n - 1))]
                high = values[int(min(rank + width, 1.0) * (n - 1))]
                windows.append(
                    (Predicate(column.name, Op.GE, float(low)),
                     Predicate(column.name, Op.LE, float(high)))
                )
            for subset in _SUBSETS:
                queries.append(Query([p for j in subset for p in windows[j]]))
        rounds.append(queries)
    return rounds


def zipf_indices(pool: int, n: int, rng: np.random.Generator, exponent: float = 1.1):
    """``n`` draws over ``pool`` items with P(rank k) ~ k^-exponent; which
    item holds which rank is itself seeded."""
    weights = np.arange(1, pool + 1, dtype=np.float64) ** -exponent
    ranks = rng.choice(pool, size=n, p=weights / weights.sum())
    return rng.permutation(pool)[ranks]


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------


@dataclass
class Load:
    """What one measured window produced."""

    latencies_ms: list[float] = field(default_factory=list)
    answers: dict[int, object] = field(default_factory=dict)  # stream index -> answer
    estimates: int = 0
    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    exhausted: bool = False  # the stream ran out before the deadline

    def record(self, index: int, seconds: float, answer, estimates: int = 1) -> None:
        self.latencies_ms.append(seconds * 1e3)
        self.answers[index] = answer
        self.estimates += estimates


def _report(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _answer_of(status: int, data: bytes) -> float | None:
    """The served selectivity, or None when the answer fails a check:
    HTTP 200, not degraded or shed, finite and within [0, 1]."""
    if status != 200:
        _report(f"HTTP {status}: {data[:200]!r}")
        return None
    payload = json.loads(data)
    value = payload.get("selectivity")
    if payload.get("degraded") or payload.get("source") in ("fallback", "shed"):
        _report(f"degraded answer: {payload}")
        return None
    if not isinstance(value, float) or not math.isfinite(value) or not 0.0 <= value <= 1.0:
        _report(f"selectivity out of range: {payload}")
        return None
    return value


def http_load(port, bodies, cursor, seconds, tracer=None, between=None) -> Load:
    """Closed loop over HTTP: each client thread keeps one keep-alive
    connection and sends the next pre-built body when its answer arrives.

    ``cursor`` hands out stream indices, so the clients (and a later
    window) never send the same stream entry twice. ``between(client,
    index)`` runs after each answer, outside the request's time.
    """
    load = Load()
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def client(cid: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while time.perf_counter() < deadline:
                index = next(cursor)
                if index >= len(bodies):
                    load.exhausted = True
                    break
                headers = {"Content-Type": "application/json", "X-Request-Id": str(index)}
                began = time.perf_counter()
                try:
                    with tracer.span("client.request", request=index) if tracer else nullcontext():
                        conn.request("POST", "/estimate", bodies[index], headers)
                        response = conn.getresponse()
                        data = response.read()
                    took = time.perf_counter() - began
                    answer = _answer_of(response.status, data)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    _report(f"request {index} failed: {exc!r}")
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
                    answer = None
                with lock:
                    load.attempted += 1
                    if answer is None:
                        load.failed += 1
                    else:
                        load.record(index, took, answer)
                if between is not None:
                    between(cid, index)
        except Exception:  # a dying client must still be counted
            _report(traceback.format_exc())
            with lock:
                load.attempted += 1
                load.failed += 1
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(cid,), name=f"perf-client-{cid}")
        for cid in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 120)
        if thread.is_alive():
            load.failed += 1
            _report(f"{thread.name} did not finish")
    load.elapsed_s = time.perf_counter() - start
    return load


def batch_load(estimator, rounds, cursor, seconds, tracer=None) -> Load:
    """Closed loop of planning rounds: one ``estimate_batch`` call per
    round, each query on the generator serving would derive for it."""
    load = Load()
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        index = next(cursor)
        if index >= len(rounds):
            load.exhausted = True
            break
        queries = rounds[index]
        load.attempted += len(queries)
        began = time.perf_counter()
        try:
            with tracer.span("client.round", request=index) if tracer else nullcontext():
                rngs = [ensure_rng(query_seed(MODEL, q.cache_key())) for q in queries]
                values = np.asarray(estimator.estimate_batch(queries, rngs=rngs))
        except Exception:
            _report(traceback.format_exc())
            load.failed += len(queries)
            continue
        took = time.perf_counter() - began
        bad = int((~np.isfinite(values) | (values < 0.0) | (values > 1.0)).sum())
        if bad or len(values) != len(queries):
            _report(f"round {index}: {bad} answers outside [0, 1]")
            load.failed += len(queries)
            continue
        load.record(index, took, values, estimates=len(queries))
    load.elapsed_s = time.perf_counter() - start
    return load


# ---------------------------------------------------------------------------
# Systems under test
# ---------------------------------------------------------------------------


def _worker_hwm_mb(pid: int) -> float:
    """Peak resident set of a worker process (VmHWM), in MB."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread():
    """Spawn worker processes with one BLAS thread each.

    Two workers on two cores: with the default of one BLAS thread per
    core in every process, the workers' thread pools oversubscribe the
    cores and the cluster's p90 latency moved by half from seed to seed.
    """
    saved = {name: os.environ.get(name) for name in _BLAS_THREADS}
    os.environ.update({name: "1" for name in _BLAS_THREADS})
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name)
            else:
                os.environ[name] = value


class HttpSystem:
    """A WISDM model served over HTTP by a service or a cluster."""

    def __init__(self, scale: Scale, archive: str, cluster: bool, warmup: list[bytes]):
        self.table = make_wisdm(scale.rows, seed=0)
        self.fitted = IAMEstimator(config=iam_config(scale)).fit(self.table)
        persistence.save_iam(self.fitted.model, archive)
        if cluster:
            self.service = ClusterService(ClusterConfig(workers=2, shard_policy="replicate"))
            self.service.load_model(MODEL, archive, self.table)
            with _one_blas_thread():
                self.service.start()
            self.processes = [h.process for h in self.service.pool.workers()]
        else:
            self.service = EstimationService(ServeConfig())
            self.service.load_model(MODEL, archive, self.table)
            self.processes = []
        self.server = make_server(self.service)
        self.thread = start_in_background(self.server)
        self.port = self.server.server_address[1]
        self.warmup = http_load(self.port, warmup, itertools.count(), 600)

    def cluster_extra(self) -> dict:
        """Worker-side numbers, from the cluster's merged telemetry."""
        merged = None
        for snapshot in self.service.pool.sample_telemetry():
            merged = snapshot if merged is None else merged.merge(snapshot)
        worker = merged.series.get("estimate") if merged is not None else None
        return {
            "worker_p50_ms": worker.summary()["p50_ms"] if worker else 0.0,
            "shed": self.service.telemetry.counter("cluster.shed"),
            "retries": self.service.telemetry.counter("cluster.retries"),
            "segment_bytes": self.service.models()[0]["segment"]["nbytes"],
        }

    def peak_rss_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return own + sum(_worker_hwm_mb(p.pid) for p in self.processes)

    def reference(self, query: Query) -> float:
        return self.service.estimate_sequential(MODEL, query)

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(30)
        self.service.close()


class BatchSystem:
    """A HIGGS model loaded from its archive and called directly."""

    def __init__(self, scale: Scale, archive: str, warmup: list[Query]):
        self.table = make_higgs(scale.rows, seed=0)
        self.fitted = IAMEstimator(config=iam_config(scale)).fit(self.table)
        persistence.save_iam(self.fitted.model, archive)
        # What the service does on load_model, minus the service.
        core = persistence.load_iam(archive, self.table)
        self.estimator = IAMEstimator(config=core.config)
        self.estimator.model = core
        self.estimator._table = self.table
        self.processes = []
        self.warmup = batch_load(self.estimator, [warmup], itertools.count(), 600)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def reference(self, query: Query) -> float:
        rng = ensure_rng(query_seed(MODEL, query.cache_key()))
        return float(self.estimator.estimate_batch([query], rngs=[rng])[0])

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    stream: list  # request bodies, or rounds of queries
    queries: list  # the query (or round) behind each stream entry
    warmup: list
    accuracy: list[Query]


def build_inputs(workload: str, seed: int, seconds: float, scale: Scale) -> Inputs:
    """Every input of a run, made before any timing starts."""
    if workload == "optimizer-batch":
        table = make_higgs(scale.rows, seed=0)
        rounds = planning_rounds(
            table, max(int(scale.rounds_per_s * seconds), 4), _rng(seed, "rounds")
        )
        warmup = planning_rounds(table, 1, _rng(seed, "warmup"))[0][: scale.warmup]
        accurate = planning_rounds(
            table, -(-scale.accuracy_queries // 60), _rng(ACCURACY_SEED, "rounds")
        )
        accuracy = [q for r in accurate for q in r][: scale.accuracy_queries]
        return Inputs(rounds, rounds, warmup, accuracy)
    table = make_wisdm(scale.rows, seed=0)
    n = max(int(scale.requests_per_s * seconds), 4 * scale.reload_every)
    if workload == "point-zipf-reload":
        pool = mixed_queries(table, scale.pool, _rng(seed, "pool"))
        queries = [pool[i] for i in zipf_indices(scale.pool, n, _rng(seed, "zipf"))]
    else:
        queries = mixed_queries(table, n, _rng(seed, "stream"))
    warmup = [body_of(q) for q in mixed_queries(table, scale.warmup, _rng(seed, "warmup"))]
    accuracy = mixed_queries(table, scale.accuracy_queries, _rng(ACCURACY_SEED, "stream"))
    return Inputs([body_of(q) for q in queries], queries, warmup, accuracy)


def _setup(workload: str, scale: Scale, archive: str, inputs: Inputs):
    if workload == "optimizer-batch":
        return BatchSystem(scale, archive, inputs.warmup)
    return HttpSystem(scale, archive, workload == "cluster-unique", inputs.warmup)


def _measure(workload, system, inputs, scale, cursor, seconds, tracer) -> Load:
    if workload == "optimizer-batch":
        return batch_load(system.estimator, inputs.stream, cursor, seconds, tracer)
    between = None
    if workload == "point-zipf-reload":
        last_mark = None

        def between(cid, index):
            # Client 0 forces a reload each time the stream passes a
            # multiple of reload_every.
            nonlocal last_mark
            if cid != 0:
                return
            mark = index // scale.reload_every
            if last_mark is not None and mark > last_mark:
                system.service.reload(MODEL, force=True)
            last_mark = mark

    return http_load(system.port, inputs.stream, cursor, seconds, tracer, between)


def _bitwise_failures(workload, system, inputs, load: Load) -> int:
    """Answers that differ from the reference path, bit for bit."""
    failures = 0
    if workload == "optimizer-batch":
        for index, values in load.answers.items():
            if index % CHECK_EVERY_ROUND:
                continue
            for query, value in zip(inputs.queries[index], values):
                if system.reference(query) != value:
                    _report(f"round {index}: {query} differs from the per-query loop")
                    failures += 1
        return failures
    for index, value in load.answers.items():
        if index % CHECK_EVERY_REQUEST == 0 and system.reference(inputs.queries[index]) != value:
            _report(f"request {index}: {inputs.queries[index]} differs from estimate_sequential")
            failures += 1
    return failures


def _qerrors(system, queries: list[Query]) -> np.ndarray:
    """q-errors of the served model on ``queries``, through the reference
    path (bitwise what the service answers, which the checks verify)."""
    estimates = np.array([system.reference(q) for q in queries])
    actual = np.array([true_selectivity(system.table, q) for q in queries])
    return q_errors(actual, estimates, system.table.num_rows)


def run(workload: str, seed: int, seconds: float, trace: bool, scale: Scale, work_dir: str) -> dict:
    """One benchmark run; returns the result object ``run.py`` prints."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    inputs = build_inputs(workload, seed, seconds, scale)
    tracer = Tracer() if trace else None
    failed = attempted = 0
    processes = []
    os.makedirs(work_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir, prefix="run-") as tmp:
        archive = os.path.join(tmp, "model.npz")
        setup_times, system = [], None
        if tracer is not None:
            tracer.install()
        try:
            for _ in range(1 if trace else scale.setups):
                if system is not None:
                    system.close()
                began = time.perf_counter()
                system = _setup(workload, scale, archive, inputs)
                setup_times.append(time.perf_counter() - began)
                processes += system.processes
                attempted += system.warmup.attempted
                failed += system.warmup.failed
        finally:
            if tracer is not None:
                tracer.uninstall()
        try:
            cursor = itertools.count()
            if tracer is None:
                load = _measure(workload, system, inputs, scale, cursor, seconds, None)
                loads = [load]
            else:
                untraced = _measure(workload, system, inputs, scale, cursor, seconds / 2, None)
                tracer.install()
                tracer.begin_load()
                try:
                    load = _measure(workload, system, inputs, scale, cursor, seconds / 2, tracer)
                finally:
                    tracer.uninstall()
                loads = [untraced, load]
            for part in loads:
                attempted += part.attempted
                failed += part.failed + _bitwise_failures(workload, system, inputs, part)
                if part.exhausted:
                    _report("the pre-built stream ran out before the window ended")
                    failed += 1
            peak_rss_mb = system.peak_rss_mb()
            cluster = system.cluster_extra() if workload == "cluster-unique" else {}
            errors = None if trace else _qerrors(system, inputs.accuracy)
        finally:
            system.close()
    for process in processes:
        process.join(10)
        if process.is_alive():
            _report(f"worker {process.pid} still alive after close")
            failed += 1
    leaked = [n for n in shm.leaked_segments() if f"-{os.getpid():x}-" in n]
    if leaked:
        _report(f"leaked shared-memory segments: {leaked}")
        failed += len(leaked)
    # Publishing a plan segment started multiprocessing's resource tracker
    # process; stop it and wait for it, so the run leaves no process behind.
    resource_tracker._resource_tracker._stop()

    if tracer is None:
        latencies = load.latencies_ms
        metrics = {
            "setup_s": float(np.median(setup_times)),
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p90_ms": percentile(latencies, 90),
            "estimates_per_s": load.estimates / load.elapsed_s,
            "qerror_p50": float(np.quantile(errors, 0.50)),
            "qerror_p95": float(np.quantile(errors, 0.95)),
            "qerror_p99": float(np.quantile(errors, 0.99)),
            "peak_rss_mb": peak_rss_mb,
            "model_bytes": system.fitted.size_bytes(),
        }
        units = END_TO_END
    else:
        metrics = layer_metrics(
            tracer,
            {
                "untraced_p50_ms": percentile(untraced.latencies_ms, 50),
                "untraced_p99_ms": percentile(untraced.latencies_ms, 99),
                "traced_p50_ms": percentile(load.latencies_ms, 50),
                "plan_bytes": system.fitted.runtime_plan().nbytes(),
                "cluster": cluster,
            },
        )
        tracer.write(os.path.join(work_dir, f"trace-{workload}.json"))
        units = PER_LAYER
        # The layers' self times must account for what the client saw.
        root = "client.round" if workload == "optimizer-batch" else "client.request"
        share = coverage([s for s in tracer.spans() if s.sid >= tracer.load_start], root)
        if not 0.9 <= share <= 1.1:
            _report(f"layer self times cover {share:.3f} of the client-observed time")
            failed += 1
    return {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }

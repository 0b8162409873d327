"""Span recorder for the traced benchmark run.

Layers are timed from outside the program: :meth:`Tracer.install`
replaces public functions of each layer with timing wrappers, at the
attribute their callers resolve at call time, and :meth:`Tracer.uninstall`
puts the originals back. A run without ``--trace 1`` never builds a
tracer, so nothing is patched.

A span records its name, start, end, parent span and request id. Spans
live in per-thread buffers and are written out when the run ends. A
request id travels from the client in the ``X-Request-Id`` header, which
the ``ServeHandler.do_POST`` wrapper reads. The batcher thread runs
other threads' requests: each ``batcher.submit`` span registers its
query object, and the ``batcher.execute`` span that carries the query
links back to that submit span, which counts it as a (cross-thread)
child. A span's self time is its duration minus the part of its
interval that its children cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

# Spans the benchmark's own clients open around one request or round.
CLIENT_SPANS = ("client.request", "client.round")


@dataclass
class Span:
    sid: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None  # enclosing span on the same thread
    request: int | None
    links: tuple[int, ...] = ()  # submit spans this span ran work for

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


class Tracer:
    """Thread-local span buffers plus counters, fed by patched layers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[list[Span]] = []
        self._ids = itertools.count(1)
        self._waiting: dict[int, int] = {}  # id(query) -> submit span id
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, int] = {}
        self.load_start = 0  # first span id of the measured load

    def begin_load(self) -> None:
        """Start the measured load: serving layers report only spans and
        counters from here on (set-up layers keep everything)."""
        with self._lock:
            self.counters.clear()
        self.load_start = next(self._ids)

    # -- recording -----------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "buffer"):
            local.buffer = []
            local.stack = []
            local.request = None
            with self._lock:
                self._buffers.append(local.buffer)
        return local

    @contextmanager
    def span(self, name: str, request: int | None = None, links: tuple[int, ...] = ()):
        """Record one span around the ``with`` body; yields its id."""
        local = self._state()
        sid = next(self._ids)
        parent = local.stack[-1] if local.stack else None
        if request is None:
            request = local.request
        local.stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield sid
        finally:
            end = time.perf_counter_ns()
            local.stack.pop()
            local.buffer.append(
                Span(sid, name, start, end, parent, request, links)
            )

    @contextmanager
    def request(self, request_id: int | None):
        """Tag every span this thread opens in the body with ``request_id``."""
        local = self._state()
        previous, local.request = local.request, request_id
        try:
            yield
        finally:
            local.request = previous

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wait_for(self, key: int, sid: int) -> None:
        """Register that span ``sid`` waits on the object with id ``key``."""
        with self._lock:
            self._waiting[key] = sid

    def waiters(self, keys) -> tuple[int, ...]:
        """The span ids registered for ``keys`` (each claimed once)."""
        with self._lock:
            found = (self._waiting.pop(key, None) for key in keys)
            return tuple(sid for sid in found if sid is not None)

    def spans(self) -> list[Span]:
        with self._lock:
            buffers = list(self._buffers)
        return sorted((s for buffer in buffers for s in list(buffer)), key=lambda s: s.sid)

    # -- patching ------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` (a class or module attribute) until
        :meth:`uninstall`."""
        self._patches.append((owner, attr, _attribute(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Time ``owner.attr`` as span ``name``.

        ``before(args)`` runs before the call and its result is handed
        to ``after(state, args, result)`` once the call returns.
        """
        original = _attribute(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            with tracer.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(state, args, result)
            return result

        traced.__wrapped__ = original
        self.patch(owner, attr, traced)

    def install(self) -> None:
        """Patch every layer boundary the benchmark reports on."""
        if self._patches:
            return
        _install_layers(self)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "load_start": self.load_start,
                    "counters": self.counters,
                    "spans": [asdict(s) for s in self.spans()],
                },
                handle,
            )


def _attribute(owner, attr: str):
    """The attribute as stored: a class's own function, not a bound one."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _install_layers(tracer: Tracer) -> None:
    import repro.ar.progressive as progressive
    import repro.core.inference as inference
    import repro.core.persistence as persistence
    import repro.serve.http as http
    from repro.core.model import IAM
    from repro.nn.optim import Adam
    from repro.reducers.gmm_reducer import GMMReducer
    from repro.runtime.gmm import RangeMassCache
    from repro.runtime.plan import MADEPlan, PrefixCache
    from repro.runtime.train import TrainStepExecutor
    from repro.serve.batcher import MicroBatcher
    from repro.serve.cache import QueryCache
    from repro.serve.cluster.pool import ClusterService
    from repro.serve.service import EstimationService

    # serve.http: the handler reads the request id the client sent.
    do_post = _attribute(http.ServeHandler, "do_POST")

    def traced_do_post(handler):
        raw = handler.headers.get("X-Request-Id")
        with tracer.request(int(raw) if raw is not None else None):
            with tracer.span("http.handle"):
                do_post(handler)

    tracer.patch(http.ServeHandler, "do_POST", traced_do_post)
    tracer.wrap(http, "parse_estimate_request", "http.parse")

    # serve.service, serve.cache
    tracer.wrap(EstimationService, "estimate", "service.estimate")
    tracer.wrap(EstimationService, "reload", "service.reload")

    def note_cache(_state, _args, result):
        tracer.count("cache.hits" if result is not None else "cache.misses")

    tracer.wrap(QueryCache, "get", "cache.get", after=note_cache)

    # serve.batcher: link the batcher thread's work back to each request.
    submit = _attribute(MicroBatcher, "submit")

    def traced_submit(batcher, query, *args, **kwargs):
        with tracer.span("batcher.submit") as sid:
            tracer.wait_for(id(query), sid)
            return submit(batcher, query, *args, **kwargs)

    tracer.patch(MicroBatcher, "submit", traced_submit)
    execute = _attribute(MicroBatcher, "_execute")

    def traced_execute(batcher, batch):
        links = tracer.waiters(id(p.query) for p in batch)
        tracer.count("batcher.batches")
        tracer.count("batcher.requests", len(batch))
        with tracer.span("batcher.execute", links=links):
            execute(batcher, batch)

    tracer.patch(MicroBatcher, "_execute", traced_execute)

    # serve.cluster (worker-side layers come from the merged telemetry)
    tracer.wrap(ClusterService, "estimate", "cluster.estimate")
    tracer.wrap(ClusterService, "start", "cluster.start")

    # core.inference
    tracer.wrap(
        inference.IAMInference, "estimate_batch", "inference.estimate_batch",
        after=lambda _s, args, _r: tracer.count("inference.queries", len(args[1])),
    )
    tracer.wrap(
        inference, "build_constraints_batch", "inference.build_constraints",
        after=lambda _s, args, _r: tracer.count("inference.built", len(args[2])),
    )

    # runtime.gmm
    def mass_before(args):
        cache = args[0]
        return cache.hits, cache.misses, cache.evictions

    def mass_after(state, args, _result):
        cache = args[0]
        tracer.count("gmm.hits", cache.hits - state[0])
        tracer.count("gmm.misses", cache.misses - state[1])
        tracer.count("gmm.evictions", cache.evictions - state[2])

    tracer.wrap(
        RangeMassCache, "range_mass_batch", "gmm.range_mass",
        before=mass_before, after=mass_after,
    )

    # ar.progressive
    def note_groups(_state, args, _result):
        sampler, queries = args[0], args[1]
        tracer.count("sampler.queries", len(queries))
        tracer.count("sampler.groups", len(sampler.last_groups))
        tracer.count(
            "sampler.steps", sum(c is not None for q in queries for c in q)
        )

    tracer.wrap(
        progressive.ProgressiveSampler, "sample_weights", "sampler.sample_weights",
        after=note_groups,
    )

    # runtime.plan
    tracer.wrap(MADEPlan, "forward_slice", "plan.forward_slice")
    tracer.wrap(MADEPlan, "forward_prefix_probs", "plan.forward_prefix_probs")
    lookup = _attribute(PrefixCache, "lookup")

    def counted_lookup(cache, key):
        entry = lookup(cache, key)
        tracer.count("prefix.hits" if entry is not None else "prefix.misses")
        return entry

    tracer.patch(PrefixCache, "lookup", counted_lookup)
    tracer.wrap(progressive, "compile_made", "plan.compile")

    # core.training, runtime.train
    tracer.wrap(IAM, "fit", "train.fit")
    tracer.wrap(TrainStepExecutor, "loss_and_grads", "train.loss_grads")
    tracer.wrap(Adam, "step", "train.optimizer")
    tracer.wrap(GMMReducer, "finalise", "train.gmm_finalise")

    # core.persistence
    tracer.wrap(persistence, "save_iam", "persist.save")
    tracer.wrap(persistence, "load_iam", "persist.load")


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def _covered_ns(start: int, end: int, children: list[Span]) -> int:
    """Length of [start, end] covered by the union of the children."""
    intervals = sorted(
        (max(c.start, start), min(c.end, end)) for c in children
    )
    covered, cursor = 0, start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    """Same-thread children by parent id, plus two cross-thread edges:
    a server thread's root span sits under the client span of the same
    request, and an execute span sits under every submit it carried."""
    clients = {s.request: s.sid for s in spans if s.name in CLIENT_SPANS}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
        elif s.request in clients and clients[s.request] != s.sid:
            children.setdefault(clients[s.request], []).append(s)
        for waiter in s.links:
            children.setdefault(waiter, []).append(s)
    return children


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> self time in ns (never negative)."""
    children = children_of(spans)
    return {
        s.sid: s.duration_ns - _covered_ns(s.start, s.end, children.get(s.sid, []))
        for s in spans
    }


def _subtree(root: Span, children: dict[int, list[Span]]) -> list[Span]:
    out, stack = [], [root]
    while stack:
        span = stack.pop()
        out.append(span)
        stack.extend(children.get(span.sid, []))
    return out


def coverage(spans: list[Span], root_name: str) -> float:
    """Summed self time under each ``root_name`` span over its duration.

    1.0 means the layers' self times account for exactly the time the
    client observed; a shared batch counts in full for each request it
    carried, because each of them waited for all of it.
    """
    children = children_of(spans)
    selfs = self_times(spans)
    attributed = observed = 0
    for root in spans:
        if root.name != root_name:
            continue
        observed += root.duration_ns
        attributed += sum(selfs[s.sid] for s in _subtree(root, children))
    return attributed / observed if observed else 0.0


def _ms(values_ns) -> np.ndarray:
    return np.asarray(values_ns, dtype=np.float64) / 1e6


def percentile(values, q: float) -> float:
    """The ``q``-th percentile, or 0 when there are no values."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, extra: dict) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counters.

    ``extra`` carries what spans cannot see: the untraced and traced
    client latency p50 (``untraced_p50_ms``/``traced_p50_ms``), the
    untraced client p99, the served plan's bytes and the cluster's
    telemetry. A layer the workload bypasses reports 0.
    """
    spans = tracer.spans()
    counters = tracer.counters
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}  # measured load only
    everywhere: dict[str, list[Span]] = {}  # set-up and load
    for s in spans:
        everywhere.setdefault(s.name, []).append(s)
        if s.sid >= tracer.load_start:
            by_name.setdefault(s.name, []).append(s)

    def durations_ms(name, spans_by_name=by_name):
        return _ms([s.duration_ns for s in spans_by_name.get(name, [])])

    def self_ms(*names):
        return float(_ms([selfs[s.sid] for n in names for s in by_name.get(n, [])]).sum())

    queries = counters.get("inference.queries", 0)

    # serve.http: round trip minus the same request's estimate span.
    estimate_by_request = {
        s.request: s.duration_ns
        for name in ("service.estimate", "cluster.estimate")
        for s in by_name.get(name, [])
        if s.request is not None
    }
    overhead = [
        s.duration_ns - estimate_by_request[s.request]
        for s in by_name.get("client.request", [])
        if s.request in estimate_by_request
    ]
    submit_self = _ms([selfs[s.sid] for s in by_name.get("batcher.submit", [])])
    plan_spans = [
        s for n in ("plan.forward_slice", "plan.forward_prefix_probs")
        for s in by_name.get(n, [])
    ]
    plan_ids = {s.sid for s in plan_spans}
    top_level_forwards = sum(1 for s in plan_spans if s.parent not in plan_ids)
    fit = durations_ms("train.fit", everywhere) / 1e3
    steps = len(everywhere.get("train.loss_grads", []))
    cluster = extra.get("cluster", {})

    return {
        "http.overhead_ms_p50": percentile(_ms(overhead), 50),
        "http.parse_us_p50": percentile(durations_ms("http.parse") * 1e3, 50),
        "service.estimate_ms_p50": percentile(durations_ms("service.estimate"), 50),
        "service.estimate_ms_p99": percentile(durations_ms("service.estimate"), 99),
        "service.reload_ms_p50": percentile(durations_ms("service.reload"), 50),
        "cache.hit_rate": _ratio(
            counters.get("cache.hits", 0),
            counters.get("cache.hits", 0) + counters.get("cache.misses", 0),
        ),
        "cache.get_us_p50": percentile(durations_ms("cache.get") * 1e3, 50),
        "batcher.queue_wait_ms_p50": percentile(submit_self, 50),
        "batcher.execute_ms_p50": percentile(durations_ms("batcher.execute"), 50),
        "batcher.mean_batch_size": _ratio(
            counters.get("batcher.requests", 0), counters.get("batcher.batches", 0)
        ),
        "cluster.ipc_ms_p50": max(
            percentile(durations_ms("cluster.estimate"), 50) - cluster.get("worker_p50_ms", 0.0),
            0.0,
        ) if cluster else 0.0,
        "cluster.worker_estimate_ms_p50": cluster.get("worker_p50_ms", 0.0),
        "cluster.latency_p99_ms": extra.get("untraced_p99_ms", 0.0) if cluster else 0.0,
        "cluster.shed": cluster.get("shed", 0),
        "cluster.retries": cluster.get("retries", 0),
        "cluster.start_s": percentile(durations_ms("cluster.start", everywhere) / 1e3, 50),
        "cluster.segment_bytes": cluster.get("segment_bytes", 0),
        "inference.estimate_batch_ms_p50": percentile(
            durations_ms("inference.estimate_batch"), 50
        ),
        "inference.constraints_ms_per_query": _ratio(
            self_ms("inference.build_constraints"), queries
        ),
        "inference.constraint_build_frac": _ratio(
            counters.get("inference.built", 0), queries
        ),
        "gmm.range_mass_ms_per_query": _ratio(self_ms("gmm.range_mass"), queries),
        "gmm.mass_hit_rate": _ratio(
            counters.get("gmm.hits", 0),
            counters.get("gmm.hits", 0) + counters.get("gmm.misses", 0),
        ),
        "gmm.mass_evictions": counters.get("gmm.evictions", 0),
        "sampler.self_ms_per_query": _ratio(
            self_ms("sampler.sample_weights"), counters.get("sampler.queries", 0)
        ),
        "sampler.mean_group_size": _ratio(
            counters.get("sampler.queries", 0), counters.get("sampler.groups", 0)
        ),
        "sampler.ar_steps_per_query": _ratio(
            counters.get("sampler.steps", 0), counters.get("sampler.queries", 0)
        ),
        "plan.forward_ms_per_query": _ratio(
            self_ms("plan.forward_slice", "plan.forward_prefix_probs"),
            counters.get("sampler.queries", 0),
        ),
        "plan.forward_calls_per_query": _ratio(
            top_level_forwards, counters.get("sampler.queries", 0)
        ),
        "plan.prefix_hit_rate": _ratio(
            counters.get("prefix.hits", 0),
            counters.get("prefix.hits", 0) + counters.get("prefix.misses", 0),
        ),
        "plan.bytes": extra.get("plan_bytes", 0),
        "plan.compile_ms": percentile(durations_ms("plan.compile", everywhere), 50),
        "train.fit_s": percentile(fit, 50),
        "train.steps_per_s": _ratio(steps, float(fit.sum())),
        "train.loss_grads_ms_p50": percentile(durations_ms("train.loss_grads", everywhere), 50),
        "train.optimizer_ms_p50": percentile(durations_ms("train.optimizer", everywhere), 50),
        "train.gmm_finalise_s": _ratio(
            float(durations_ms("train.gmm_finalise", everywhere).sum()) / 1e3, len(fit)
        ),
        "persist.save_ms": percentile(durations_ms("persist.save", everywhere), 50),
        "persist.load_ms": percentile(durations_ms("persist.load", everywhere), 50),
        "trace.overhead_frac": _ratio(extra["traced_p50_ms"], extra["untraced_p50_ms"]) - 1.0,
    }

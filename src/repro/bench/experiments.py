"""Experiment drivers: one function per paper table/figure.

Fitted estimators, datasets, and workloads are cached per process so the
benchmark modules (one per table/figure) can share them; the cache key is
the active :class:`~repro.bench.config.BenchScale`.

Workloads mix the paper's uniform random queries with tuple-anchored
low-selectivity queries (30%) so the tail quantiles the paper focuses on
are populated at laptop scale (documented in EXPERIMENTS.md).
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np

from repro.bench.config import BenchScale, bench_scale
from repro.core.config import IAMConfig
from repro.data.stats import ncie, table_skewness
from repro.data.table import Table
from repro.datasets import load_dataset
from repro.datasets.imdb import make_imdb
from repro.estimators import build_estimator
from repro.estimators.base import Estimator
from repro.estimators.registry import QUERY_DRIVEN
from repro.joins import JoinAREstimator, JoinWorkload, MSCNJoin, ModelQEJoin, PostgresJoin
from repro.metrics import ErrorSummary, q_errors, summarize
from repro.query.generator import QueryGenerator
from repro.query.workload import Workload
from repro.utils.rng import ensure_rng
from repro.utils.timer import Timer

SINGLE_TABLE_DATASETS = ("wisdm", "twi", "higgs")

# Order matches the paper's accuracy tables.
ACCURACY_ESTIMATORS = (
    "sampling",
    "postgres",
    "mhist",
    "bayesnet",
    "kde",
    "deepdb",
    "mscn",
    "quicksel",
    "naru",
    "uae",
    "uae-q",
    "iam",
)


# ----------------------------------------------------------------------
# Cached data and models
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def get_table(dataset: str) -> Table:
    scale = bench_scale()
    return load_dataset(dataset, n_rows=scale.rows, seed=0)


def _mixed_queries(table: Table, n: int, seed: int) -> list:
    """70% paper-style uniform queries + 30% tuple-anchored tail queries."""
    generator = QueryGenerator(table, seed=seed)
    rng = ensure_rng(seed + 1)
    queries = []
    for _ in range(n):
        if rng.random() < 0.3:
            hint = float(rng.choice([0.005, 0.01, 0.03]))
            queries.append(generator.generate_centered(selectivity_hint=hint))
        else:
            queries.append(generator.generate())
    return queries


@functools.lru_cache(maxsize=None)
def get_workloads(dataset: str) -> tuple[Workload, Workload]:
    """(train, test) labelled workloads for one dataset."""
    scale = bench_scale()
    table = get_table(dataset)
    train = Workload.from_queries(table, _mixed_queries(table, scale.n_train_queries, 100))
    test = Workload.from_queries(table, _mixed_queries(table, scale.n_test_queries, 200))
    return train, test


def estimator_kwargs(name: str, scale: BenchScale) -> dict:
    """Per-estimator knobs at the active scale."""
    ar_common = dict(
        epochs=scale.ar_epochs,
        hidden_sizes=scale.ar_hidden,
        n_progressive_samples=scale.progressive_samples,
        learning_rate=1e-2,  # compensates the few SGD steps at bench scale
        seed=0,
    )
    table = {
        "sampling": dict(fraction=0.01, seed=0),
        "postgres": dict(),
        "mhist": dict(n_buckets=400, seed=0),
        "bayesnet": dict(max_bins=64, seed=0),
        "kde": dict(n_kernels=1500, seed=0),
        "quicksel": dict(max_buckets=300, seed=0),
        "mscn": dict(epochs=40, hidden=128, n_bitmap_rows=500, seed=0),
        "deepdb": dict(min_rows=400, seed=0),
        "naru": dict(factorize_threshold=1000, **ar_common),
        "uae": dict(factorize_threshold=1000, **ar_common),
        "uae-q": dict(
            factorize_threshold=1000,
            **{**ar_common, "epochs": max(scale.ar_epochs, 20)},
        ),
        "iam": dict(
            n_components=scale.n_components,
            samples_per_component=scale.gmm_mc_samples,
            # Theorem 5.1's exact per-component fractions; the paper's
            # Monte-Carlo variant is covered by bench_ablations (see
            # EXPERIMENTS.md for why laptop-scale GMMs need this).
            interval_kind="empirical",
            **ar_common,
        ),
    }
    return table[name]


@functools.lru_cache(maxsize=None)
def get_estimator(name: str, dataset: str) -> tuple[Estimator, float]:
    """Fitted estimator + fit seconds (cached per process)."""
    scale = bench_scale()
    table = get_table(dataset)
    train, _ = get_workloads(dataset)
    estimator = build_estimator(name, **estimator_kwargs(name, scale))
    with Timer() as timer:
        estimator.fit(table, workload=train if name in QUERY_DRIVEN else None)
    return estimator, timer.elapsed


# ----------------------------------------------------------------------
# Table 1: dataset statistics
# ----------------------------------------------------------------------
def dataset_statistics() -> tuple[list[str], list[list]]:
    headers = ["Dataset", "Rows", "Cols.Cat", "Cols.Con", "Joint", "NCIE", "Skewness"]
    rows = []
    for name in SINGLE_TABLE_DATASETS:
        table = get_table(name)
        cat = sum(1 for c in table if not c.is_continuous())
        con = sum(1 for c in table if c.is_continuous())
        rows.append(
            [
                name.upper(),
                table.num_rows,
                cat,
                con,
                f"{table.joint_domain_size():.1e}",
                round(ncie(table.as_matrix()), 2),
                round(table_skewness(table), 1),
            ]
        )
    return headers, rows


# ----------------------------------------------------------------------
# Tables 2-4: single-table accuracy
# ----------------------------------------------------------------------
def accuracy_table(dataset: str, estimators=ACCURACY_ESTIMATORS):
    """(headers, rows, summaries) — q-error quantiles per estimator."""
    _, test = get_workloads(dataset)
    table = get_table(dataset)
    headers = ["Estimator", "Mean", "Median", "95th", "99th", "Max"]
    rows, summaries = [], {}
    for name in estimators:
        estimator, _ = get_estimator(name, dataset)
        estimates = estimator.estimate_many(test.queries)
        summary = summarize(test.true_selectivities, estimates, table.num_rows)
        summaries[name] = summary
        rows.append([name, *[round(v, 2) for v in summary.as_row()]])
    return headers, rows, summaries


# ----------------------------------------------------------------------
# Figure 4: single-query inference time
# ----------------------------------------------------------------------
def inference_times(dataset: str, estimators=ACCURACY_ESTIMATORS, n_queries: int = 30):
    _, test = get_workloads(dataset)
    queries = test.queries[:n_queries]
    headers = ["Estimator", "ms/query"]
    rows = []
    for name in estimators:
        estimator, _ = get_estimator(name, dataset)
        # Single-query path: estimate() per query, as in Figure 4.
        with Timer() as timer:
            for query in queries:
                estimator.estimate(query)
        rows.append([name, round(timer.elapsed_ms / len(queries), 3)])
    return headers, rows


# ----------------------------------------------------------------------
# Table 6: model sizes
# ----------------------------------------------------------------------
def model_sizes(estimators=("mscn", "deepdb", "naru", "iam")):
    headers = ["Estimator", *[d.upper() for d in SINGLE_TABLE_DATASETS]]
    rows = []
    for name in estimators:
        row = [name]
        for dataset in SINGLE_TABLE_DATASETS:
            estimator, _ = get_estimator(name, dataset)
            row.append(round(estimator.size_bytes() / 2**20, 3))
        rows.append(row)
    return headers, rows


# ----------------------------------------------------------------------
# Figure 6 / Table 8: training
# ----------------------------------------------------------------------
def training_curve(dataset: str, epochs: int | None = None):
    """Max q-error after each training epoch (Figure 6)."""
    scale = bench_scale()
    table = get_table(dataset)
    _, test = get_workloads(dataset)
    config = IAMConfig(
        epochs=epochs or scale.ar_epochs,
        learning_rate=1e-2,
        hidden_sizes=scale.ar_hidden,
        n_components=scale.n_components,
        n_progressive_samples=scale.progressive_samples,
        samples_per_component=min(scale.gmm_mc_samples, 2000),
        seed=0,
    )
    from repro.core.model import IAM

    curve = []

    def on_epoch_end(epoch: int, model: IAM) -> None:
        estimates = model.estimate_many(test.queries)
        errors = q_errors(test.true_selectivities, estimates, table.num_rows)
        curve.append((epoch, float(errors.max())))

    with Timer() as timer:
        IAM(config).fit(table, on_epoch_end=on_epoch_end)
    return curve, timer.elapsed


def training_times(dataset: str, estimators=("mscn", "deepdb", "naru", "iam")):
    """(headers, rows): fit seconds per learned estimator (Table 8)."""
    headers = ["Estimator", "Train (s)"]
    rows = []
    for name in estimators:
        _, seconds = get_estimator(name, dataset)
        rows.append([name, round(seconds, 2)])
    return headers, rows


# ----------------------------------------------------------------------
# Tables 9-11: domain-reducer alternatives
# ----------------------------------------------------------------------
def reducer_comparison(dataset: str, kinds=("gmm", "hist", "spline", "umm"),
                       component_counts=(None, 100, 1000)):
    """IAM accuracy/time with each reducer at several budgets.

    ``None`` in component_counts means the scale's default (the paper's
    30); alternatives additionally run at 100 and 1000 per Tables 9-11.
    """
    scale = bench_scale()
    table = get_table(dataset)
    _, test = get_workloads(dataset)
    headers = ["Method", "Median", "95th", "Max", "Est. time (ms)"]
    rows = []
    for kind in kinds:
        counts = [component_counts[0]] if kind == "gmm" else list(component_counts)
        for count in counts:
            k = count or scale.n_components
            config = IAMConfig(
                reducer_kind=kind,
                n_components=k,
                epochs=scale.ar_epochs,
                learning_rate=1e-2,
                hidden_sizes=scale.ar_hidden,
                n_progressive_samples=scale.progressive_samples,
                samples_per_component=min(scale.gmm_mc_samples, 2000),
                seed=0,
            )
            from repro.core.model import IAM

            model = IAM(config).fit(table)
            with Timer() as timer:
                estimates = model.estimate_many(test.queries)
            errors = q_errors(test.true_selectivities, estimates, table.num_rows)
            summary = ErrorSummary.from_errors(errors)
            rows.append(
                [
                    f"{kind.upper()} ({k})",
                    round(summary.median, 2),
                    round(summary.p95, 2),
                    round(summary.max, 1),
                    round(timer.elapsed_ms / len(test.queries), 2),
                ]
            )
    return headers, rows


# ----------------------------------------------------------------------
# Figure 7 / Table 12: number of mixture components
# ----------------------------------------------------------------------
def component_sweep(dataset: str, counts=(1, 5, 10, 20, 30, 50)):
    scale = bench_scale()
    table = get_table(dataset)
    _, test = get_workloads(dataset)
    headers = ["Components", "Median", "95th", "Max", "Model size (MB)"]
    rows = []
    for k in counts:
        config = IAMConfig(
            n_components=k,
            epochs=scale.ar_epochs,
            learning_rate=1e-2,
            hidden_sizes=scale.ar_hidden,
            n_progressive_samples=scale.progressive_samples,
            samples_per_component=min(scale.gmm_mc_samples, 2000),
            seed=0,
        )
        from repro.core.model import IAM

        model = IAM(config).fit(table)
        estimates = model.estimate_many(test.queries)
        summary = summarize(test.true_selectivities, estimates, table.num_rows)
        rows.append(
            [
                k,
                round(summary.median, 2),
                round(summary.p95, 2),
                round(summary.max, 1),
                round(model.size_bytes() / 2**20, 4),
            ]
        )
    return headers, rows


# ----------------------------------------------------------------------
# IMDB joins: Table 5 / Table 7 / Figure 5
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def get_imdb():
    scale = bench_scale()
    h = scale.imdb_titles
    return make_imdb(h, 3 * h, 4 * h, 2 * h, seed=0)


@functools.lru_cache(maxsize=None)
def get_join_workloads() -> tuple[JoinWorkload, JoinWorkload]:
    scale = bench_scale()
    schema = get_imdb()
    total = JoinWorkload.generate(
        schema, scale.n_train_queries // 2 + scale.n_join_queries, seed=7
    )
    return total.split(scale.n_train_queries // 2)


@functools.lru_cache(maxsize=None)
def get_join_estimator(name: str):
    scale = bench_scale()
    schema = get_imdb()
    train, _ = get_join_workloads()
    ar_common = dict(
        m_samples=scale.join_samples,
        epochs=scale.ar_epochs,
        hidden_sizes=scale.ar_hidden,
        n_progressive_samples=scale.progressive_samples,
        learning_rate=1e-2,
        seed=0,
    )
    with Timer() as timer:
        if name == "postgres":
            estimator = PostgresJoin().fit(schema)
        elif name == "mscn":
            estimator = MSCNJoin(epochs=40, n_bitmap_rows=500, seed=0).fit(schema, train)
        elif name == "modelqe":
            estimator = ModelQEJoin(seed=0).fit(schema, train)
        elif name == "naru":
            estimator = JoinAREstimator(
                kind="naru", factorize_threshold=1000, **ar_common
            ).fit(schema)
        elif name == "iam":
            estimator = JoinAREstimator(
                kind="iam",
                n_components=scale.n_components,
                samples_per_component=min(scale.gmm_mc_samples, 2000),
                interval_kind="empirical",
                **ar_common,
            ).fit(schema)
        else:
            raise ValueError(f"unknown join estimator {name!r}")
    return estimator, timer.elapsed


JOIN_ESTIMATORS = ("postgres", "mscn", "modelqe", "naru", "iam")


def join_accuracy_table(estimators=JOIN_ESTIMATORS):
    _, test = get_join_workloads()
    headers = ["Estimator", "Mean", "Median", "95th", "99th", "Max"]
    rows = []
    for name in estimators:
        estimator, _ = get_join_estimator(name)
        cards = estimator.estimate_cardinalities(test.queries)
        errors = q_errors(np.maximum(test.true_cardinalities, 1.0), np.maximum(cards, 1.0))
        summary = ErrorSummary.from_errors(errors)
        rows.append([name, *[round(v, 2) for v in summary.as_row()]])
    return headers, rows


def batch_inference_table(batch_sizes=(1, 16, 64)):
    """Table 7: ms/query at several batch sizes for naru and iam joins."""
    _, test = get_join_workloads()
    queries = test.queries[: min(64, len(test.queries))]
    headers = ["Estimator", *[f"batch={b}" for b in batch_sizes]]
    rows = []
    for name in ("modelqe", "mscn", "naru", "iam"):
        estimator, _ = get_join_estimator(name)
        row = [name]
        for batch in batch_sizes:
            with Timer() as timer:
                if name in ("mscn", "modelqe"):
                    estimator.estimate_cardinalities(queries)
                else:
                    estimator.estimate_cardinalities(queries, batch_size=batch)
            row.append(round(timer.elapsed_ms / len(queries), 2))
        rows.append(row)
    return headers, rows


def end_to_end_table(estimators=JOIN_ESTIMATORS, n_queries: int = 40):
    from repro.optimizer import run_end_to_end

    schema = get_imdb()
    _, test = get_join_workloads()
    queries = test.queries[:n_queries]
    oracles = {}
    for name in estimators:
        estimator, _ = get_join_estimator(name)
        oracles[name] = estimator.estimate_cardinality
    # An adversarial reference: inverted cardinalities force the worst
    # plan wherever plans differ, bounding the mechanism's dynamic range.
    oracles["pessimal"] = lambda jq: 1.0 / max(schema.true_cardinality(jq), 1)
    results = run_end_to_end(schema, queries, oracles)
    headers = ["Estimator", "Mean ms", "Total ms", "Intermediate rows", "Optimal-plan rate"]
    rows = [
        [r.name, round(r.mean_ms, 3), round(r.total_ms, 1),
         r.total_intermediate_rows, round(r.optimal_plan_rate, 2)]
        for r in results
    ]
    return headers, rows


# ----------------------------------------------------------------------
# Technical-report experiments: data / query distribution sweeps
# ----------------------------------------------------------------------
def data_distribution_sweep(skew_levels=((0.5, 0.0), (1.0, 0.001), (1.5, 0.005))):
    """IAM robustness as dataset skewness grows (HIGGS variants).

    ``skew_levels``: (sigma_scale, tail_fraction) pairs, mild -> extreme.
    """
    from repro.core.model import IAM
    from repro.data.stats import table_skewness
    from repro.datasets.higgs import make_higgs

    scale = bench_scale()
    headers = ["Skewness", "Median", "95th", "Max"]
    rows = []
    for sigma_scale, tail_fraction in skew_levels:
        table = make_higgs(
            scale.rows, seed=0, sigma_scale=sigma_scale, tail_fraction=tail_fraction
        )
        workload = Workload.from_queries(table, _mixed_queries(table, scale.n_test_queries, 300))
        config = IAMConfig(
            n_components=scale.n_components,
            epochs=scale.ar_epochs,
            learning_rate=1e-2,
            hidden_sizes=scale.ar_hidden,
            n_progressive_samples=scale.progressive_samples,
            interval_kind="empirical",
            seed=0,
        )
        model = IAM(config).fit(table)
        estimates = model.estimate_many(workload.queries)
        summary = summarize(workload.true_selectivities, estimates, table.num_rows)
        rows.append(
            [
                round(table_skewness(table), 1),
                round(summary.median, 2),
                round(summary.p95, 2),
                round(summary.max, 1),
            ]
        )
    return headers, rows


def query_distribution_sweep(dataset: str = "higgs", predicate_counts=(1, 3, 5, 7)):
    """IAM accuracy as queries reference more columns."""
    scale = bench_scale()
    table = get_table(dataset)
    estimator, _ = get_estimator("iam", dataset)
    headers = ["Predicates", "Median", "95th", "Max"]
    rows = []
    for count in predicate_counts:
        count = min(count, table.num_columns)
        workload = Workload.generate(
            table,
            scale.n_test_queries,
            seed=400 + count,
            min_predicates=count,
            max_predicates=count,
        )
        estimates = estimator.estimate_many(workload.queries)
        summary = summarize(workload.true_selectivities, estimates, table.num_rows)
        rows.append(
            [count, round(summary.median, 2), round(summary.p95, 2), round(summary.max, 1)]
        )
    return headers, rows


# ----------------------------------------------------------------------
# Serving: batched-vs-sequential throughput and cache hit rate
# ----------------------------------------------------------------------
def serve_throughput(
    dataset: str = "twi",
    n_queries: int | None = None,
    n_threads: int = 8,
    max_batch_size: int = 16,
    max_wait_ms: float = 5.0,
):
    """Throughput of ``repro.serve`` vs one-at-a-time ``estimate()``.

    Three modes over the same fitted IAM and workload: sequential
    single-query calls, the service with a cold cache (micro-batched
    across ``n_threads`` clients), and a repeat pass where the cache
    answers. Returns (headers, rows, summary) with the summary carrying
    raw cache/batcher stats for assertions.
    """
    from repro.serve import EstimationService, ServeConfig

    _, test = get_workloads(dataset)
    queries = test.queries[: n_queries or len(test.queries)]
    estimator, _ = get_estimator("iam", dataset)

    headers = ["Mode", "Queries", "Total s", "Queries/s", "Cache hit rate"]
    rows = []

    with Timer() as timer:
        for query in queries:
            estimator.estimate(query)
    rows.append(
        [
            "sequential estimate()",
            len(queries),
            round(timer.elapsed, 3),
            round(len(queries) / max(timer.elapsed, 1e-9), 1),
            "-",
        ]
    )

    service = EstimationService(
        ServeConfig(
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            fallback_estimator=None,
        )
    )
    service.register(dataset, estimator)
    try:
        def run_pass(label: str) -> None:
            def client(chunk) -> None:
                for query in chunk:
                    service.estimate(dataset, query)

            before = service.cache.stats()
            with Timer() as pass_timer:
                threads = [
                    threading.Thread(target=client, args=(queries[i::n_threads],))
                    for i in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            after = service.cache.stats()
            pass_requests = (after.hits + after.misses) - (before.hits + before.misses)
            pass_hits = after.hits - before.hits
            rows.append(
                [
                    label,
                    len(queries),
                    round(pass_timer.elapsed, 3),
                    round(len(queries) / max(pass_timer.elapsed, 1e-9), 1),
                    round(pass_hits / max(pass_requests, 1), 2),
                ]
            )

        run_pass(f"served cold ({n_threads} threads)")
        run_pass(f"served warm ({n_threads} threads)")
        summary = {
            "cache": service.cache.stats(),
            "batcher": service._require_model(dataset).batcher.stats(),
            "telemetry": service.telemetry.snapshot(),
        }
    finally:
        service.close()
    return headers, rows, summary


# ----------------------------------------------------------------------
# Runtime: compiled-plan inference vs the Module path
# ----------------------------------------------------------------------
def inference_runtime(dataset: str = "twi", n_queries: int | None = None, repeats: int = 5):
    """Single-query latency of the compiled runtime vs the nn/autodiff path.

    Both paths answer every query through identically-seeded progressive
    samplers, so their selectivities must agree *bitwise* — the driver
    asserts it and reports the flag. Latency is best-of-``repeats`` per
    query after a warm-up pass (the usual defence against scheduler
    noise), and the headline ``speedup_p50`` is the median of per-query
    module/plan ratios — pairing each query with itself keeps a noisy
    outlier query from moving the aggregate. The summary dict feeds
    ``BENCH_inference.json``.
    """
    from repro.ar.progressive import ProgressiveSampler
    from repro.core.inference import IAMInference

    scale = bench_scale()
    _, test = get_workloads(dataset)
    queries = test.queries[: n_queries or min(32, len(test.queries))]
    estimator, _ = get_estimator("iam", dataset)
    core = estimator.model
    cfg = core.config
    sampler_kwargs = dict(
        n_samples=cfg.n_progressive_samples,
        stratify_first=cfg.stratified_sampling,
    )

    def build(use_plan: bool) -> IAMInference:
        sampler = ProgressiveSampler(
            core.model, seed=ensure_rng(cfg.seed), use_plan=use_plan, **sampler_kwargs
        )
        return IAMInference(
            core.table, core.reducers, sampler, bias_correction=cfg.bias_correction
        )

    paths = {"module": build(False), "plan": build(True)}
    latencies, batch_ms, answers = {}, {}, {}
    for label, inference in paths.items():
        rngs_for = lambda i: [ensure_rng(1000 + i)]  # noqa: E731
        for i, query in enumerate(queries):  # warm-up: caches + workspaces
            inference.estimate_batch([query], rngs=rngs_for(i))
        per_query = np.empty((repeats, len(queries)))
        for r in range(repeats):
            got = []
            for i, query in enumerate(queries):
                rng = rngs_for(i)  # generator setup is not the path under test
                with Timer() as timer:
                    got.append(inference.estimate_batch([query], rngs=rng)[0])
                per_query[r, i] = timer.elapsed_ms
        answers[label] = np.asarray(got)
        latencies[label] = per_query.min(axis=0)
        rngs = [ensure_rng(1000 + i) for i in range(len(queries))]
        with Timer() as timer:
            batch_answers = inference.estimate_batch(queries, rngs=rngs)
        batch_ms[label] = timer.elapsed_ms / len(queries)
        assert np.array_equal(batch_answers, answers[label])  # batching is latency-only

    bitwise_equal = bool(np.array_equal(answers["module"], answers["plan"]))
    p50 = {k: float(np.percentile(v, 50)) for k, v in latencies.items()}
    p95 = {k: float(np.percentile(v, 95)) for k, v in latencies.items()}
    ratios = latencies["module"] / np.maximum(latencies["plan"], 1e-9)
    headers = ["Path", "p50 ms/query", "p95 ms/query", "batch ms/query"]
    rows = [
        [label, round(p50[label], 3), round(p95[label], 3), round(batch_ms[label], 3)]
        for label in ("module", "plan")
    ]
    summary = {
        "experiment": "inference_runtime",
        "dataset": dataset,
        "scale": scale.name,
        "n_queries": len(queries),
        "repeats": repeats,
        "p50_ms": p50,
        "p95_ms": p95,
        "batch_ms_per_query": {k: float(v) for k, v in batch_ms.items()},
        "speedup_p50": float(np.percentile(ratios, 50)),
        "speedup_batch": batch_ms["module"] / max(batch_ms["plan"], 1e-9),
        "plan_fingerprint": paths["plan"].sampler.plan.fingerprint,
        "bitwise_equal": bitwise_equal,
    }
    return headers, rows, summary


# ----------------------------------------------------------------------
# Runtime: float32 serving tier vs the float64 oracle plan
# ----------------------------------------------------------------------
def max_qerror_ratio(reference, candidate, floor: float = 1e-12) -> float:
    """Largest multiplicative divergence between two estimate vectors.

    The precision-tier tolerance contract is stated in q-error terms: for
    every query, the q-error a float32 estimate would incur against the
    float64 estimate treated as truth (and vice versa — the measure is
    symmetric). ``floor`` keeps exact zeros from producing infinities;
    both tiers floor at the same value so a shared zero scores 1.0.
    """
    ref = np.maximum(np.asarray(reference, dtype=np.float64), floor)
    cand = np.maximum(np.asarray(candidate, dtype=np.float64), floor)
    return float(np.max(np.maximum(ref / cand, cand / ref)))


def _precision_probe_queries(n_columns: int, vocab: int, n_queries: int, seed: int):
    """Synthetic range constraints for the serving-shaped latency probe.

    Each query constrains three columns with a contiguous token interval
    whose edge tokens carry fractional mass — the shape GMM-reduced
    range predicates produce. Masses are float64; each tier casts them
    to its own working dtype inside ``resolve_mass``.
    """
    from repro.ar.progressive import SlotConstraint

    rng = ensure_rng(seed)
    queries = []
    for _ in range(n_queries):
        constraints: list = [None] * n_columns
        for column in rng.choice(n_columns, size=min(3, n_columns), replace=False):
            lo = int(rng.integers(0, vocab - 1))
            hi = int(rng.integers(lo + 1, vocab + 1))
            mass = np.zeros(vocab)
            mass[lo:hi] = 1.0
            mass[lo] = rng.uniform(0.2, 1.0)
            mass[hi - 1] *= rng.uniform(0.2, 1.0)
            constraints[int(column)] = SlotConstraint(mass=mass)
        queries.append(constraints)
    return queries


def inference_precision(dataset: str = "twi", n_queries: int | None = None,
                        repeats: int = 5, probe_samples: int = 2048,
                        probe_hidden: tuple[int, ...] = (128, 128, 128),
                        probe_vocab: int = 48, probe_columns: int = 6):
    """Precision-tier gate: the float32 compiled plan vs the float64 oracle.

    Two parts, one summary:

    **Fidelity** runs on the fitted IAM at the active scale. One model
    supplies both tiers — two identically-seeded progressive samplers
    over the *same* reducers (so interval estimators, and therefore
    range masses up to rounding, are shared), one compiled at float64
    and one at float32. Per-query uniforms come from the same seeded
    float64 generators in both tiers, so the only difference between
    the paths is arithmetic width. Checks: the float64 plan still
    matches the Module path *bitwise* (the oracle contract the tier
    system is built on); the float32 tier's worst q-error ratio against
    float64 stays within the documented tolerance (gated at 1.01 by the
    CLI); a published float32 segment is roughly half the float64
    bytes, attaches with ``verify=True``, answers bitwise-identically
    to the in-process float32 plan, and leaks nothing in /dev/shm.

    **Latency** runs on a serving-shaped probe model (``probe_hidden``
    trunk, ``probe_samples`` progressive samples) instead of the fitted
    one: at the micro scale the fitted MADE is 24 wide with 64 samples,
    where fixed per-query dispatch swamps arithmetic entirely and the
    measured ratio says nothing about precision. The probe compiles the
    *same* weights at both tiers and runs identical synthetic range
    queries through the full grouped sampling loop, so the f64/f32
    ratio isolates arithmetic width at the shapes serving actually
    runs. ``speedup_p50`` is the median of per-query float64/float32
    latency ratios, best-of-``repeats`` after a warm-up pass; the probe
    tiers are *also* held to the q-error tolerance.

    The summary dict feeds ``BENCH_inference_precision.json``.
    """
    import gc

    from repro.ar.made import build_made
    from repro.ar.progressive import ProgressiveSampler
    from repro.core.inference import IAMInference
    from repro.serve.cluster.shm import attach_plan, leaked_segments, publish_plan

    scale = bench_scale()
    _, test = get_workloads(dataset)
    queries = test.queries[: n_queries or min(32, len(test.queries))]
    estimator, _ = get_estimator("iam", dataset)
    core = estimator.model
    cfg = core.config
    sampler_kwargs = dict(
        n_samples=cfg.n_progressive_samples,
        stratify_first=cfg.stratified_sampling,
    )

    def build(dtype=None, plan=None, use_plan: bool = True) -> IAMInference:
        sampler = ProgressiveSampler(
            plan if plan is not None else core.model,
            seed=ensure_rng(cfg.seed),
            use_plan=use_plan,
            dtype=dtype,
            **sampler_kwargs,
        )
        return IAMInference(
            core.table, core.reducers, sampler, bias_correction=cfg.bias_correction
        )

    paths = {
        "module": build(use_plan=False),
        "float64": build(),
        "float32": build(np.float32),
    }
    rngs_for = lambda i: [ensure_rng(1000 + i)]  # noqa: E731
    latencies, answers = {}, {}
    for label, inference in paths.items():
        for i, query in enumerate(queries):  # warm-up: caches + workspaces
            inference.estimate_batch([query], rngs=rngs_for(i))
        per_query = np.empty((repeats, len(queries)))
        for r in range(repeats):
            got = []
            for i, query in enumerate(queries):
                rng = rngs_for(i)  # generator setup is not the path under test
                with Timer() as timer:
                    got.append(inference.estimate_batch([query], rngs=rng)[0])
                per_query[r, i] = timer.elapsed_ms
        answers[label] = np.asarray(got)
        latencies[label] = per_query.min(axis=0)

    bitwise_f64 = bool(np.array_equal(answers["module"], answers["float64"]))
    qerror_ratio = max_qerror_ratio(answers["float64"], answers["float32"])
    p50 = {k: float(np.percentile(v, 50)) for k, v in latencies.items()}
    p95 = {k: float(np.percentile(v, 95)) for k, v in latencies.items()}
    plans = {label: paths[label].sampler.plan for label in ("float64", "float32")}

    # Serving-shaped latency probe: same weights, both tiers, identical
    # synthetic queries and per-query uniform streams.
    probe_made = build_made(
        [probe_vocab] * probe_columns, arch="resmade",
        hidden_sizes=probe_hidden, embed_dim=16, seed=11,
    )
    probe_queries = _precision_probe_queries(
        probe_columns, probe_vocab, len(queries), seed=55
    )
    probe_samplers = {
        "float64": ProgressiveSampler(
            probe_made, n_samples=probe_samples, seed=ensure_rng(9)
        ),
        "float32": ProgressiveSampler(
            probe_made, n_samples=probe_samples, seed=ensure_rng(9),
            dtype=np.float32,
        ),
    }
    probe_latencies, probe_answers = {}, {}
    for label, sampler in probe_samplers.items():
        for i, constraints in enumerate(probe_queries):  # warm-up
            sampler.estimate_batch([constraints], rngs=rngs_for(i))
        per_query = np.empty((repeats, len(probe_queries)))
        for r in range(repeats):
            got = []
            for i, constraints in enumerate(probe_queries):
                rng = rngs_for(i)
                with Timer() as timer:
                    got.append(
                        sampler.estimate_batch([constraints], rngs=rng)[0]
                    )
                per_query[r, i] = timer.elapsed_ms
        probe_answers[label] = np.asarray(got)
        probe_latencies[label] = per_query.min(axis=0)
    ratios = probe_latencies["float64"] / np.maximum(probe_latencies["float32"], 1e-9)
    probe_p50 = {k: float(np.percentile(v, 50)) for k, v in probe_latencies.items()}
    probe_qerror = max_qerror_ratio(
        probe_answers["float64"], probe_answers["float32"]
    )

    # Publish both tiers; the float32 segment must round-trip bitwise.
    baseline_leaks = set(leaked_segments())
    segments = {label: publish_plan(plan) for label, plan in plans.items()}
    segment_bytes = {label: seg.nbytes for label, seg in segments.items()}
    attachment = attach_plan(segments["float32"].name, verify=True)
    remote = build(plan=attachment.plan)
    remote_answers = np.asarray(
        [
            remote.estimate_batch([query], rngs=rngs_for(i))[0]
            for i, query in enumerate(queries)
        ]
    )
    roundtrip_equal = bool(np.array_equal(remote_answers, answers["float32"]))
    del remote
    gc.collect()  # drop the worker-side plan views before unmapping
    attachment_closed = attachment.close()
    for seg in segments.values():
        seg.release()
    leaks = sorted(set(leaked_segments()) - baseline_leaks)

    headers = ["Tier", "p50 ms/query", "p95 ms/query", "plan KB", "segment KB"]
    rows = [
        ["module (f64)", round(p50["module"], 3), round(p95["module"], 3), "-", "-"]
    ]
    for label in ("float64", "float32"):
        rows.append(
            [
                label,
                round(p50[label], 3),
                round(p95[label], 3),
                round(plans[label].nbytes() / 1024, 1),
                round(segment_bytes[label] / 1024, 1),
            ]
        )
    for label in ("float64", "float32"):
        rows.append(
            [
                f"probe {label}",
                round(probe_p50[label], 3),
                round(float(np.percentile(probe_latencies[label], 95)), 3),
                round(probe_samplers[label].plan.nbytes() / 1024, 1),
                "-",
            ]
        )
    summary = {
        "experiment": "inference_precision",
        "dataset": dataset,
        "scale": scale.name,
        "n_queries": len(queries),
        "repeats": repeats,
        "p50_ms": p50,
        "p95_ms": p95,
        "speedup_p50": float(np.percentile(ratios, 50)),
        "max_qerror_ratio": qerror_ratio,
        "probe": {
            "n_samples": probe_samples,
            "hidden_sizes": list(probe_hidden),
            "vocab": probe_vocab,
            "n_columns": probe_columns,
            "p50_ms": probe_p50,
            "max_qerror_ratio": probe_qerror,
            "note": (
                "speedup_p50 is measured on this serving-shaped probe: at "
                "micro scale the fitted plan is too small for arithmetic "
                "width to register over fixed dispatch overhead"
            ),
        },
        "bitwise_f64": bitwise_f64,
        "plan_dtype": {label: str(plan.dtype) for label, plan in plans.items()},
        "plan_nbytes": {label: plan.nbytes() for label, plan in plans.items()},
        "plan_fingerprint": {
            label: plan.fingerprint for label, plan in plans.items()
        },
        "segment_bytes": segment_bytes,
        "segment_ratio": segment_bytes["float32"] / max(segment_bytes["float64"], 1),
        "shm_roundtrip_equal": roundtrip_equal,
        "attachment_closed": bool(attachment_closed),
        "leaked_segments": leaks,
    }
    return headers, rows, summary


# ----------------------------------------------------------------------
# Runtime: signature-grouped batch inference vs the per-query loop
# ----------------------------------------------------------------------
def inference_batch(
    dataset: str = "twi",
    batch_sizes: tuple[int, ...] = (4, 16, 32, 64),
    repeats: int = 8,
    n_threads: int = 8,
):
    """Cross-query batching gate: grouped ``estimate_batch`` vs a loop.

    Batches are drawn from a serving-shaped pool — the test workload's
    queries bucketed by constrained-column signature, keeping the most
    common signatures — so each batch carries the cross-query overlap
    the grouped driver exploits (one stacked trunk program per group
    per AR step, docs/runtime.md). For every batch size the grouped
    call is timed against the per-query baseline
    ``estimate_batch([q], rngs=[rng])`` with identical per-query
    streams (``query_seed``, exactly what the serving layer passes), so
    the two must agree *bitwise* — the driver asserts it per repeat.
    Latency is best-of-``repeats`` after a warm-up pass that also heats
    the plan's shared prefix cache (both modes replay it equally).

    A final threaded pass pushes the batch-32 set through a live
    ``EstimationService`` from ``n_threads`` clients and checks every
    served value bitwise against ``estimate_sequential`` — the batcher
    coalesces arbitrary mixes, so this covers the thread/batch/cache
    composition. The summary dict feeds ``BENCH_inference_batch.json``.
    """
    from repro.serve import EstimationService, ServeConfig
    from repro.utils.rng import query_seed

    scale = bench_scale()
    _, test = get_workloads(dataset)
    estimator, _ = get_estimator("iam", dataset)
    plan = estimator.runtime_plan()

    by_signature: dict[tuple, list] = {}
    for query in test.queries:
        signature = tuple(sorted({column for column, _, _ in query.cache_key()}))
        by_signature.setdefault(signature, []).append(query)
    ranked = sorted(by_signature.values(), key=len, reverse=True)
    # The two dominant signatures: every batch then splits into two
    # large groups, maximising the cross-query forward sharing the
    # grouped driver exists for while still exercising multi-group
    # dispatch (the threaded pass below covers arbitrary mixes).
    pool = [query for bucket in ranked[:2] for query in bucket]

    def rngs_for(batch):
        return [
            ensure_rng(query_seed(estimator.name, query.cache_key()))
            for query in batch
        ]

    def run_loop(batch, rngs):
        return np.asarray(
            [
                estimator.estimate_batch([query], rngs=[rng])[0]
                for query, rng in zip(batch, rngs)
            ]
        )

    headers = [
        "Batch", "Groups", "Largest group",
        "Loop ms/query", "Grouped ms/query", "Speedup", "Bitwise",
    ]
    rows = []
    per_size: dict[str, dict] = {}
    all_bitwise = True
    for size in batch_sizes:
        batch = [pool[i % len(pool)] for i in range(size)]
        reference = run_loop(batch, rngs_for(batch))  # warm-up + oracle in one pass
        estimator.estimate_batch(batch, rngs=rngs_for(batch))  # warm grouped path
        groups = estimator.batch_group_sizes() or []
        loop_ms = grouped_ms = float("inf")
        bitwise = True
        for _ in range(repeats):
            rngs = rngs_for(batch)  # generator setup is not the path under test
            with Timer() as timer:
                looped = run_loop(batch, rngs)
            loop_ms = min(loop_ms, timer.elapsed_ms / size)
            rngs = rngs_for(batch)
            with Timer() as timer:
                grouped = estimator.estimate_batch(batch, rngs=rngs)
            grouped_ms = min(grouped_ms, timer.elapsed_ms / size)
            bitwise = bitwise and bool(
                np.array_equal(looped, reference)
                and np.array_equal(grouped, reference)
            )
        all_bitwise = all_bitwise and bitwise
        speedup = loop_ms / max(grouped_ms, 1e-9)
        rows.append(
            [
                size, len(groups), max(groups, default=0),
                round(loop_ms, 3), round(grouped_ms, 3),
                round(speedup, 1), bitwise,
            ]
        )
        per_size[str(size)] = {
            "loop_ms_per_query": float(loop_ms),
            "grouped_ms_per_query": float(grouped_ms),
            "speedup": float(speedup),
            "groups": len(groups),
            "largest_group": int(max(groups, default=0)),
            "bitwise_equal": bitwise,
        }

    # Thread/batch/cache mix through a live service, checked bitwise.
    batch32 = [pool[i % len(pool)] for i in range(32)]
    unique = list({query.cache_key(): query for query in batch32}.values())
    service = EstimationService(
        ServeConfig(max_batch_size=32, max_wait_ms=2.0, fallback_estimator=None)
    )
    threaded_equal = True
    try:
        service.register(dataset, estimator)
        expected = {
            query.cache_key(): service.estimate_sequential(dataset, query)
            for query in unique
        }
        mismatches = []
        lock = threading.Lock()

        def client(tid: int) -> None:
            for query in batch32[tid % len(batch32):] + batch32[: tid % len(batch32)]:
                got = service.estimate(dataset, query).selectivity
                if got != expected[query.cache_key()]:
                    with lock:
                        mismatches.append(query.cache_key())

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        threaded_equal = not mismatches
        batcher = service._require_model(dataset).batcher.stats()
        threaded_stats = {
            "bitwise_equal": threaded_equal,
            "batches": batcher.batches,
            "grouped_batches": batcher.grouped_batches,
            "groups_per_batch": round(batcher.groups_per_batch, 2),
            "mean_group_size": round(batcher.mean_group_size, 2),
            "largest_group": batcher.largest_group,
        }
    finally:
        service.close()

    summary = {
        "experiment": "inference_batch",
        "dataset": dataset,
        "scale": scale.name,
        "batch_sizes": list(batch_sizes),
        "repeats": repeats,
        "pool_signatures": min(2, len(ranked)),
        "pool_queries": len(pool),
        "per_size": per_size,
        "speedup_at_32": per_size.get("32", {}).get("speedup"),
        "bitwise_equal": bool(all_bitwise),
        "threaded": threaded_stats,
        "prefix_cache": None if plan is None else plan.prefix_cache.stats(),
        "plan_fingerprint": None if plan is None else plan.fingerprint,
    }
    return headers, rows, summary


# ----------------------------------------------------------------------
# Runtime: compiled training steps vs the eager autodiff loop
# ----------------------------------------------------------------------
def training_runtime(dataset: str = "twi", epochs: int | None = None):
    """Joint-training throughput of the cached-tape executor vs eager.

    Runs the full ``IAM.fit`` pipeline twice with identical seeds — once
    per ``train_backend`` — and compares per-epoch losses and every final
    parameter array bitwise (the same equivalence gate
    ``BENCH_inference.json`` applies to inference). Throughput is the
    steady-state steps/sec derived from the median per-step latency, so
    the one-time tape compile on the first batch of each shape does not
    skew the ratio (the compile cost is still visible in ``fit_seconds``
    and ``p95_step_ms``). Epochs are floored at 12 so the median rests on
    enough steps even at the micro scale (2 epochs = 6 steps there, half
    of them compile steps — far too few for a stable quantile). The
    summary dict feeds ``BENCH_training.json``.
    """
    from repro.core.model import IAM

    scale = bench_scale()
    table = get_table(dataset)
    results: dict[str, dict] = {}
    for backend in ("eager", "compiled"):
        config = IAMConfig(
            epochs=epochs or max(scale.ar_epochs, 12),
            learning_rate=1e-2,
            hidden_sizes=scale.ar_hidden,
            n_components=scale.n_components,
            n_progressive_samples=scale.progressive_samples,
            samples_per_component=min(scale.gmm_mc_samples, 2000),
            train_backend=backend,
            seed=0,
        )
        model = IAM(config)
        with Timer() as timer:
            model.fit(table)
        trainer = model.trainer
        steps = np.asarray(trainer.step_seconds)
        state = dict(model.model.state_dict())
        for column, module in trainer.gmm_modules.items():
            for name, array in module.state_dict().items():
                state[f"gmm{column}.{name}"] = array
        results[backend] = {
            "fit_seconds": timer.elapsed,
            "n_steps": len(steps),
            "p50_step_ms": float(np.percentile(steps, 50) * 1e3),
            "p95_step_ms": float(np.percentile(steps, 95) * 1e3),
            "steps_per_sec": 1e3 / max(float(np.percentile(steps, 50) * 1e3), 1e-9),
            "losses": list(model.epoch_losses),
            "epoch_seconds": list(trainer.epoch_seconds),
            "timing": trainer.timing_summary(),
            "state": state,
        }
        if backend == "compiled":
            executor = trainer._executor
            results[backend]["compile_count"] = executor.compile_count
            results[backend]["arena_allocations"] = executor.arena.allocations
            results[backend]["arena_mb"] = executor.arena.nbytes / 2**20

    eager, compiled = results["eager"], results["compiled"]
    losses_equal = eager["losses"] == compiled["losses"]
    params_equal = all(
        np.array_equal(eager["state"][k], compiled["state"][k]) for k in eager["state"]
    )
    bitwise_equal = bool(losses_equal and params_equal)
    speedup = compiled["steps_per_sec"] / max(eager["steps_per_sec"], 1e-9)

    headers = ["Backend", "steps/s", "p50 ms/step", "p95 ms/step", "fit (s)"]
    rows = [
        [
            label,
            round(results[label]["steps_per_sec"], 1),
            round(results[label]["p50_step_ms"], 3),
            round(results[label]["p95_step_ms"], 3),
            round(results[label]["fit_seconds"], 2),
        ]
        for label in ("eager", "compiled")
    ]
    summary = {
        "experiment": "training_runtime",
        "dataset": dataset,
        "scale": scale.name,
        "n_steps": compiled["n_steps"],
        "steps_per_sec": {k: results[k]["steps_per_sec"] for k in results},
        "p50_step_ms": {k: results[k]["p50_step_ms"] for k in results},
        "p95_step_ms": {k: results[k]["p95_step_ms"] for k in results},
        "fit_seconds": {k: results[k]["fit_seconds"] for k in results},
        "speedup_steps_per_sec": float(speedup),
        "epoch_seconds": {k: results[k]["epoch_seconds"] for k in results},
        "timing": {k: results[k]["timing"] for k in results},
        "compile_count": compiled["compile_count"],
        "arena_allocations": compiled["arena_allocations"],
        "arena_mb": compiled["arena_mb"],
        "losses_equal": bool(losses_equal),
        "params_equal": bool(params_equal),
        "bitwise_equal": bitwise_equal,
    }
    return headers, rows, summary


# ----------------------------------------------------------------------
# Ablations (DESIGN.md Section 6)
# ----------------------------------------------------------------------
def ablation_table(dataset: str, variants: dict[str, dict]):
    """Generic ablation driver: {label: IAMConfig overrides} -> q-errors."""
    scale = bench_scale()
    table = get_table(dataset)
    _, test = get_workloads(dataset)
    base = dict(
        epochs=scale.ar_epochs,
        learning_rate=1e-2,
        hidden_sizes=scale.ar_hidden,
        n_components=scale.n_components,
        n_progressive_samples=scale.progressive_samples,
        samples_per_component=min(scale.gmm_mc_samples, 2000),
        seed=0,
    )
    from repro.core.model import IAM

    headers = ["Variant", "Mean", "Median", "95th", "99th", "Max"]
    rows = []
    for label, overrides in variants.items():
        config = IAMConfig(**{**base, **overrides})
        model = IAM(config).fit(table)
        estimates = model.estimate_many(test.queries)
        summary = summarize(test.true_selectivities, estimates, table.num_rows)
        rows.append([label, *[round(v, 2) for v in summary.as_row()]])
    return headers, rows


# ----------------------------------------------------------------------
# Multi-process serving scale (repro.serve.cluster)
# ----------------------------------------------------------------------
class StalledEstimator:
    """Picklable wrapper adding a fixed per-query stall (simulated I/O).

    The benchmark container is typically low-core (CI runs on 1), where
    pure-compute throughput cannot scale with worker processes at all —
    every worker contends for the same core.  The stall models the
    external-latency component of a real serving deployment (disk/page
    cache, network hop to the optimizer) during which a worker's core is
    free, making *concurrency* scaling measurable and honest: the stall
    is identical for every worker count and is recorded in the summary.
    Batched estimates pay the stall per query, so micro-batching cannot
    shortcut it.
    """

    name = "stalled-iam"

    def __init__(self, inner, stall_ms: float):
        self._inner = inner
        self._stall_s = stall_ms / 1000.0

    @property
    def table(self):
        return self._inner.table

    def runtime_plan(self):
        return self._inner.runtime_plan()

    def estimate(self, query):
        time.sleep(self._stall_s)
        return self._inner.estimate(query)

    def estimate_batch(self, queries, rngs=None):
        time.sleep(self._stall_s * len(queries))
        return self._inner.estimate_batch(queries, rngs=rngs)


def serve_scale(
    dataset: str = "twi",
    worker_counts: tuple[int, ...] = (1, 2, 4, 8),
    stall_ms: float = 50.0,
    p99_target_ms: float = 500.0,
    duration_s: float | None = None,
    clients_per_worker: int = 4,
):
    """Closed-loop load generation against ``repro.serve.cluster``.

    For each worker count, ``clients_per_worker x workers`` client
    threads stream *distinct* queries (so worker caches never answer and
    every request really costs a stall + a progressive-sampling pass)
    and the sustained QPS, p50/p99 latency, and shed count over the
    measurement window are reported.  Alongside the sweep: a
    bitwise-equality spot-check of cluster answers against a
    single-process ``EstimationService`` on the same estimator, a
    dedicated shed probe (1 worker, queue depth 1, concurrent burst)
    exercising the admission-control/fallback path, and a /dev/shm leak
    check after every service closes.
    """
    from repro.errors import OverloadError
    from repro.serve import EstimationService, ServeConfig
    from repro.serve.cluster import ClusterConfig, ClusterService, leaked_segments

    scale = bench_scale()
    if duration_s is None:
        duration_s = 3.0 if scale.name == "micro" else 6.0
    table = get_table(dataset)
    inner, _ = get_estimator("iam", dataset)
    stalled = StalledEstimator(inner, stall_ms)
    # max_batch_size=1: micro-batching would multiply the simulated
    # stall into each batched request's latency (4 x 50ms), swamping the
    # p99 target with an artifact of the stall model.  Throughput is
    # stall-bound either way; batching itself is covered by serve_throughput.
    serve_config = ServeConfig(max_batch_size=1, max_wait_ms=0.5)

    # Single-process reference for the bitwise spot-check.
    spot_queries = [QueryGenerator(table, seed=777).generate() for _ in range(8)]
    reference_service = EstimationService(serve_config)
    reference_service.register(dataset, stalled, fallback="")
    try:
        reference = [
            reference_service.estimate(dataset, q).selectivity for q in spot_queries
        ]
    finally:
        reference_service.close()

    headers = ["Workers", "Clients", "Requests", "QPS", "p50 ms", "p99 ms",
               "p99<=target", "Shed"]
    rows = []
    results = []
    bitwise_equal = True
    baseline_leaks = leaked_segments()

    for workers in worker_counts:
        service = ClusterService(
            ClusterConfig(
                workers=workers,
                max_queue_depth=64,
                serve=serve_config,
                worker_threads=clients_per_worker,
            )
        )
        try:
            service.register(dataset, stalled, fallback="")
            service.start()

            for qi, query in enumerate(spot_queries):
                served = service.estimate(dataset, query).selectivity
                if served != reference[qi]:
                    bitwise_equal = False

            n_clients = workers * clients_per_worker
            stop_at = [0.0]  # set after the barrier releases
            warm_until = [0.0]
            samples: list[tuple[float, float]] = []  # (done_at, latency_ms)
            shed_count = [0]
            lock = threading.Lock()
            barrier = threading.Barrier(n_clients + 1)

            def client(client_id: int, service=service, workers=workers):
                generator = QueryGenerator(
                    table, seed=50_000 + workers * 1000 + client_id
                )
                barrier.wait()
                while time.perf_counter() < stop_at[0]:
                    query = generator.generate()
                    t0 = time.perf_counter()
                    try:
                        result = service.estimate(dataset, query)
                    except OverloadError:
                        with lock:
                            shed_count[0] += 1
                        continue
                    done = time.perf_counter()
                    if result.source == "shed":
                        with lock:
                            shed_count[0] += 1
                        continue
                    if done >= warm_until[0]:
                        with lock:
                            samples.append((done, (done - t0) * 1000.0))

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            barrier.wait()
            started = time.perf_counter()
            warm_until[0] = started + 0.5
            stop_at[0] = started + 0.5 + duration_s
            for t in threads:
                t.join()
        finally:
            service.close()

        latencies = sorted(ms for _, ms in samples)
        window = max(s for s, _ in samples) - warm_until[0] if samples else 1.0
        qps = len(samples) / max(window, 1e-9)
        p50 = latencies[len(latencies) // 2] if latencies else 0.0
        p99 = latencies[min(int(len(latencies) * 0.99), len(latencies) - 1)] if latencies else 0.0
        met = bool(p99 <= p99_target_ms)
        results.append(
            {
                "workers": workers,
                "clients": n_clients,
                "requests": len(samples),
                "qps": round(qps, 1),
                "p50_ms": round(p50, 2),
                "p99_ms": round(p99, 2),
                "met_p99_target": met,
                "shed": shed_count[0],
            }
        )
        rows.append(
            [workers, n_clients, len(samples), round(qps, 1), round(p50, 2),
             round(p99, 2), met, shed_count[0]]
        )

    # Shed probe: tiny queue + concurrent burst MUST exercise the
    # admission-control path and answer degraded via the fallback.
    shed_service = ClusterService(
        ClusterConfig(workers=1, max_queue_depth=1, serve=serve_config,
                      worker_threads=1)
    )
    shed_requests = 0
    try:
        shed_service.register(dataset, StalledEstimator(inner, 200.0),
                              fallback="sampling")
        shed_service.start()
        probe_queries = [QueryGenerator(table, seed=888).generate() for _ in range(6)]
        shed_results = []
        shed_lock = threading.Lock()
        shed_barrier = threading.Barrier(len(probe_queries))

        def probe(query):
            shed_barrier.wait()
            result = shed_service.estimate(dataset, query)
            with shed_lock:
                shed_results.append(result)

        probe_threads = [
            threading.Thread(target=probe, args=(q,)) for q in probe_queries
        ]
        for t in probe_threads:
            t.start()
        for t in probe_threads:
            t.join()
        shed_requests = sum(
            1 for r in shed_results if r.degraded and r.source == "shed"
        )
    finally:
        shed_service.close()

    leaked = [s for s in leaked_segments() if s not in baseline_leaks]
    by_workers = {r["workers"]: r for r in results}
    scaling = None
    if 1 in by_workers and 4 in by_workers and by_workers[1]["qps"] > 0:
        scaling = round(by_workers[4]["qps"] / by_workers[1]["qps"], 2)

    summary = {
        "dataset": dataset,
        "scale": scale.name,
        "stall_ms": stall_ms,
        "stall_note": (
            "per-query simulated I/O stall; identical at every worker count "
            "so QPS ratios measure process-level concurrency, not compute "
            "(benchmark hosts may have a single core)"
        ),
        "duration_s": duration_s,
        "clients_per_worker": clients_per_worker,
        "p99_target_ms": p99_target_ms,
        "workers": results,
        "scaling_1_to_4": scaling,
        "bitwise_equal": bool(bitwise_equal),
        "shed_requests": int(shed_requests),
        "leaked_segments": leaked,
    }
    return headers, rows, summary

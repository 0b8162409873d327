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
# Paper table of each dataset's reducer comparison; names the recorded
# ``benchmarks/results/<id>_reducers_<dataset>.txt``.
TABLE_IDS = {"wisdm": "table9", "twi": "table10", "higgs": "table11"}


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

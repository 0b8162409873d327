"""Smoke tests of every benchmark driver at the micro scale.

These guarantee `pytest benchmarks/` cannot break silently: each driver
produces a well-formed table with the expected columns and rows.
"""

import numpy as np
import pytest


@pytest.fixture(scope="module", autouse=True)
def micro_scale():
    """Force the micro profile and reset the experiment caches."""
    import os

    from repro.bench import experiments

    previous = os.environ.get("REPRO_BENCH_SCALE")
    os.environ["REPRO_BENCH_SCALE"] = "micro"
    for fn in (
        experiments.get_table,
        experiments.get_workloads,
        experiments.get_estimator,
        experiments.get_imdb,
        experiments.get_join_workloads,
        experiments.get_join_estimator,
    ):
        fn.cache_clear()
    yield
    if previous is None:
        os.environ.pop("REPRO_BENCH_SCALE", None)
    else:
        os.environ["REPRO_BENCH_SCALE"] = previous
    for fn in (
        experiments.get_table,
        experiments.get_workloads,
        experiments.get_estimator,
        experiments.get_imdb,
        experiments.get_join_workloads,
        experiments.get_join_estimator,
    ):
        fn.cache_clear()


FAST_ESTIMATORS = ("sampling", "postgres", "naru", "iam")


class TestSingleTableDrivers:
    def test_dataset_statistics(self):
        from repro.bench import experiments

        headers, rows = experiments.dataset_statistics()
        assert headers[0] == "Dataset"
        assert len(rows) == 3

    def test_accuracy_table(self):
        from repro.bench import experiments

        headers, rows, summaries = experiments.accuracy_table(
            "twi", estimators=FAST_ESTIMATORS
        )
        assert [r[0] for r in rows] == list(FAST_ESTIMATORS)
        assert all(len(r) == 6 for r in rows)
        assert all(s.mean >= 1.0 for s in summaries.values())

    def test_inference_times(self):
        from repro.bench import experiments

        headers, rows = experiments.inference_times(
            "twi", estimators=("postgres", "iam"), n_queries=4
        )
        assert all(row[1] >= 0 for row in rows)

    def test_model_sizes(self):
        from repro.bench import experiments

        headers, rows = experiments.model_sizes(estimators=("naru", "iam"))
        assert len(headers) == 4
        assert all(v > 0 for row in rows for v in row[1:])

    def test_training_curve(self):
        from repro.bench import experiments

        curve, seconds = experiments.training_curve("twi", epochs=2)
        assert len(curve) == 2
        assert seconds > 0

    def test_component_sweep(self):
        from repro.bench import experiments

        headers, rows = experiments.component_sweep("twi", counts=(2, 4))
        sizes = [row[4] for row in rows]
        assert sizes == sorted(sizes)

    def test_reducer_comparison(self):
        from repro.bench import experiments

        headers, rows = experiments.reducer_comparison(
            "twi", kinds=("gmm", "hist"), component_counts=(None,)
        )
        assert [row[0] for row in rows] == ["GMM (6)", "HIST (6)"]

    def test_ablation_table(self):
        from repro.bench import experiments

        headers, rows = experiments.ablation_table(
            "twi", {"a": {"bias_correction": True}, "b": {"bias_correction": False}}
        )
        assert [row[0] for row in rows] == ["a", "b"]


class TestJoinDrivers:
    def test_join_accuracy(self):
        from repro.bench import experiments

        headers, rows = experiments.join_accuracy_table(estimators=("postgres", "iam"))
        assert [r[0] for r in rows] == ["postgres", "iam"]

    def test_batch_inference(self):
        from repro.bench import experiments

        headers, rows = experiments.batch_inference_table(batch_sizes=(1, 4))
        assert len(headers) == 3

    def test_end_to_end(self):
        from repro.bench import experiments

        headers, rows = experiments.end_to_end_table(
            estimators=("postgres",), n_queries=5
        )
        names = [row[0] for row in rows]
        assert "true" in names and "postgres" in names and "pessimal" in names
        by_name = {row[0]: row for row in rows}
        intermediates = {name: row[3] for name, row in by_name.items()}
        assert intermediates["true"] <= intermediates["pessimal"]

"""Tables 9-11: GMM vs equi-depth histogram vs spline vs UMM domain
reducers inside IAM, at 30/100/1000 budgets.

Expected shape: at equal budget GMM wins; at 1000 buckets the
alternatives close the median gap but keep far larger max errors and
slower estimation (the uniform-within-bucket assumption on skewed data).
"""

import pytest

from repro.bench import experiments, record_table


@pytest.mark.parametrize("dataset", ("wisdm", "twi", "higgs"))
def test_tables9_11_domain_reducers(benchmark, dataset):
    headers, rows = experiments.reducer_comparison(dataset)
    record_table(f"{experiments.TABLE_IDS[dataset]}_reducers_{dataset}", headers, rows,
                 title=f"Impact of domain reducing methods on {dataset.upper()} (reproduced)")

    estimator, _ = experiments.get_estimator("iam", dataset)
    _, test = experiments.get_workloads(dataset)
    benchmark(estimator.estimate_many, test.queries[:8])

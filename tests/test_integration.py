"""Cross-module integration tests, including a direct statistical check
of Theorem 5.1 (unbiasedness of IAM's progressive sampling)."""

import copy

import numpy as np
import pytest

from repro.ar.progressive import ProgressiveSampler, SlotConstraint
from repro.autodiff.tensor import no_grad
from repro.core import IAM, IAMConfig
from repro.datasets import make_higgs, make_twi, make_wisdm
from repro.metrics import q_errors
from repro.query import DNFQuery, Query, Workload, estimate_dnf
from repro.query.executor import execute_query
from tests.conftest import FAST_IAM


def model_implied_selectivity(model, constraints) -> float:
    """Exact sum over the (small) token space of P_model(t) * prod mass(t).

    This is the quantity progressive sampling estimates; Theorem 5.1 says
    the sampler is unbiased for it.
    """
    made = model
    grids = np.meshgrid(*[np.arange(v) for v in made.vocab_sizes], indexing="ij")
    tuples = np.column_stack([g.ravel() for g in grids])
    with no_grad():
        log_p = made.log_likelihood(tuples).numpy()
    weights = np.exp(log_p)
    total = np.ones(len(tuples))
    for k, constraint in enumerate(constraints):
        if constraint is None:
            continue
        total *= constraint.mass[tuples[:, k]]
    return float((weights * total).sum())


class TestTheorem51Unbiasedness:
    """The progressive-sampling estimate must average to the exact
    model-implied value across independent sampling seeds."""

    @pytest.fixture(scope="class")
    def setup(self, twi_small):
        config = IAMConfig(**{**FAST_IAM, "n_components": 5, "epochs": 2})
        model = IAM(config).fit(twi_small)
        lat = twi_small["latitude"]
        lon = twi_small["longitude"]
        query = Query.from_pairs(
            [
                ("latitude", "<=", float(np.quantile(lat.values, 0.35))),
                ("longitude", ">=", float(np.quantile(lon.values, 0.45))),
            ]
        )
        constraints = model.constraints_for(query)
        exact = model_implied_selectivity(model.model, constraints)
        return model, constraints, exact

    def test_sampler_mean_matches_exact(self, setup):
        model, constraints, exact = setup
        estimates = [
            ProgressiveSampler(model.model, n_samples=256, seed=s).estimate(constraints)
            for s in range(30)
        ]
        mean = float(np.mean(estimates))
        se = float(np.std(estimates) / np.sqrt(len(estimates)))
        assert abs(mean - exact) < max(4 * se, 0.01 * exact + 1e-6)

    def test_adaptive_estimate_mean_matches_exact(self, setup, twi_small):
        """``estimate_adaptive`` sizes S from a pilot and answers from
        fresh draws, so it averages to the model-implied value; stopping
        on the answer's own samples would not. A 16-sample pilot on a
        rare, narrow query makes small budgets common."""
        model, _, _ = setup
        lat = twi_small["latitude"].values
        lon = twi_small["longitude"].values
        query = Query.from_pairs(
            [
                ("latitude", "<=", float(np.quantile(lat, 0.2))),
                ("longitude", ">=", float(np.quantile(lon, 0.1))),
                ("longitude", "<=", float(np.quantile(lon, 0.15))),
            ]
        )
        exact = model_implied_selectivity(model.model, model.constraints_for(query))
        clone = copy.deepcopy(model)
        clone.config.n_progressive_samples = 16
        estimates = []
        for seed in range(2000):
            # Per call, so every call draws independently whether the
            # method reseeds from the config or spawns from the sampler.
            clone.config.seed = seed
            estimates.append(clone.estimate_adaptive(query)[0])
        mean = float(np.mean(estimates))
        se = float(np.std(estimates) / np.sqrt(len(estimates)))
        assert abs(mean - exact) < 4 * se

    def test_biased_variant_overestimates_exact(self, setup, twi_small):
        model, constraints, exact = setup
        biased = [
            SlotConstraint(mass=(c.mass > 0).astype(float)) if c is not None else None
            for c in constraints
        ]
        biased_exact = model_implied_selectivity(model.model, biased)
        assert biased_exact > exact * 1.05  # whole components counted


class TestEndToEndAccuracy:
    @pytest.mark.parametrize("maker", [make_twi, make_wisdm, make_higgs])
    def test_iam_pipeline_each_dataset(self, maker):
        table = maker(3000, seed=1)
        config = IAMConfig(**{**FAST_IAM, "epochs": 4})
        model = IAM(config).fit(table)
        workload = Workload.generate(table, 25, seed=2)
        estimates = model.estimate_many(workload.queries)
        errors = q_errors(workload.true_selectivities, estimates, table.num_rows)
        assert np.median(errors) < 3.0
        assert np.isfinite(errors).all()

    def test_iam_supports_disjunctions(self, fitted_iam, twi_small):
        a = Query.from_pairs([("latitude", "<=", 32.0)])
        b = Query.from_pairs([("latitude", ">=", 45.0)])
        dnf = DNFQuery([a, b])
        estimate = estimate_dnf(dnf, fitted_iam.estimate)
        truth = (execute_query(twi_small, a) | execute_query(twi_small, b)).mean()
        assert estimate == pytest.approx(truth, abs=0.2)

    def test_point_predicates_on_categorical(self, wisdm_small):
        config = IAMConfig(**{**FAST_IAM, "epochs": 3})
        model = IAM(config).fit(wisdm_small)
        values = wisdm_small["activity_code"].values
        code = int(np.bincount(values.astype(np.int64)).argmax())  # modal class
        q = Query.from_pairs([("activity_code", "=", code)])
        truth = (values == code).mean()
        assert model.estimate(q) == pytest.approx(truth, rel=0.6)

    def test_neq_predicate(self, fitted_iam, twi_small):
        value = float(np.quantile(twi_small["latitude"].values, 0.5))
        q = Query.from_pairs([("latitude", "!=", value)])
        assert fitted_iam.estimate(q) > 0.8


class TestIAMvsNaruShape:
    """The paper's headline: on tail (anchored low-selectivity) queries over
    large-domain continuous data, IAM's reduced sample space should not lose
    to Naru given the same budget, and both must beat independence."""

    def test_relative_ordering_on_twi(self):
        from repro.estimators import Postgres1D

        table = make_twi(6000, seed=4)
        shared = dict(epochs=5, hidden_sizes=(48, 48, 48), learning_rate=1e-2,
                      n_progressive_samples=200, seed=0)
        iam = IAM(IAMConfig(n_components=20, samples_per_component=1000,
                            gmm_domain_threshold=100, interval_kind="empirical",
                            **shared)).fit(table)
        postgres = Postgres1D().fit(table)

        workload = Workload.generate(table, 60, seed=6)
        iam_errors = q_errors(
            workload.true_selectivities, iam.estimate_many(workload.queries), table.num_rows
        )
        pg_errors = q_errors(
            workload.true_selectivities,
            np.array([postgres.estimate(q) for q in workload.queries]),
            table.num_rows,
        )
        # IAM must track the distribution tightly and not lose the tail
        # to correlation-blind independence.
        assert np.median(iam_errors) < 2.0
        assert iam_errors.max() <= pg_errors.max() * 1.5

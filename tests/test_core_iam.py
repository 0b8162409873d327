"""IAM core: config validation, fitting, query construction, inference,
ablation switches, persistence."""

import numpy as np
import pytest

from repro.core import IAM, IAMConfig, load_iam, save_iam
from repro.errors import ConfigError, NotFittedError
from repro.metrics import q_error
from repro.query import Query
from repro.query.executor import true_selectivity
from repro.reducers import GMMReducer, IdentityReducer
from tests.conftest import FAST_IAM


class TestConfig:
    def test_defaults_valid(self):
        IAMConfig()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("reducer_kind", "nope"),
            ("arch", "transformer"),
            ("order", "sideways"),
            ("assignment", "mean"),
            ("interval_kind", "exactish"),
            ("epochs", 0),
            ("wildcard_probability", 2.0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            IAMConfig(**{field: value})


class TestColumnPolicy:
    def test_gmm_for_large_continuous_only(self, fitted_iam):
        # TWI: both columns continuous, large-domain -> both GMM-reduced.
        assert all(isinstance(r, GMMReducer) for r in fitted_iam.reducers)

    def test_exact_for_categoricals(self, wisdm_small):
        model = IAM(IAMConfig(**{**FAST_IAM, "epochs": 1})).fit(wisdm_small)
        kinds = [type(r).__name__ for r in model.reducers]
        assert kinds[0] == "IdentityReducer"  # subject_id
        assert kinds[1] == "IdentityReducer"  # activity_code
        assert kinds[2] == "GMMReducer"  # x

    def test_reduced_domain_sizes(self, fitted_iam):
        assert fitted_iam.reduced_domain_sizes() == [8, 8]

    def test_threshold_respected(self, twi_small):
        config = IAMConfig(**{**FAST_IAM, "gmm_domain_threshold": 10**9, "epochs": 1})
        model = IAM(config).fit(twi_small)
        assert all(isinstance(r, IdentityReducer) for r in model.reducers)


class TestNotFitted:
    def test_estimate_before_fit(self):
        with pytest.raises(NotFittedError):
            IAM().estimate(Query.from_pairs([("x", "<=", 0.0)]))

    def test_size_before_fit(self):
        with pytest.raises(NotFittedError):
            IAM().size_bytes()


class TestQueryConstruction:
    def test_unqueried_columns_are_wildcards(self, fitted_iam):
        q = Query.from_pairs([("latitude", "<=", 40.0)])
        constraints = fitted_iam.constraints_for(q)
        assert constraints[1] is None
        assert constraints[0] is not None

    def test_gmm_column_gets_fractional_mass(self, fitted_iam, twi_small):
        lat = twi_small["latitude"]
        mid = (lat.min + lat.max) / 2
        q = Query.from_pairs([("latitude", "<=", mid)])
        mass = fitted_iam.constraints_for(q)[0].mass
        assert ((mass > 0) & (mass < 1)).any()  # the bias-correction vector

    def test_empty_constraint_zero_mass(self, fitted_iam):
        q = Query.from_pairs([("latitude", ">=", 40.0), ("latitude", "<=", 30.0)])
        mass = fitted_iam.constraints_for(q)[0].mass
        assert mass.sum() == 0

    def test_biased_variant_uses_indicator(self, twi_small):
        config = IAMConfig(**{**FAST_IAM, "bias_correction": False, "epochs": 1})
        model = IAM(config).fit(twi_small)
        lat = twi_small["latitude"]
        q = Query.from_pairs([("latitude", "<=", (lat.min + lat.max) / 2)])
        mass = model.constraints_for(q)[0].mass
        assert set(np.unique(mass)).issubset({0.0, 1.0})


class TestEstimation:
    def test_estimates_in_valid_range(self, fitted_iam, twi_workload):
        estimates = fitted_iam.estimate_many(twi_workload.queries)
        n = fitted_iam.table.num_rows
        assert (estimates >= 1.0 / n).all()
        assert (estimates <= 1.0).all()

    def test_single_column_marginal_accurate(self, fitted_iam, twi_small):
        lat = twi_small["latitude"]
        value = float(np.quantile(lat.values, 0.4))
        q = Query.from_pairs([("latitude", "<=", value)])
        est = fitted_iam.estimate(q)
        truth = true_selectivity(twi_small, q)
        assert q_error(truth, est) < 1.6

    def test_median_accuracy_reasonable(self, fitted_iam, twi_workload, twi_small):
        from repro.metrics import q_errors

        estimates = fitted_iam.estimate_many(twi_workload.queries)
        errors = q_errors(twi_workload.true_selectivities, estimates, twi_small.num_rows)
        assert np.median(errors) < 2.0

    def test_batch_matches_sequential(self, fitted_iam, twi_workload):
        queries = twi_workload.queries[:6]
        batched = fitted_iam.estimate_many(queries, batch_size=6)
        sequential = np.array([fitted_iam.estimate(q) for q in queries])
        np.testing.assert_allclose(batched, sequential, rtol=0.5)

    def test_cardinality(self, fitted_iam, twi_workload):
        q = twi_workload.queries[0]
        card = fitted_iam.cardinality(q)
        assert card == pytest.approx(
            fitted_iam.estimate(q) * fitted_iam.table.num_rows, rel=0.5
        )

    def test_unbiased_beats_biased_on_overestimation(self, twi_small, twi_workload):
        """The biased variant systematically over-estimates (whole
        components counted); the corrected one should not."""
        biased = IAM(IAMConfig(**{**FAST_IAM, "bias_correction": False})).fit(twi_small)
        ests_biased = biased.estimate_many(twi_workload.queries)
        over_biased = (ests_biased > twi_workload.true_selectivities).mean()
        assert over_biased > 0.7  # mostly overestimates


class TestTrainingModes:
    def test_separate_training_works(self, twi_small, twi_workload):
        config = IAMConfig(**{**FAST_IAM, "joint_training": False, "epochs": 2})
        model = IAM(config).fit(twi_small)
        estimates = model.estimate_many(twi_workload.queries[:5])
        assert np.isfinite(estimates).all()

    def test_sampled_assignment_works(self, twi_small):
        config = IAMConfig(**{**FAST_IAM, "assignment": "sampled", "epochs": 1})
        model = IAM(config).fit(twi_small)
        q = Query.from_pairs([("latitude", "<=", 40.0)])
        assert 0.0 < model.estimate(q) <= 1.0

    @pytest.mark.parametrize("order", ["random", "mindomain"])
    def test_alternative_orders(self, twi_small, order):
        config = IAMConfig(**{**FAST_IAM, "order": order, "epochs": 1})
        model = IAM(config).fit(twi_small)
        q = Query.from_pairs([("longitude", ">=", -100.0)])
        assert 0.0 < model.estimate(q) <= 1.0

    def test_epoch_callback_gets_usable_model(self, twi_small):
        config = IAMConfig(**{**FAST_IAM, "epochs": 2})
        estimates = []

        def on_epoch_end(epoch, model):
            q = Query.from_pairs([("latitude", "<=", 40.0)])
            estimates.append(model.estimate(q))

        IAM(config).fit(twi_small, on_epoch_end=on_epoch_end)
        assert len(estimates) == 2
        assert all(0 < e <= 1 for e in estimates)

    def test_every_epoch_runs_without_gmm_columns(self, twi_small):
        """No GMM to freeze: all ``epochs`` are joint epochs."""
        config = IAMConfig(**{**FAST_IAM, "gmm_domain_threshold": 10**9, "epochs": 3})
        epochs = []
        model = IAM(config).fit(twi_small, on_epoch_end=lambda e, _m: epochs.append(e))
        assert not any(isinstance(r, GMMReducer) for r in model.reducers)
        assert len(model.epoch_losses) == 3
        assert epochs == [0, 1, 2]

    def test_vbgmm_component_selection(self, twi_small):
        config = IAMConfig(**{**FAST_IAM, "n_components": None, "epochs": 1})
        model = IAM(config).fit(twi_small)
        assert all(1 <= k <= 50 for k in model.reduced_domain_sizes())


class TestAlternativeReducers:
    @pytest.mark.parametrize("kind", ["hist", "spline", "umm"])
    def test_reducer_kinds_fit_and_estimate(self, twi_small, kind):
        config = IAMConfig(**{**FAST_IAM, "reducer_kind": kind, "epochs": 1})
        model = IAM(config).fit(twi_small)
        q = Query.from_pairs([("latitude", "<=", 40.0)])
        assert 0.0 < model.estimate(q) <= 1.0


class TestSizeAccounting:
    def test_size_includes_gmm_params(self, fitted_iam):
        ar_only = fitted_iam.model.size_bytes()
        assert fitted_iam.size_bytes() > ar_only

    def test_size_grows_with_components(self, twi_small):
        small = IAM(IAMConfig(**{**FAST_IAM, "n_components": 4, "epochs": 1})).fit(twi_small)
        large = IAM(IAMConfig(**{**FAST_IAM, "n_components": 16, "epochs": 1})).fit(twi_small)
        assert large.size_bytes() > small.size_bytes()


class TestPersistence:
    def test_roundtrip_estimates_match(self, fitted_iam, twi_small, twi_workload, tmp_path):
        path = tmp_path / "iam.npz"
        save_iam(fitted_iam, path)
        restored = load_iam(path, twi_small)
        queries = twi_workload.queries[:4]

        def seeded(model):
            return model.estimate_many(
                queries, rngs=[np.random.default_rng(i) for i in range(len(queries))]
            )

        assert np.array_equal(seeded(restored), seeded(fitted_iam))

    def test_roundtrip_preserves_structure(self, fitted_iam, twi_small, tmp_path):
        path = tmp_path / "iam.npz"
        save_iam(fitted_iam, path)
        restored = load_iam(path, twi_small)
        assert restored.reduced_domain_sizes() == fitted_iam.reduced_domain_sizes()
        assert restored.config.n_components == fitted_iam.config.n_components

    def test_save_unfitted_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_iam(IAM(), tmp_path / "x.npz")

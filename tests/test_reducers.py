"""Domain reducers: contract tests across all implementations, plus
reducer-specific behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, NotFittedError
from repro.reducers import (
    EquiDepthReducer,
    GMMReducer,
    IdentityReducer,
    SplineReducer,
    UniformMixtureReducer,
    make_reducer,
)
from repro.reducers.nullable import NullableReducer

RNG = np.random.default_rng(0)


@pytest.fixture(scope="module")
def skewed_values():
    rng = np.random.default_rng(1)
    return np.round(
        np.concatenate([rng.normal(0, 1, 4000), rng.lognormal(2, 0.8, 1000)]), 4
    )


ALL_KINDS = ("gmm", "hist", "spline", "umm")


class TestReducerContract:
    """Properties every reducer must satisfy."""

    @pytest.fixture(params=ALL_KINDS, scope="class")
    def fitted(self, request, skewed_values):
        reducer = make_reducer(request.param, n_components=12, seed=0)
        if request.param == "gmm":
            # The contract (exact saturation) holds for the empirical
            # interval estimator; Monte-Carlo leaks Gaussian tail mass
            # outside the data range by design (tested separately).
            reducer.sgd_epochs = 2
            reducer.interval_kind = "empirical"
        return reducer.fit(skewed_values)

    def test_tokens_in_range(self, fitted, skewed_values):
        tokens = fitted.transform(skewed_values)
        assert tokens.min() >= 0
        assert tokens.max() < fitted.n_tokens

    def test_masses_in_unit_interval(self, fitted):
        masses = fitted.range_mass([(-1.0, 5.0)])
        assert ((masses >= 0) & (masses <= 1)).all()

    def test_full_range_saturates(self, fitted, skewed_values):
        lo, hi = skewed_values.min() - 1, skewed_values.max() + 1
        masses = fitted.range_mass([(lo, hi)])
        # Every token that actually receives data must be fully covered.
        tokens = np.unique(fitted.transform(skewed_values))
        np.testing.assert_allclose(masses[tokens], 1.0, atol=1e-6)

    def test_empty_range_zero(self, fitted):
        np.testing.assert_allclose(fitted.range_mass([(5.0, 4.0)]), 0.0)

    def test_union_additivity(self, fitted):
        a = fitted.range_mass([(-1.0, 0.0)])
        b = fitted.range_mass([(0.5, 2.0)])
        both = fitted.range_mass([(-1.0, 0.0), (0.5, 2.0)])
        np.testing.assert_allclose(both, np.clip(a + b, 0, 1), atol=1e-9)

    def test_size_positive(self, fitted):
        assert fitted.size_bytes() > 0

    def test_weighted_mass_approximates_selectivity(self, fitted, skewed_values):
        """sum_k P(token=k) * mass_k ~ true fraction in range."""
        tokens = fitted.transform(skewed_values)
        freq = np.bincount(tokens, minlength=fitted.n_tokens) / len(tokens)
        for low, high in [(-1.0, 1.0), (0.0, 10.0), (5.0, 30.0)]:
            estimate = float(freq @ fitted.range_mass([(low, high)]))
            truth = ((skewed_values >= low) & (skewed_values <= high)).mean()
            assert estimate == pytest.approx(truth, abs=0.12)


class TestIdentityReducer:
    def test_exact_flag(self):
        assert IdentityReducer.is_exact

    def test_roundtrip_lossless(self):
        values = np.array([3.0, 1.0, 3.0, 2.0])
        reducer = IdentityReducer().fit(values)
        tokens = reducer.transform(values)
        assert reducer.n_tokens == 3
        np.testing.assert_array_equal(tokens, [2, 0, 2, 1])

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            IdentityReducer().transform(np.zeros(1))

    def test_masses_are_indicator(self):
        reducer = IdentityReducer().fit(np.array([1.0, 2.0, 3.0]))
        mass = reducer.range_mass([(1.5, 3.0)])
        assert set(mass.tolist()) <= {0.0, 1.0}


class TestGMMReducer:
    def test_reduces_domain(self, skewed_values):
        reducer = GMMReducer(n_components=8, sgd_epochs=2, seed=0).fit(skewed_values)
        assert reducer.n_tokens == 8
        assert len(np.unique(skewed_values)) > 100

    def test_vbgmm_chooses_k(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.normal(-5, 0.3, 1500), rng.normal(5, 0.3, 1500)])
        reducer = GMMReducer(n_components=None, sgd_epochs=2, max_vb_components=8, seed=0)
        reducer.fit(x)
        assert 2 <= reducer.n_tokens <= 8

    def test_finalise_before_initialise_raises(self):
        with pytest.raises(NotFittedError):
            GMMReducer().finalise()

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            GMMReducer().transform(np.zeros(3))

    def test_invalid_component_count(self):
        with pytest.raises(ConfigError):
            GMMReducer(n_components=0)

    def test_montecarlo_leaks_tail_mass_outside_data_range(self, skewed_values):
        """MC interval masses follow the Gaussians, not the data: a range
        covering all observed data still misses tail mass — the behaviour
        the paper's estimator exhibits by construction."""
        reducer = GMMReducer(
            n_components=12, interval_kind="montecarlo", sgd_epochs=2,
            samples_per_component=4000, seed=0,
        ).fit(skewed_values)
        masses = reducer.range_mass([(skewed_values.min(), skewed_values.max())])
        assert masses.min() < 1.0  # some component leaks
        assert masses.min() > 0.5  # but not catastrophically

    def test_finalise_replays_its_interval_draw(self, skewed_values):
        """Re-finalising redraws the same Monte-Carlo samples, and so does
        a reducer restored from the mixture and its draw state."""
        reducer = GMMReducer(
            n_components=6, sgd_epochs=1, samples_per_component=500, seed=0
        ).fit(skewed_values)
        intervals = [(float(np.quantile(skewed_values, 0.3)), float(np.median(skewed_values)))]
        first = reducer.range_mass(intervals)
        assert np.array_equal(reducer.finalise().range_mass(intervals), first)

        restored = GMMReducer(samples_per_component=500)
        restored.mixture, restored.draw_state = reducer.mixture, reducer.draw_state
        assert np.array_equal(restored.finalise().range_mass(intervals), first)

    def test_interval_kinds_consistent(self, skewed_values):
        masses = {}
        for kind in ("montecarlo", "exact", "empirical"):
            reducer = GMMReducer(
                n_components=6, interval_kind=kind, sgd_epochs=2,
                samples_per_component=4000, seed=0,
            ).fit(skewed_values)
            masses[kind] = reducer.range_mass([(-1.0, 1.0)])
        np.testing.assert_allclose(masses["montecarlo"], masses["exact"], atol=0.05)


class TestEquiDepthReducer:
    def test_balanced_buckets(self):
        x = RNG.normal(size=5000)
        reducer = EquiDepthReducer(n_bins=10).fit(x)
        counts = np.bincount(reducer.transform(x), minlength=reducer.n_tokens)
        assert counts.min() > len(x) / 20

    def test_uniform_assumption_mass(self):
        reducer = EquiDepthReducer(n_bins=2)
        reducer.edges = np.array([0.0, 1.0, 2.0])
        reducer.n_tokens = 2
        mass = reducer.range_mass([(0.0, 0.5)])
        np.testing.assert_allclose(mass, [0.5, 0.0])


class TestSplineReducer:
    def test_knots_cover_extremes(self, skewed_values):
        reducer = SplineReducer(n_knots=10).fit(skewed_values)
        assert reducer.knots[0] == skewed_values.min()
        assert reducer.knots[-1] == skewed_values.max()

    def test_knots_concentrate_where_cdf_bends(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(0, 0.1, 5000), rng.uniform(10, 20, 100)])
        reducer = SplineReducer(n_knots=12).fit(x)
        dense_region = (reducer.knots < 5).sum()
        assert dense_region >= 6  # most knots near the spike

    def test_tiny_domain(self):
        reducer = SplineReducer(n_knots=5).fit(np.array([1.0, 1.0, 2.0]))
        assert reducer.n_tokens >= 1


class TestUMMReducer:
    def test_weights_sum_to_one(self, skewed_values):
        reducer = UniformMixtureReducer(n_components=8, seed=0).fit(skewed_values)
        assert reducer.weights.sum() == pytest.approx(1.0)

    def test_orphan_values_assigned_to_nearest(self):
        reducer = UniformMixtureReducer(n_components=4, seed=0).fit(
            RNG.normal(size=1000)
        )
        tokens = reducer.transform(np.array([1e6, -1e6]))
        assert tokens[0] == reducer.n_tokens - 1 or tokens[0] >= 0
        assert len(tokens) == 2

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            UniformMixtureReducer().transform(np.zeros(2))


class TestNullableReducer:
    @pytest.fixture(scope="class")
    def nullable(self, skewed_values):
        inner = IdentityReducer().fit(np.array([1.0, 2.0, 3.0]))
        return NullableReducer(inner)

    def test_adds_null_token(self, nullable):
        assert nullable.n_tokens == 4
        assert nullable.null_token == 3

    def test_transform_routes_nulls(self, nullable):
        values = np.array([1.0, 2.0, 99.0])
        null_mask = np.array([False, False, True])
        tokens = nullable.transform(values, null_mask)
        np.testing.assert_array_equal(tokens, [0, 1, 3])

    def test_range_mass_excludes_null(self, nullable):
        mass = nullable.range_mass([(0.0, 10.0)])
        assert mass[-1] == 0.0
        np.testing.assert_array_equal(mass[:-1], [1.0, 1.0, 1.0])

    def test_present_mass(self, nullable):
        np.testing.assert_array_equal(nullable.present_mass(), [1, 1, 1, 0])


class TestFactory:
    def test_all_kinds_constructible(self):
        for kind in ALL_KINDS:
            assert make_reducer(kind, n_components=5, seed=0) is not None

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_reducer("nope")

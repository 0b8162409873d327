"""Interval-mass estimators: the three P_GMM^k(R) variants must agree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.mixtures import (
    EmpiricalIntervalMass,
    ExactIntervalMass,
    GaussianMixture1D,
    MonteCarloIntervalMass,
    make_interval_estimator,
)

RNG = np.random.default_rng(5)


@pytest.fixture(scope="module")
def mixture():
    return GaussianMixture1D(
        np.array([0.25, 0.75]), np.array([-3.0, 3.0]), np.array([1.0, 4.0])
    )


@pytest.fixture(scope="module")
def values(mixture):
    return mixture.sample(20_000, rng=np.random.default_rng(9))


class TestExact:
    def test_full_line_is_one(self, mixture):
        est = ExactIntervalMass(mixture)
        np.testing.assert_allclose(est.masses(-1e9, 1e9), 1.0)

    def test_empty_interval_zero(self, mixture):
        est = ExactIntervalMass(mixture)
        np.testing.assert_allclose(est.masses(3.0, 2.0), 0.0)

    def test_half_mass_at_mean(self, mixture):
        est = ExactIntervalMass(mixture)
        masses = est.masses(-1e9, -3.0)
        assert masses[0] == pytest.approx(0.5)


class TestMonteCarlo:
    def test_close_to_exact(self, mixture):
        mc = MonteCarloIntervalMass(mixture, 20_000, seed=0)
        exact = ExactIntervalMass(mixture)
        for low, high in [(-5, -1), (0, 4), (-10, 10), (2.5, 2.6)]:
            np.testing.assert_allclose(
                mc.masses(low, high), exact.masses(low, high), atol=0.02
            )

    def test_sample_count_validated(self, mixture):
        with pytest.raises(ConfigError):
            MonteCarloIntervalMass(mixture, 0)

    def test_deterministic_given_seed(self, mixture):
        a = MonteCarloIntervalMass(mixture, 1000, seed=7)
        b = MonteCarloIntervalMass(mixture, 1000, seed=7)
        np.testing.assert_array_equal(a.masses(-1, 1), b.masses(-1, 1))

    def test_size_accounts_samples(self, mixture):
        est = MonteCarloIntervalMass(mixture, 100, seed=0)
        assert est.size_bytes() == 2 * 100 * 4

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-6, 6), st.floats(0, 5))
    def test_masses_in_unit_interval(self, low, width):
        mixture = GaussianMixture1D(np.array([1.0]), np.array([0.0]), np.array([1.0]))
        est = MonteCarloIntervalMass(mixture, 500, seed=1)
        m = est.masses(low, low + width)
        assert ((m >= 0) & (m <= 1)).all()


class TestEmpirical:
    def test_matches_direct_count(self, mixture, values):
        est = EmpiricalIntervalMass(mixture, values)
        assignment = mixture.assign(values)
        low, high = -2.0, 4.0
        expected = np.zeros(2)
        for k in range(2):
            member = values[assignment == k]
            expected[k] = ((member >= low) & (member <= high)).mean()
        np.testing.assert_allclose(est.masses(low, high), expected)

    def test_empty_component_gives_zero(self):
        # Component 1 far away: no training value assigned to it.
        mixture = GaussianMixture1D(
            np.array([0.999, 0.001]), np.array([0.0, 100.0]), np.array([1.0, 1.0])
        )
        values = RNG.normal(0, 1, 500)
        est = EmpiricalIntervalMass(mixture, values)
        assert est.masses(-1e9, 1e9)[1] == 0.0

    def test_agrees_with_exact_for_separated_components(self, values, mixture):
        emp = EmpiricalIntervalMass(mixture, values)
        exact = ExactIntervalMass(mixture)
        np.testing.assert_allclose(
            emp.masses(-4.5, -2.0), exact.masses(-4.5, -2.0), atol=0.05
        )


    def test_build_memory_is_bounded_by_the_chunk(self):
        """A 40,000-row column against K = 30 stays under 5 MB at peak
        (the whole-column (N, K) float64 log-joint alone is 9.6 MB) and
        assigns exactly like the whole-column argmax."""
        import tracemalloc

        rng = np.random.default_rng(2)
        k = 30
        mixture = GaussianMixture1D(
            np.full(k, 1.0 / k), np.linspace(-10.0, 10.0, k), np.full(k, 0.5)
        )
        values = mixture.sample(40_000, rng=rng)
        tracemalloc.start()
        try:
            est = EmpiricalIntervalMass(mixture, values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 1024 * 1024
        assignment = mixture.assign(values)
        for component, row in enumerate(est._sorted_values):
            np.testing.assert_array_equal(row, np.sort(values[assignment == component]))


class TestFactory:
    def test_factory_kinds(self, mixture, values):
        assert isinstance(
            make_interval_estimator("montecarlo", mixture, samples_per_component=10),
            MonteCarloIntervalMass,
        )
        assert isinstance(make_interval_estimator("exact", mixture), ExactIntervalMass)
        assert isinstance(
            make_interval_estimator("empirical", mixture, values=values),
            EmpiricalIntervalMass,
        )

    def test_empirical_requires_values(self, mixture):
        with pytest.raises(ConfigError):
            make_interval_estimator("empirical", mixture)

    def test_unknown_kind(self, mixture):
        with pytest.raises(ConfigError):
            make_interval_estimator("bogus", mixture)

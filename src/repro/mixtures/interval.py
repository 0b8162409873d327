"""Per-component interval-mass estimators ``P_GMM^k(R)``.

The unbiased progressive sampler (paper Section 5.2) multiplies the AR
conditional over component ids by a K-vector whose k-th entry is the
probability mass that component k puts inside the queried range R. Three
interchangeable estimators are provided:

- :class:`MonteCarloIntervalMass` — **the paper's method**: draw ``S``
  samples from each Gaussian component once (query-independent
  preprocessing), then answer any range by counting samples inside it.
  Implemented with sorted samples + binary search, so a query costs
  O(K log S).
- :class:`ExactIntervalMass` — closed form via the normal CDF; equals the
  Monte-Carlo estimate in expectation, with zero variance.
- :class:`EmpiricalIntervalMass` — the quantity Theorem 5.1 actually
  reasons about: the fraction of *training values assigned to component k*
  that fall in R (``s(R^k) / s(A' = k)``). Exact w.r.t. the training data.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.mixtures.base import GaussianMixture1D
from repro.utils.rng import ensure_rng


# Rows per chunk when EmpiricalIntervalMass assigns a column.
ASSIGN_CHUNK_ROWS = 4096


class IntervalMassEstimator:
    """Interface: ``masses(low, high) -> (K,)`` per-component masses."""

    n_components: int

    def masses(self, low: float, high: float) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def size_bytes(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError


class MonteCarloIntervalMass(IntervalMassEstimator):
    """The paper's estimator: ``S_k / S`` with per-component samples.

    The samples are drawn once at construction ("a one-time preprocessing
    that can be done before any query is processed") and sorted so that
    each query is two binary searches per component.
    """

    def __init__(self, mixture: GaussianMixture1D, samples_per_component: int = 10_000, seed=None):
        if samples_per_component < 1:
            raise ConfigError("samples_per_component must be >= 1")
        rng = ensure_rng(seed)
        self.n_components = mixture.n_components
        self.samples_per_component = samples_per_component
        self._sorted_samples = np.stack(
            [
                np.sort(mixture.sample_component(k, samples_per_component, rng=rng))
                for k in range(mixture.n_components)
            ]
        )

    def masses(self, low: float, high: float) -> np.ndarray:
        if high < low:
            return np.zeros(self.n_components)
        hi = np.array(
            [np.searchsorted(row, high, side="right") for row in self._sorted_samples]
        )
        lo = np.array([np.searchsorted(row, low, side="left") for row in self._sorted_samples])
        return (hi - lo) / self.samples_per_component

    def size_bytes(self) -> int:
        return self._sorted_samples.size * 4  # float32 storage


class ExactIntervalMass(IntervalMassEstimator):
    """Closed-form masses via the Gaussian CDF (ablation variant)."""

    def __init__(self, mixture: GaussianMixture1D):
        self._mixture = mixture
        self.n_components = mixture.n_components

    def masses(self, low: float, high: float) -> np.ndarray:
        return self._mixture.component_interval_mass(low, high)

    def size_bytes(self) -> int:
        return self._mixture.size_bytes()


class EmpiricalIntervalMass(IntervalMassEstimator):
    """Theorem 5.1's exact fractions from the training column.

    Stores, per component, the sorted multiset of training values assigned
    (argmax) to that component. ``masses`` then returns
    ``|{v in component k : v in [low, high]}| / |component k|``.
    """

    def __init__(self, mixture: GaussianMixture1D, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        # Assigned in row chunks: the (rows, K) log-joint is elementwise
        # and its argmax row-wise, so chunks give the same assignment
        # while peak memory stays bounded by the chunk, not the column.
        assignment = np.empty(len(values), dtype=np.int64)
        for start in range(0, len(values), ASSIGN_CHUNK_ROWS):
            chunk = slice(start, start + ASSIGN_CHUNK_ROWS)
            assignment[chunk] = mixture.assign(values[chunk])
        self.n_components = mixture.n_components
        self._sorted_values = [
            np.sort(values[assignment == k]) for k in range(mixture.n_components)
        ]
        self._counts = np.array([len(v) for v in self._sorted_values], dtype=np.float64)

    def masses(self, low: float, high: float) -> np.ndarray:
        out = np.zeros(self.n_components)
        if high < low:
            return out
        for k, row in enumerate(self._sorted_values):
            if len(row) == 0:
                continue
            hi = np.searchsorted(row, high, side="right")
            lo = np.searchsorted(row, low, side="left")
            out[k] = (hi - lo) / self._counts[k]
        return out

    def size_bytes(self) -> int:
        return int(self._counts.sum()) * 4


def make_interval_estimator(
    kind: str,
    mixture: GaussianMixture1D,
    values: np.ndarray | None = None,
    samples_per_component: int = 10_000,
    seed=None,
) -> IntervalMassEstimator:
    """Factory keyed by config string: 'montecarlo' | 'exact' | 'empirical'."""
    if kind == "montecarlo":
        return MonteCarloIntervalMass(mixture, samples_per_component, seed=seed)
    if kind == "exact":
        return ExactIntervalMass(mixture)
    if kind == "empirical":
        if values is None:
            raise ConfigError("empirical interval estimator needs the training values")
        return EmpiricalIntervalMass(mixture, values)
    raise ConfigError(f"unknown interval estimator kind: {kind!r}")

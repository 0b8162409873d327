"""Log-domain GMM reducer — the paper's "other mixture models" future work.

A mixture of log-normals: fit the GMM to ``log(x - shift)`` where shift
places the support just below the column minimum. For heavily
right-skewed positive columns (HIGGS-like), log-space components match
the data geometry far better than raw-space Gaussians, whose variance is
dominated by the tail.

The reducer delegates to :class:`GMMReducer` in log space and transforms
query intervals into log space before computing range masses — masses are
invariant under the monotone transform, so everything downstream
(unbiased sampling, Theorem 5.1) carries over unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotFittedError
from repro.reducers.base import DomainReducer
from repro.reducers.gmm_reducer import GMMReducer


class LogGMMReducer(DomainReducer):
    """GMM over log-transformed values for right-skewed columns."""

    is_exact = False

    def __init__(self, n_components: int | None = 30, interval_kind: str = "empirical",
                 samples_per_component: int = 10_000, sgd_epochs: int = 8, seed=None):
        self.inner = GMMReducer(
            n_components=n_components,
            interval_kind=interval_kind,
            samples_per_component=samples_per_component,
            sgd_epochs=sgd_epochs,
            seed=seed,
        )
        self.shift: float | None = None
        self.n_tokens = 0

    # ------------------------------------------------------------------
    def _to_log(self, values: np.ndarray) -> np.ndarray:
        return np.log(np.maximum(np.asarray(values, dtype=np.float64) - self.shift, 1e-300))

    def fit(self, values: np.ndarray) -> "LogGMMReducer":
        values = np.asarray(values, dtype=np.float64)
        spread = float(values.max() - values.min()) or 1.0
        self.shift = float(values.min()) - 1e-6 * spread
        self.inner.fit(self._to_log(values))
        self.n_tokens = self.inner.n_tokens
        return self

    def _require_fit(self) -> None:
        if self.shift is None:
            raise NotFittedError("LogGMMReducer used before fit()")

    def transform(self, values: np.ndarray) -> np.ndarray:
        self._require_fit()
        return self.inner.transform(self._to_log(values))

    def _interval_mass(self, low: float, high: float) -> np.ndarray:
        self._require_fit()
        if high < low:
            return np.zeros(self.n_tokens)
        # Clamp below the support: everything <= shift has zero mass.
        log_low = float(self._to_log(np.array([max(low, self.shift + 1e-300)]))[0])
        log_high = float(self._to_log(np.array([max(high, self.shift + 1e-300)]))[0])
        return self.inner._interval_mass(log_low, log_high)

    def size_bytes(self) -> int:
        return self.inner.size_bytes() + 4  # + the shift

    @property
    def mixture(self):
        """The underlying (log-space) mixture, for inspection."""
        return self.inner.mixture

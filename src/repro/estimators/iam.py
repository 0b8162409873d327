"""Adapter exposing :class:`repro.core.model.IAM` as an Estimator."""

from __future__ import annotations

import numpy as np

from repro.core.config import IAMConfig, validate_precision
from repro.core.model import IAM
from repro.data.table import Table
from repro.errors import NotFittedError
from repro.estimators.base import Estimator
from repro.query.query import Query
from repro.query.workload import Workload
from repro.utils.rng import ensure_rng, query_seed


class IAMEstimator(Estimator):
    """The paper's model behind the common estimator interface."""

    name = "iam"

    def __init__(self, config: IAMConfig | None = None, **config_overrides):
        super().__init__()
        if config is None:
            config = IAMConfig(**config_overrides)
        elif config_overrides:
            raise ValueError("pass either a config object or overrides, not both")
        self.config = config
        self.model: IAM | None = None

    def fit(self, table: Table, workload: Workload | None = None) -> "IAMEstimator":
        self._table = table
        self.model = IAM(self.config).fit(table)
        return self

    def _require_model(self) -> IAM:
        if self.model is None:
            raise NotFittedError("IAMEstimator used before fit()")
        return self.model

    def estimate(self, query: Query) -> float:
        return self._require_model().estimate(query)

    def estimate_many(self, queries, batch_size: int = 16, rngs=None) -> np.ndarray:
        return self._require_model().estimate_many(queries, batch_size=batch_size, rngs=rngs)

    def estimate_batch(self, queries, rngs=None) -> np.ndarray:
        """Shared-forward-pass batching (Section 5.3) for the serving
        layer, routed through the signature-grouped sampler driver: the
        batch is grouped by constrained-column signature and each group
        runs one stacked trunk program per AR step.  ``rngs`` gives each
        query its own draw stream so results are independent of how the
        batcher coalesced — or the driver grouped — them; when omitted,
        the same per-query streams the serving layer would pass are
        derived here (``query_seed(self.name, query.cache_key())``), so
        a query's estimate does not depend on who supplied the rngs."""
        if rngs is None:
            rngs = [
                ensure_rng(query_seed(self.name, query.cache_key()))
                for query in queries
            ]
        return self.estimate_many(queries, batch_size=max(len(queries), 1), rngs=rngs)

    def batch_group_sizes(self) -> list[int] | None:
        return None if self.model is None else self.model.batch_group_sizes()

    def size_bytes(self) -> int:
        return self._require_model().size_bytes()

    def runtime_plan(self):
        return None if self.model is None else self.model.runtime_plan()

    def set_precision(self, precision: str) -> "IAMEstimator":
        """Switch the compiled-plan precision tier ('float64'|'float32').

        Delegates to :meth:`repro.core.model.IAM.set_precision` when
        fitted; before fit it just updates the config so the eventual
        plan compiles at the requested tier.
        """
        validate_precision(precision)
        if self.model is not None:
            self.model.set_precision(precision)  # shares self.config
        else:
            self.config.inference_precision = precision
        return self

"""Query construction and unbiased progressive sampling for IAM.

Implements Section 5 / Algorithm 1:

- **Query construction (5.1)**: a query range ``R_i`` on an original
  attribute becomes, on the reduced attribute, the whole token domain
  (GMM columns — any component can intersect ``R_i``) or the exact token
  range (untouched columns).
- **Unbiased sampling (5.2)**: for GMM columns, the AR conditional over
  component ids is multiplied by ``P_GMM(R_i)`` — the per-component range
  probabilities from the interval estimator — before normalising, which
  Theorem 5.1 shows makes the estimator unbiased. Exact columns keep the
  plain Naru indicator; unqueried columns are wildcard-skipped.
- **Batch inference (5.3)**: multiple queries share the forward passes of
  one big sample batch (Table 7's experiment).

The *biased* vanilla sampler (the strawman Section 5.2 motivates against)
is reproduced by ``bias_correction=False``: any component that merely
intersects the range counts fully (indicator of positive mass).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ar.progressive import ProgressiveSampler, SlotConstraint
from repro.data.table import Table
from repro.query.query import Query
from repro.reducers.base import DomainReducer
from repro.runtime.gmm import RangeMassCache


def build_constraints_batch(
    table: Table,
    reducers: Sequence[DomainReducer],
    queries: Sequence[Query],
    mass_cache: RangeMassCache,
    bias_correction: bool = True,
) -> list[list[SlotConstraint | None]]:
    """Per-column sampler constraints for a batch of conjunctive queries.

    Walks each column once for the whole batch and resolves every
    query's range mass on it through
    :meth:`~repro.runtime.gmm.RangeMassCache.range_mass_batch` (shared
    interval computations, one memo traversal) — bitwise-equal to the
    direct ``reducer.range_mass`` call, in the cache's precision tier.
    """
    constraint_maps = [query.constraints(table) for query in queries]
    all_slots: list[list[SlotConstraint | None]] = [
        [None] * len(table.columns) for _ in queries
    ]
    for ci, (column, reducer) in enumerate(zip(table.columns, reducers)):
        requests: list[tuple[int, Sequence]] = []  # (query index, intervals)
        for qi, constraint_map in enumerate(constraint_maps):
            constraint = constraint_map.get(column.name)
            if constraint is None:
                continue  # wildcard skipping
            if constraint.is_empty:
                all_slots[qi][ci] = SlotConstraint(
                    mass=np.zeros(reducer.n_tokens, dtype=mass_cache.dtype)
                )
                continue
            requests.append((qi, constraint.intervals))
        if not requests:
            continue
        masses = mass_cache.range_mass_batch(
            column.name, [intervals for _, intervals in requests]
        )
        for (qi, _), mass in zip(requests, masses):
            if not bias_correction and not reducer.is_exact:
                mass = (mass > 0.0).astype(mass.dtype)
            all_slots[qi][ci] = SlotConstraint(mass=mass)
    return all_slots


class IAMInference:
    """Bundles the sampler with the fitted reducers for query answering.

    Owns a :class:`~repro.runtime.gmm.RangeMassCache` over its reducers.
    The cache's lifetime equals this object's: ``IAM._refresh_inference``
    builds a fresh ``IAMInference`` after every (re)fit and hot reload,
    so cached masses can never outlive the reducers that produced them.
    """

    def __init__(
        self,
        table: Table,
        reducers: Sequence[DomainReducer],
        sampler: ProgressiveSampler,
        bias_correction: bool = True,
    ):
        self.table = table
        self.reducers = list(reducers)
        self.sampler = sampler
        self.bias_correction = bias_correction
        # The cache serves masses in the sampler's precision tier so
        # the grouped loop never promotes back to float64 mid-query.
        self.mass_cache = RangeMassCache(
            {c.name: r for c, r in zip(table.columns, self.reducers)},
            dtype=sampler.dtype,
        )

    def estimate_batch(
        self,
        queries: Sequence[Query],
        rngs: Sequence[np.random.Generator] | None = None,
    ) -> np.ndarray:
        """Shared-forward-pass batch estimation (Section 5.3).

        ``rngs`` (one generator per query) decouples each query's draws
        from the batch composition; see
        :meth:`~repro.ar.progressive.ProgressiveSampler.sample_weights`.
        The sampler groups the batch by constrained-column signature and
        runs one stacked trunk program per group per AR step.
        """
        return self.sampler.estimate_batch(self.constraints(queries), rngs=rngs)

    def constraints(
        self, queries: Sequence[Query]
    ) -> list[list[SlotConstraint | None]]:
        """Sampler constraints for each query (Section 5.1): the one way
        every IAM entry point builds them.

        Queries are deduplicated by canonical form and constructed
        together via :func:`build_constraints_batch` (one range-mass
        pass per column, through this model's mass cache, at the plan
        dtype); duplicates share one constraint list, which is safe
        because the sampler never mutates constraint masses.
        """
        indices_by_key: dict = {}  # cache key -> indices of its queries
        order: list = []  # distinct queries in first-seen order
        for i, query in enumerate(queries):
            key = query.cache_key()
            if key not in indices_by_key:
                indices_by_key[key] = []
                order.append(query)
            indices_by_key[key].append(i)
        built = build_constraints_batch(
            self.table, self.reducers, order, self.mass_cache, self.bias_correction
        )
        out: list = [None] * len(queries)
        for indices, slots in zip(indices_by_key.values(), built):
            for i in indices:
                out[i] = slots
        return out

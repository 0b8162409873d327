"""Approximate aggregate queries (COUNT / SUM / AVG) on top of IAM.

The paper's future work ("it is of interest to extend IAM on other
approximate query processing queries, such as AVG and SUM") — implemented
here. The idea mirrors the selectivity estimator:

- ``COUNT(q) = |T| * estsel(q)`` — plain progressive sampling;
- ``SUM(target | q) = |T| * E[X_target * 1(q)]``: run the unbiased
  progressive sampler, and when the *target* column is sampled, multiply
  each sample's weight by the expected value of the target **inside its
  sampled token and the queried range**:

  * exact (identity) columns: the token's actual value;
  * GMM-reduced columns: the mean of the component *truncated to the
    intersection of the range and the component* (computed from the
    training values assigned to the component — the same empirical view
    Theorem 5.1 uses, so SUM inherits its unbiasedness);
- ``AVG = SUM / COUNT`` from the same samples.

If the target column is unqueried it is still sampled (its conditional
expectation depends on the queried prefix), with range = full domain.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.ar.progressive import ProgressiveSampler, SlotConstraint
from repro.core.model import IAM
from repro.errors import QueryError
from repro.query.predicate import Op, Predicate
from repro.query.query import Query
from repro.reducers.gmm_reducer import GMMReducer
from repro.reducers.identity import IdentityReducer


@dataclass
class AggregateResult:
    """COUNT / SUM / AVG estimates for one range-aggregate query."""

    count: float
    sum: float
    avg: float


class _TokenValueTable:
    """Per-token conditional means of a column within interval unions.

    For identity columns the token IS a value. For GMM columns we store
    the training values per component (sorted, with prefix sums) so the
    truncated mean over any range is two binary searches.
    """

    def __init__(self, reducer, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if isinstance(reducer, IdentityReducer):
            self.kind = "exact"
            self.token_values = reducer.codec.distinct_values
        elif isinstance(reducer, GMMReducer):
            self.kind = "gmm"
            assignment = reducer.transform(values)
            self.sorted_values = []
            self.prefix_sums = []
            for k in range(reducer.n_tokens):
                member = np.sort(values[assignment == k])
                self.sorted_values.append(member)
                self.prefix_sums.append(np.concatenate([[0.0], np.cumsum(member)]))
        else:
            raise QueryError(
                f"aggregates are unsupported over {type(reducer).__name__} columns"
            )

    def conditional_means(self, intervals) -> np.ndarray:
        """(n_tokens,) expected value within the intervals per token.

        Tokens with no mass in the range get 0 (their sampler weight is
        0 there anyway).
        """
        if self.kind == "exact":
            return self.token_values.copy()
        out = np.zeros(len(self.sorted_values))
        for k, (member, prefix) in enumerate(zip(self.sorted_values, self.prefix_sums)):
            if len(member) == 0:
                continue
            total, count = 0.0, 0
            for low, high in intervals:
                lo = np.searchsorted(member, low, side="left")
                hi = np.searchsorted(member, high, side="right")
                total += prefix[hi] - prefix[lo]
                count += hi - lo
            out[k] = total / count if count else 0.0
        return out


class AQPEngine:
    """Range-aggregate answering over a fitted IAM."""

    def __init__(self, model: IAM):
        if model.model is None:
            from repro.errors import NotFittedError

            raise NotFittedError("AQPEngine needs a fitted IAM")
        self.model = model
        self._value_tables: dict[int, _TokenValueTable] = {}

    def _value_table(self, column_index: int) -> _TokenValueTable:
        if column_index not in self._value_tables:
            table = self.model.table
            reducer = self.model.reducers[column_index]
            self._value_tables[column_index] = _TokenValueTable(
                reducer, table.columns[column_index].values
            )
        return self._value_tables[column_index]

    # ------------------------------------------------------------------
    def aggregate(self, target_column: str, query: Query, n_samples: int | None = None) -> AggregateResult:
        """COUNT/SUM/AVG of ``target_column`` over rows satisfying ``query``."""
        model = self.model
        table = model.table
        if target_column not in table:
            raise QueryError(f"unknown target column {target_column!r}")
        target_index = table.column_names.index(target_column)

        # The target column must be sampled even when unqueried: a
        # full-domain predicate on it adds exactly that constraint.
        if target_column not in query.columns:
            column = table[target_column]
            query = Query([*query.predicates, Predicate(target_column, Op.GE, column.min)])
        target_intervals = list(query.constraints(table)[target_column].intervals)
        means = self._value_table(target_index).conditional_means(target_intervals)

        inference = model._require_inference()
        (constraints,) = inference.constraints([query])
        sum_constraints = list(constraints)
        base = sum_constraints[target_index]
        sum_constraints[target_index] = SlotConstraint(
            mass=base.mass,
            per_sample=base.per_sample,
            scale=lambda tokens: means[tokens],
        )
        # One call, two copies of one generator: the COUNT pass and the
        # SUM pass (the value factor) follow identical sample paths, so
        # AVG = SUM/COUNT is a ratio estimator over common randomness.
        (rng,) = inference.sampler.child_rngs(1)
        sampler = ProgressiveSampler(
            inference.sampler.plan,
            n_samples=n_samples or model.config.n_progressive_samples,
        )
        weights = sampler.sample_weights(
            [constraints, sum_constraints], rngs=[rng, copy.deepcopy(rng)]
        )
        sel = max(float(weights[0].mean()), 0.0)
        expected = float(weights[1].mean())

        count = sel * table.num_rows
        total = expected * table.num_rows
        avg = total / count if count > 0 else 0.0
        return AggregateResult(count=count, sum=total, avg=avg)

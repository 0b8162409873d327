"""Range-mass caching for GMM-reduced columns.

Theorem 5.1 of the paper estimates the per-component range probability
``P_GMM^k(R_i)`` from ``S`` Monte-Carlo samples drawn **once per
component** — and :class:`~repro.mixtures.interval.MonteCarloIntervalMass`
already draws (and sorts) those samples at ``finalise()`` time.  What the
estimate path still re-pays on every query is the *interval counting*:
two binary searches per (component, interval), repeated even when the
workload asks the same predicate bounds over and over (benchmark
workloads, dashboards, and plan-space exploration all do).

:class:`RangeMassCache` closes that gap with explicit memoization of
repeated predicate bounds, layered per column:

- level 1 caches single-interval masses ``reducer._interval_mass(lo, hi)``
  keyed on the exact float bounds;
- level 2 caches the full union-of-intervals result ``range_mass(R_i)``
  keyed on the canonical interval tuple (what
  :meth:`~repro.query.query.ColumnConstraint.cache_key`-style reuse hits).

Results are bitwise identical to calling ``reducer.range_mass`` directly:
the union is assembled with the same sum-then-clip arithmetic as
:meth:`repro.reducers.base.DomainReducer.range_mass`.

A cache instance belongs to one fitted model generation: the IAM
inference layer builds a fresh one on every ``_refresh_inference()``
(refit, hot reload), so stale masses can never answer for new reducers.
Cached arrays are returned read-only; callers must not mutate them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

Interval = tuple[float, float]

# Beyond this many distinct entries per column the whole column cache is
# dropped (coarse but O(1)); real workloads repeat bounds long before it.
DEFAULT_MAX_ENTRIES_PER_COLUMN = 4096


class RangeMassCache:
    """Memoizes ``P_GMM^k(R_i)`` lookups for a fixed set of reducers.

    One instance per (model generation); ``columns`` maps column name →
    fitted :class:`~repro.reducers.base.DomainReducer`.  Thread-safety:
    reads and writes are plain dict operations guarded by the GIL and the
    serving layer's per-model lock; the cache itself keeps no other
    shared mutable state.

    ``dtype`` is the precision tier of the masses the cache hands out
    (the plan dtype of the sampler consuming them).  The float64 default
    is bitwise-identical to calling the reducers directly; float32 casts
    each memoized mass once at compute time so the sampler's weight
    arithmetic never promotes back to float64 mid-loop.
    """

    def __init__(self, columns: dict[str, object] | None = None,
                 max_entries_per_column: int = DEFAULT_MAX_ENTRIES_PER_COLUMN,
                 dtype=np.float64):
        self._reducers: dict[str, object] = dict(columns or {})
        self.dtype = np.dtype(dtype)
        self._single: dict[str, dict[Interval, np.ndarray]] = {}
        self._union: dict[str, dict[tuple[Interval, ...], np.ndarray]] = {}
        self.max_entries_per_column = max_entries_per_column
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def range_mass_batch(
        self, column: str, interval_sets: Sequence[Sequence[Interval]]
    ) -> list[np.ndarray]:
        """Masses for many queries' interval unions on one column at once.

        Built for the batched constraint builder: one pass canonicalizes
        every request, answers repeats and memoized unions without
        re-deriving them, and computes each distinct missing interval's
        component mass exactly once across the whole batch (shared
        through the level-1 memo).  Entry ``i`` of the returned list is bitwise-equal to
        ``reducer.range_mass(interval_sets[i])``.
        """
        reducer = self._reducers.get(column)
        if reducer is None:
            raise KeyError(f"no reducer registered for column {column!r}")
        keys = [
            tuple((float(low), float(high)) for low, high in intervals)
            for intervals in interval_sets
        ]
        union = self._union.setdefault(column, {})
        results: dict[tuple, np.ndarray] = {}
        pending: list[tuple] = []  # distinct keys to compute, request order
        for key in keys:
            if key in results:
                self.hits += 1  # duplicate within this batch: shared
                continue
            cached = union.get(key)
            if cached is not None:
                self.hits += 1
                results[key] = cached
            else:
                self.misses += 1
                results[key] = None  # placeholder marks it as pending
                pending.append(key)
        base_impl = (
            getattr(type(reducer).range_mass, "__qualname__", "")
            == "DomainReducer.range_mass"
        )
        for key in pending:
            if base_impl:
                # DomainReducer.range_mass's sum-then-clip arithmetic,
                # with each interval's mass pulled through the level-1
                # memo (so an interval shared by queries is counted once).
                total = np.zeros(reducer.n_tokens, dtype=self.dtype)
                for low, high in key:
                    total += self._interval_mass(column, reducer, low, high)
                result = np.clip(total, 0.0, 1.0)
            else:
                result = np.asarray(reducer.range_mass(list(key)), dtype=self.dtype)
            result.setflags(write=False)
            if len(union) >= self.max_entries_per_column:
                union.clear()
                self.evictions += 1
            union[key] = result
            results[key] = result
        return [results[key] for key in keys]

    def _interval_mass(self, column: str, reducer, low: float, high: float) -> np.ndarray:
        singles = self._single.setdefault(column, {})
        cached = singles.get((low, high))
        if cached is not None:
            return cached
        mass = np.asarray(reducer._interval_mass(low, high), dtype=self.dtype)
        mass.setflags(write=False)
        if len(singles) >= self.max_entries_per_column:
            singles.clear()
            self.evictions += 1
        singles[(low, high)] = mass
        return mass

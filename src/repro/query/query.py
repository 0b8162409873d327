"""Conjunctive queries and their per-column interval form.

A :class:`Query` is a conjunction of :class:`Predicate`s (paper
Definition 2.1). For estimation it is *normalised* against a table into a
:class:`ColumnConstraint` per referenced column: the intersection of all
that column's predicates, expressed as a union of disjoint closed
intervals clipped to the column's observed domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.data.table import Table
from repro.errors import QueryError
from repro.query.predicate import Op, Predicate

Interval = tuple[float, float]


def _intersect(a: Sequence[Interval], b: Sequence[Interval]) -> list[Interval]:
    """Intersection of two unions of disjoint sorted intervals."""
    out: list[Interval] = []
    for lo_a, hi_a in a:
        for lo_b, hi_b in b:
            lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
            if lo <= hi:
                out.append((lo, hi))
    return out


@dataclass(frozen=True)
class ColumnConstraint:
    """A union of disjoint closed intervals restricting one column."""

    column: str
    intervals: tuple[Interval, ...]

    @property
    def is_empty(self) -> bool:
        return len(self.intervals) == 0

    @property
    def is_point(self) -> bool:
        return len(self.intervals) == 1 and self.intervals[0][0] == self.intervals[0][1]

    def bounds(self) -> Interval:
        """Hull: (min low, max high). Undefined for empty constraints."""
        if self.is_empty:
            raise QueryError(f"constraint on {self.column!r} is empty")
        return self.intervals[0][0], self.intervals[-1][1]


class Query:
    """A conjunction of predicates over one table's columns."""

    def __init__(self, predicates: Iterable[Predicate]):
        self.predicates: tuple[Predicate, ...] = tuple(predicates)
        if not self.predicates:
            raise QueryError("a query needs at least one predicate")
        self._cache_key: tuple[tuple[str, str, float], ...] | None = None

    def __iter__(self) -> Iterator[Predicate]:
        return iter(self.predicates)

    def __len__(self) -> int:
        return len(self.predicates)

    def __str__(self) -> str:
        return " AND ".join(str(p) for p in self.predicates)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Query({str(self)!r})"

    @property
    def columns(self) -> list[str]:
        """Referenced column names, in first-appearance order."""
        seen: dict[str, None] = {}
        for p in self.predicates:
            seen.setdefault(p.column, None)
        return list(seen)

    # ------------------------------------------------------------------
    def cache_key(self) -> tuple[tuple[str, str, float], ...]:
        """Canonical, hashable identity of this conjunction.

        Predicates are deduplicated and sorted, so two queries with the
        same constraints in any order (or with a predicate repeated)
        produce the same key, while any differing column, operator, or
        bound produces a different one. Used by ``repro.serve`` to key
        the result cache and to derive per-query sampling seeds.

        Memoised: predicates are fixed at construction, and the key is
        recomputed on every hot-path lookup (result cache, seed
        derivation, batch deduplication) otherwise.
        """
        if self._cache_key is None:
            triples = {
                (p.column, p.op.value, float(p.value)) for p in self.predicates
            }
            self._cache_key = tuple(sorted(triples))
        return self._cache_key

    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str | Op, float]]) -> "Query":
        """Convenience constructor: ``[("x", "<=", 3.0), ...]``."""
        return cls(Predicate(c, Op(o) if isinstance(o, str) else o, v) for c, o, v in pairs)

    # ------------------------------------------------------------------
    def constraints(self, table: Table) -> dict[str, ColumnConstraint]:
        """Normalise into per-column interval constraints against a table.

        Each column's predicates are intersected; intervals are clipped to
        the column's observed [min, max] so downstream components can use
        finite bounds.
        """
        per_column: dict[str, list[Interval]] = {}
        for predicate in self.predicates:
            column = table[predicate.column]
            domain = [(column.min, column.max)]
            pieces = predicate.intervals(domain_min=column.min, domain_max=column.max)
            current = per_column.get(predicate.column, domain)
            per_column[predicate.column] = _intersect(current, pieces)
        return {
            name: ColumnConstraint(name, tuple(sorted(intervals)))
            for name, intervals in per_column.items()
        }

    def constraint_map(self, table: Table) -> Mapping[str, tuple[Interval, ...]]:
        """Shorthand: {column: intervals} for estimator front-ends."""
        return {name: c.intervals for name, c in self.constraints(table).items()}

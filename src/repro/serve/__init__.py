"""repro.serve — a concurrent estimation service over fitted estimators.

Layers (each usable on its own):

- :mod:`repro.serve.cache` — LRU+TTL result cache keyed on canonical
  query form;
- :mod:`repro.serve.batcher` — micro-batching so concurrent callers
  share AR forward passes (Section 5.3);
- :mod:`repro.serve.telemetry` — counters and latency percentiles;
- :mod:`repro.serve.service` — the registry/cache/batcher/fallback
  orchestration;
- :mod:`repro.serve.http` — the stdlib JSON-over-HTTP front end
  (``python -m repro.serve`` starts it);
- :mod:`repro.serve.cluster` — multi-process sharded serving over
  zero-copy shared plans: ``ClusterService`` is an
  ``EstimationService`` whose estimates run in worker processes, with
  ``ServeConfig.timeout_ms`` enforced parent-side
  (``python -m repro.serve --workers N``).

See docs/serving.md for architecture and protocol.
"""

from repro.serve.batcher import BatcherStats, MicroBatcher
from repro.serve.cache import CacheStats, QueryCache
from repro.serve.cluster import ClusterConfig, ClusterService
from repro.serve.http import make_server, start_in_background
from repro.serve.service import (
    EstimateResult,
    EstimationService,
    ServeConfig,
    ServedModel,
    query_seed,
)
from repro.serve.telemetry import LatencySeries, Telemetry, TelemetrySnapshot

__all__ = [
    "BatcherStats",
    "CacheStats",
    "ClusterConfig",
    "ClusterService",
    "EstimateResult",
    "EstimationService",
    "LatencySeries",
    "MicroBatcher",
    "QueryCache",
    "ServeConfig",
    "ServedModel",
    "Telemetry",
    "TelemetrySnapshot",
    "make_server",
    "query_seed",
    "start_in_background",
]

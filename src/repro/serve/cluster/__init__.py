"""repro.serve.cluster — multi-process sharded serving.

Publishes each compiled :class:`~repro.runtime.plan.MADEPlan` exactly
once into a named shared-memory segment (:mod:`.shm`) and fans requests
out to a supervised pool of worker processes that map the arrays
zero-copy (:mod:`.pool`).  The public entry point is
:class:`ClusterService`, a subclass of
:class:`~repro.serve.service.EstimationService` that shares its registry
and fallback ladder (``ServeConfig.timeout_ms`` included, enforced
parent-side), so the HTTP front end and CLI work unchanged;
``python -m repro.serve --workers N`` turns it on.  See docs/serving.md
("Scaling out") for the architecture.
"""

from repro.serve.cluster.shm import (
    PlanAttachment,
    PlanPickler,
    PlanSegment,
    PlanUnpickler,
    attach_plan,
    dump_for_worker,
    leaked_segments,
    load_in_worker,
    publish_plan,
)
from repro.serve.cluster.pool import (
    ClusterConfig,
    ClusterService,
    WorkerHandle,
    WorkerPool,
)

__all__ = [
    "ClusterConfig",
    "ClusterService",
    "PlanAttachment",
    "PlanPickler",
    "PlanSegment",
    "PlanUnpickler",
    "WorkerHandle",
    "WorkerPool",
    "attach_plan",
    "dump_for_worker",
    "leaked_segments",
    "load_in_worker",
    "publish_plan",
]

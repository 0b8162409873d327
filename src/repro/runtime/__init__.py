"""repro.runtime: the inference side of the training/inference split.

Training builds and updates models through ``repro.nn`` /
``repro.autodiff``; this package compiles the trained artifacts into
pure-numpy execution form for the query path:

- :func:`~repro.runtime.plan.compile_made` /
  :class:`~repro.runtime.plan.MADEPlan` — a MADE exported to contiguous
  read-only arrays with masks folded into weights, plus a
  :class:`~repro.runtime.plan.Workspace` of reusable scratch buffers;
- :class:`~repro.runtime.gmm.RangeMassCache` — memoized
  ``P_GMM^k(R_i)`` range masses across queries.
- :class:`~repro.runtime.train.TrainStepExecutor` — the *training*
  counterpart: cached forward/backward tapes, a pooled buffer
  :class:`~repro.runtime.train.Arena`, and fused kernels for the
  Equation-6 loss, bitwise-equivalent to the eager autodiff path (see
  ``docs/training_runtime.md``).

The serving cluster publishes compiled plans to its workers over shared
memory in :mod:`repro.serve.cluster.shm`.

The split is machine-enforced: the ``runtime-tensor-in-inference``
iamlint rule forbids ``autodiff.Tensor`` construction anywhere in this
package (and in the progressive sampler's hot loop).  See
``docs/runtime.md`` for the compile → execute lifecycle.
"""

from repro.runtime.gmm import RangeMassCache
from repro.runtime.plan import MADEPlan, Workspace, compile_made, softmax_inplace
from repro.runtime.train import (
    Arena,
    CompiledGMMLoss,
    CompiledMADELoss,
    TrainStepExecutor,
)

__all__ = [
    "Arena",
    "CompiledGMMLoss",
    "CompiledMADELoss",
    "MADEPlan",
    "RangeMassCache",
    "TrainStepExecutor",
    "Workspace",
    "compile_made",
    "softmax_inplace",
]

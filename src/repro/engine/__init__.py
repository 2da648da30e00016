"""Execution-engine layer: how compiled stencils actually run.

The compile pipeline (:mod:`repro.core.pipeline`) stops at a
:class:`~repro.core.pipeline.CompiledStencil`; this package owns everything
after that:

* :mod:`repro.engine.base` — the ``plan -> gather -> MMA -> assemble``
  step API and the :class:`SweepExecutor` protocol;
* :mod:`repro.engine.single` — :class:`SingleDeviceExecutor` and the one
  single-device stage walk kernels and programs run through, leftover
  sweeps of a non-divisible temporal fusion on an unfused plan;
* :mod:`repro.engine.sharded` — :class:`ShardedExecutor`, domain-decomposed
  execution across N simulated devices with communication-avoiding deep
  halos (exchange once per ``halo_depth`` sweeps) and modelled compute/comm
  overlap, sharing its partition, layout and round loop with the sharded
  program runner, and the one round schedule every sharded path is priced
  and run by (:class:`RoundSchedule` over a :class:`ShardGeometry`, billed
  by :func:`price_schedule`) — bit-identical to the single-device run at
  every depth.
"""

from repro.engine.base import (
    SweepContext,
    SweepExecutor,
    assemble_step,
    gather_step,
    mma_step,
    prepare_sweep,
    run_sweep,
)
from repro.engine.single import SingleDeviceExecutor, leftover_plan
from repro.engine.sharded import (
    RoundBill,
    RoundSchedule,
    ShardedExecutor,
    ShardedRunResult,
    ShardGeometry,
    price_schedule,
)

__all__ = [
    "SweepContext",
    "SweepExecutor",
    "prepare_sweep",
    "gather_step",
    "mma_step",
    "assemble_step",
    "run_sweep",
    "SingleDeviceExecutor",
    "leftover_plan",
    "RoundBill",
    "RoundSchedule",
    "ShardedExecutor",
    "ShardedRunResult",
    "ShardGeometry",
    "price_schedule",
]

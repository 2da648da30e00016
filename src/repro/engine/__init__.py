"""Execution-engine layer: how compiled stencils actually run.

The compile pipeline (:mod:`repro.core.pipeline`) stops at a
:class:`~repro.core.pipeline.CompiledStencil`; this package owns everything
after that:

* :mod:`repro.engine.base` — the ``plan -> gather -> MMA -> assemble``
  step API and the :class:`SweepExecutor` protocol;
* :mod:`repro.engine.single` — :class:`SingleDeviceExecutor`, the original
  one-grid-one-device sweep loop (what ``execute_compiled`` wraps), now with
  cross-sweep utilization aggregation and leftover-sweep support for
  iteration counts not divisible by the temporal-fusion factor;
* :mod:`repro.engine.sharded` — :class:`ShardedExecutor`, domain-decomposed
  execution across N simulated devices with communication-avoiding deep
  halos (exchange once per ``halo_depth`` sweeps), modelled compute/comm
  overlap, and the one round schedule every sharded path is priced and
  run by (:class:`RoundSchedule` over a :class:`ShardGeometry`, billed by
  :func:`price_schedule` for the scheduler and analysis layers and by the
  executors' shared round loop) — bit-identical to the single-device run at
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

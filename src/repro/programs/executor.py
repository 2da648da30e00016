"""Executing a compiled :class:`~repro.programs.compile.ProgramPlan`.

A kernel is a one-stage program, so programs run through the engine's
kernel paths — one per device count — under the execution contract of
:func:`repro.programs.program.run_program_reference`:

* :class:`ProgramRunner` — single device.  The plan lowers to its stages
  repeated once per program step and runs through the engine's stage walk
  (:func:`repro.engine.single.run_stages`), the one
  :class:`repro.engine.SingleDeviceExecutor` runs kernels through: stages
  run in topological order, every tap reads its source halo-filled at the
  tap radius (skipped when the source already carries that fill), tap
  results sum in declaration order, and the stage tensor is halo-filled at
  the stage radius.  A one-tap stage whose source nothing later reads —
  every chain stage — sweeps in place, so a single-stage chain is the
  kernel run, bit for bit.
* :class:`ShardedProgramRunner` — the communication-avoiding machinery
  applied per program *group*.  A uniform-radius chain lowers to one
  :class:`~repro.engine.sharded.ShardStages` per stage and shares the
  kernel's partition, layout key, layout build and round loop
  (:class:`repro.engine.sharded.ShardedRunner`): the partition aligns to
  the per-axis LCM of every stage's layout tiles (so each stage's
  shard-local ``B'`` columns stay bit-identical to its global ones), and
  one halo exchange validates a whole fused group of stages, with stage
  ``j`` of a group sweeping on the shrinking window ``mult = span-1-j``.
  Unfused execution (``fuse=False``) exchanges once per stage — still only
  ``rounds - 1`` exchanges total, because the first round reads the initial
  extraction and nothing reads halos after the final sweep.  The layout is
  keyed by the program fingerprint, the stage names in execution order (the
  fingerprint ignores names, the phase tables and fusion groups do not), the
  round groups, the cluster and the shard grid, and memoized on the runner's
  compile cache, so a warm run compiles and looks up nothing.  It walks
  :meth:`~repro.engine.sharded.RoundSchedule.program` — ``steps`` times the
  fusion groups — under one ``program_step`` span per step.

:func:`model_program` prices that same schedule with
:func:`repro.engine.sharded.price_schedule` (linear window-cell scaling of
each stage's full-grid roofline), so the
:class:`repro.server.scheduler.DevicePoolScheduler` can route programs and
the fusion benchmark can count modelled exchanges without executing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

from repro.core.pipeline import StencilRunResult
# run_sweep, apply_boundary and build_shard_phases run through the engine's
# walks; they stay importable here for callers that instrument this module
from repro.engine.base import prepare_sweep, require_grid, run_sweep  # noqa: F401
from repro.engine.sharded import (  # noqa: F401
    RoundSchedule,
    ShardedRunner,
    ShardedRunResult,
    ShardGeometry,
    ShardStages,
    build_shard_phases,
    price_schedule,
    shard_partition,
)
from repro.engine.single import Block, run_stages
from repro.programs.compile import ProgramPlan
from repro.stencils.boundary import apply_boundary  # noqa: F401
from repro.stencils.grid import Grid
from repro.stencils.partition import GridPartition
from repro.stencils.reference import stencil_points_updated
from repro.tcu.spec import GPUSpec, MultiDeviceSpec
from repro.util.validation import ValidationError, require, require_positive_int

__all__ = [
    "ProgramRunner",
    "ShardedProgramRunner",
    "ProgramCostModel",
    "model_program",
]


def _program_rates(plan: ProgramPlan, steps: int
                   ) -> Tuple[float, Callable[[float], Tuple[float, float]]]:
    """The points ``steps`` program steps update — every tap of every stage
    updates the full interior once per step — and the run's
    ``(GStencil/s, GFlops/s)`` as a function of its elapsed seconds."""
    points = flops = 0.0
    for cstage in plan.stages:
        for _, pattern in cstage.stage.taps:
            tap_points = stencil_points_updated(pattern, plan.grid_shape,
                                                steps)
            points += tap_points
            flops += 2.0 * pattern.points * tap_points

    def rates(elapsed: float) -> Tuple[float, float]:
        if elapsed <= 0:
            return 0.0, 0.0
        return points / elapsed / 1e9, flops / elapsed / 1e9

    return float(points), rates


def _check_run(plan: ProgramPlan, grid: Grid, steps: int) -> None:
    require(isinstance(plan, ProgramPlan),
            f"plan must be a ProgramPlan, got {type(plan).__name__}")
    require_positive_int(steps, "steps")
    require_grid(grid, plan.grid_shape, plan.boundary)


class ProgramRunner:
    """Run a compiled program on one simulated device.

    ``spec`` overrides the device the sweeps are costed on (defaults to the
    device each stage was compiled for).
    """

    def __init__(self, spec: Optional[GPUSpec] = None) -> None:
        self.spec = spec

    def execute(self, plan: ProgramPlan, grid: Grid,
                steps: int) -> StencilRunResult:
        _check_run(plan, grid, steps)
        stages = tuple(
            (cstage.name, tuple((source, prepare_sweep(compiled, self.spec))
                                for (source, _), compiled in zip(
                                    cstage.stage.taps, cstage.compiled)))
            for cstage in plan.stages)
        points, rates = _program_rates(plan, steps)
        return run_stages(
            [Block(stages, steps, plan.program.output)], grid.data,
            plan.boundary, rates,
            step_attrs={"program": plan.program.name},
            iterations=steps,
            overhead_seconds={"program_compile": plan.compile_seconds},
            leftover_sweeps=0,
            points_updated=points,
        )


def _shard_stages(plan: ProgramPlan, fuse: bool) -> ShardStages:
    """A chain program lowered for sharded execution: one stage per program
    stage, grouped by its fusion plan (``fuse``) or one stage per round.
    The program fingerprint pins the stages, wiring, grid, boundary, dtype
    and compile device; the stage names key the phase tables and groups."""
    require(plan.program.is_chain,
            f"sharded execution supports single-tap chain programs only; "
            f"{plan.program.name!r} is a general DAG — run it on the "
            f"single-device program runner")
    require(plan.uniform_radius,
            f"sharded execution needs a uniform stage radius; "
            f"{plan.program.name!r} mixes radii "
            f"{sorted({s.radius for s in plan.stages})}")
    names = tuple(cstage.name for cstage in plan.stages)
    return ShardStages(
        stages=tuple((cstage.name, cstage.compiled[0])
                     for cstage in plan.stages),
        groups=plan.fusion.groups if fuse
        else tuple((name,) for name in names),
        identity=("program", plan.fingerprint, names))


class ShardedProgramRunner(ShardedRunner):
    """Run a compiled chain program sharded across multiple devices.

    Parameters mirror :class:`repro.engine.ShardedExecutor` (``spec`` may be
    a :class:`~repro.tcu.spec.MultiDeviceSpec` or a device count;
    ``shard_grid``, ``cache`` — which also memoizes the run's layout —
    ``max_workers``, ``overlap`` as there);
    ``fuse`` toggles cross-stage fusion — fused groups exchange once per
    group, unfused execution exchanges once per stage.  Only uniform-radius
    chain programs shard; anything else must run on :class:`ProgramRunner`.
    """

    def __init__(self, spec: Union[MultiDeviceSpec, int] = 2,
                 shard_grid: Optional[Sequence[int]] = None,
                 cache=None, max_workers: Optional[int] = None,
                 fuse: bool = True, overlap: bool = True) -> None:
        super().__init__(spec, shard_grid, cache, max_workers, overlap)
        self.fuse = bool(fuse)

    def _stages(self, plan: ProgramPlan) -> ShardStages:
        return _shard_stages(plan, self.fuse)

    def partition(self, plan: ProgramPlan
                  ) -> Tuple[GridPartition, Tuple[Tuple[str, ...], ...]]:
        """The common partition and the round groups.

        With a cache they are read from the memoized layout — free after a
        run, and a miss builds (and memoizes) the whole layout; without
        one they are computed afresh.
        """
        stages = self._stages(plan)
        if self.cache is None:
            return self._partition(stages)
        layout = self._lookup(stages)[1]
        return layout.partition, layout.groups

    def execute(self, plan: ProgramPlan, grid: Grid,
                steps: int) -> ShardedRunResult:
        _check_run(plan, grid, steps)
        spec, layout, shard_compile_seconds = self._fetch_layout(
            self._stages(plan), stages=plan.stage_count)
        points, rates = _program_rates(plan, steps)
        schedule = RoundSchedule.program(layout.groups, steps)
        return self._run_schedule(
            layout, schedule, grid.data, rates,
            step_attrs={"program": plan.program.name,
                        "groups": len(layout.groups)},
            iterations=steps,
            overhead_seconds={"program_compile": plan.compile_seconds,
                              "shard_compile": shard_compile_seconds},
            sweeps=schedule.sweeps,
            points_updated=points,
            device_count=spec.device_count,
        )


@dataclass(frozen=True)
class ProgramCostModel:
    """Modelled cost of running one program for ``steps`` steps.

    ``sharded_seconds`` is ``None`` when the program cannot shard (not a
    uniform-radius chain, or the geometry rejects the partition) — the
    ``reason`` says why.  ``exchange_count`` is the *modelled* number of
    halo exchanges of the whole run; comparing ``fuse=True`` against
    ``fuse=False`` shows exactly how many exchanges fusion removes.
    """

    steps: int
    devices: int
    fused: bool
    groups: Tuple[Tuple[str, ...], ...]
    halo_depth: int
    single_seconds: float
    sharded_seconds: Optional[float]
    exchange_count: int
    halo_seconds: float
    exposed_seconds: float
    reason: str

    @property
    def exchanges_per_step(self) -> float:
        return self.exchange_count / self.steps if self.steps else 0.0

    @property
    def speedup(self) -> float:
        """Modelled single over sharded wall time (0 when unshardable)."""
        if not self.sharded_seconds:
            return 0.0
        return self.single_seconds / self.sharded_seconds

    @property
    def recommendation(self) -> str:
        if self.sharded_seconds is not None \
                and self.sharded_seconds < self.single_seconds:
            return "sharded"
        return "single"


def model_program(plan: ProgramPlan, devices: int = 2, steps: int = 1,
                  shard_grid: Optional[Sequence[int]] = None,
                  fuse: bool = True, overlap: bool = True,
                  spec: Optional[MultiDeviceSpec] = None) -> ProgramCostModel:
    """Price ``steps`` program steps on one device and on ``devices`` shards.

    The sharded estimate prices the exact round schedule the runner
    executes (:meth:`~repro.engine.sharded.RoundSchedule.program`) with
    :func:`~repro.engine.sharded.price_schedule`, each stage's full-grid
    modelled sweep time scaled linearly by its window's share of the output
    cells — the compile-free estimate the scheduler also prices plain
    kernels with.
    """
    require_positive_int(steps, "steps")
    single_seconds = plan.single_step_seconds * steps
    if spec is not None:
        devices = spec.device_count

    def unsharded(reason: str) -> ProgramCostModel:
        return ProgramCostModel(
            steps=steps, devices=devices, fused=False,
            groups=tuple((name,) for name in plan.program.stage_names),
            halo_depth=1, single_seconds=single_seconds,
            sharded_seconds=None, exchange_count=0, halo_seconds=0.0,
            exposed_seconds=0.0, reason=reason)

    if devices <= 1:
        return unsharded("a single device has nothing to shard over")
    try:
        partition, groups = shard_partition(
            _shard_stages(plan, fuse),
            shard_grid if shard_grid is not None else devices)
    except ValidationError as error:
        return unsharded(str(error))
    if partition.n_shards <= 1:
        return unsharded("the partition degenerates to one shard")

    if spec is None:
        spec = MultiDeviceSpec(device=plan.stages[0].compiled[0].spec,
                               device_count=devices)
    geometry = ShardGeometry.build(partition, spec, plan.dtype.itemsize)
    bill = price_schedule(
        RoundSchedule.program(groups, steps), geometry,
        {cstage.name: geometry.linear_seconds(cstage.sweep_seconds)
         for cstage in plan.stages}, overlap)
    depth = partition.halo_depth
    return ProgramCostModel(
        steps=steps,
        devices=devices,
        fused=any(len(group) > 1 for group in groups),
        groups=groups,
        halo_depth=depth,
        single_seconds=single_seconds,
        sharded_seconds=bill.wall_seconds,
        exchange_count=bill.exchange_count,
        halo_seconds=bill.halo_seconds,
        exposed_seconds=bill.exposed_seconds,
        reason=f"{len(groups)} group(s) per step, depth {depth}, "
               f"{bill.exchange_count} exchange(s) over {steps} step(s)",
    )

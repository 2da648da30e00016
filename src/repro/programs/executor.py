"""Executing a compiled :class:`~repro.programs.compile.ProgramPlan`.

Two runners share the execution contract of
:func:`repro.programs.program.run_program_reference`:

* :class:`ProgramRunner` — single device.  Stages run in topological order
  through the engine step API; every tap reads a halo-filled copy of its
  source tensor, tap results sum in declaration order, and the stage tensor
  is halo-filled at the stage radius.  Because a boundary fill at radius
  ``r`` is idempotent over a tensor already filled at ``r``, redundant tap
  fills are skipped — a uniform-radius chain performs exactly one fill per
  stage (one per program *step* for a single-stage program), and for a
  single-stage chain the bits match :class:`repro.engine.SingleDeviceExecutor`
  exactly.
* :class:`ShardedProgramRunner` — the PR 7 communication-avoiding machinery
  applied per program *group* instead of per kernel.  Uniform-radius chain
  programs partition once (tiles aligned to the per-axis LCM of every
  stage's layout tiles, so each stage's shard-local ``B'`` columns stay
  bit-identical to its global ones) and execute a flattened round schedule:
  one halo exchange validates a whole fused group of stages, with stage
  ``j`` of a group sweeping on the shrinking window ``mult = span-1-j``.
  Unfused execution (``fuse=False``) keeps the shard-locals resident across
  the entire run and exchanges once per stage — still only
  ``rounds - 1`` exchanges total, because the first round reads the initial
  extraction and nothing reads halos after the final sweep.  The partition,
  round groups and per-stage phase tables form one
  :class:`~repro.engine.sharded.ShardLayout`, built once per layout key —
  the program fingerprint, the stage names in execution order (the
  fingerprint ignores names, the phase tables and fusion groups do not),
  the cluster device and link, the shard grid and ``fuse`` — and memoized on
  the runner's compile cache, so a warm run compiles and looks up nothing.

:class:`ShardedProgramRunner` executes through the same round loop as
:class:`repro.engine.ShardedExecutor`
(:meth:`repro.engine.sharded.ShardedRunner._run_schedule`), walking
:meth:`~repro.engine.sharded.RoundSchedule.program` — ``steps`` times the
fusion groups — under one ``program_step`` span per step.
:func:`model_program` prices that same schedule with
:func:`repro.engine.sharded.price_schedule` (linear window-cell scaling of
each stage's full-grid roofline), so the
:class:`repro.server.scheduler.DevicePoolScheduler` can route programs and
the fusion benchmark can count modelled exchanges without executing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.morphing import MorphConfig
from repro.core.pipeline import StencilRunResult
from repro.engine.base import (billed_launch, prepare_sweep, run_sweep,
                               summarize_launches)
from repro.engine.sharded import (
    RoundSchedule,
    ShardedRunner,
    ShardedRunResult,
    ShardGeometry,
    ShardLayout,
    build_shard_phases,
    price_schedule,
)
from repro.obs.trace import current_span
from repro.programs.compile import ProgramPlan
from repro.programs.program import STATE
from repro.stencils.boundary import apply_boundary
from repro.stencils.grid import Grid
from repro.stencils.partition import GridPartition
from repro.stencils.reference import stencil_points_updated
from repro.tcu.executor import LaunchResult
from repro.tcu.spec import GPUSpec, MultiDeviceSpec, device_key
from repro.util.validation import ValidationError, require, require_positive_int

__all__ = [
    "ProgramRunner",
    "ShardedProgramRunner",
    "ProgramCostModel",
    "model_program",
]


def _program_throughput(plan: ProgramPlan, steps: int) -> Tuple[float, float]:
    """``(points, flops)`` of ``steps`` program steps: every tap of every
    stage updates the full interior once per step."""
    points = flops = 0.0
    for cstage in plan.stages:
        for _, pattern in cstage.stage.taps:
            tap_points = stencil_points_updated(pattern, plan.grid_shape,
                                                steps)
            points += tap_points
            flops += 2.0 * pattern.points * tap_points
    return float(points), float(flops)


def _check_run(plan: ProgramPlan, grid: Grid, steps: int) -> None:
    require(isinstance(plan, ProgramPlan),
            f"plan must be a ProgramPlan, got {type(plan).__name__}")
    require_positive_int(steps, "steps")
    require(tuple(grid.shape) == plan.grid_shape,
            f"grid shape {tuple(grid.shape)} does not match the compiled "
            f"program shape {plan.grid_shape}")
    require(grid.boundary == plan.boundary,
            f"grid boundary {grid.boundary!r} does not match the compiled "
            f"program boundary {plan.boundary!r} — recompile for this grid")


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
        program = plan.program
        boundary = plan.boundary
        shape = plan.grid_shape
        contexts = {
            cstage.name: tuple(prepare_sweep(compiled, self.spec)
                               for compiled in cstage.compiled)
            for cstage in plan.stages
        }

        trace = current_span()
        tracer = trace.tracer if trace is not None else None

        state = grid.data.copy()
        launches: List[LaunchResult] = []
        # boundary-fill radius each tensor currently carries; a fill is
        # idempotent at the *same* radius (ghost layer d is a pure per-layer
        # function of interior layer d), so equal-radius tap fills are
        # skipped — but a *different* radius re-fills, exactly like the
        # reference
        state_filled: Optional[int] = None
        for step in range(steps):
            step_span = tracer.begin(
                "program_step", parent=trace, step=step,
                program=program.name) if tracer is not None else None
            tensors: Dict[str, np.ndarray] = {STATE: state}
            filled: Dict[str, Optional[int]] = {STATE: state_filled}
            step_device = 0.0
            for cstage in plan.stages:
                stage = cstage.stage
                stage_radius = stage.radius
                interior = tuple(slice(stage_radius, s - stage_radius)
                                 for s in shape)
                stage_start = time.perf_counter()
                stage_device = 0.0
                acc: Optional[np.ndarray] = None
                for (source, pattern), context in zip(
                        stage.taps, contexts[cstage.name]):
                    data = tensors[source].copy()
                    # a radius-0 tap (e.g. an identity term of a multi-tap
                    # stage) reads no ghost cells and needs no fill
                    if pattern.radius > 0 \
                            and filled.get(source) != pattern.radius:
                        apply_boundary(data, pattern.radius, boundary)
                    launch = run_sweep(context, data)
                    launches.append(billed_launch(launch))
                    stage_device += launch.elapsed_seconds
                    term = data[interior]
                    acc = term if acc is None else acc + term
                out = tensors[stage.taps[0][0]].copy()
                out[interior] = acc
                if stage_radius > 0:
                    apply_boundary(out, stage_radius, boundary)
                tensors[cstage.name] = out
                filled[cstage.name] = stage_radius
                step_device += stage_device
                if tracer is not None:
                    tracer.record("stage", stage_start, time.perf_counter(),
                                  parent=step_span, stage=cstage.name,
                                  device_seconds=stage_device,
                                  taps=len(stage.taps))
            state = tensors[program.output]
            state_filled = filled[program.output]
            if tracer is not None and step_span is not None:
                step_span.add_device_seconds(step_device)
                tracer.end(step_span)

        totals = summarize_launches(launches)
        points, flops = _program_throughput(plan, steps)
        elapsed = totals.elapsed_seconds
        gstencil = points / elapsed / 1e9 if elapsed > 0 else 0.0
        gflops = flops / elapsed / 1e9 if elapsed > 0 else 0.0
        return StencilRunResult(
            output=state,
            iterations=steps,
            elapsed_seconds=elapsed,
            compute_seconds=totals.compute_seconds,
            memory_seconds=totals.memory_seconds,
            gstencil_per_second=gstencil,
            gflops_per_second=gflops,
            utilization=totals.utilization,
            overhead_seconds={"program_compile": plan.compile_seconds},
            sweeps=len(launches),
            leftover_sweeps=0,
            points_updated=points,
        )


def _program_alignment(plan: ProgramPlan) -> Tuple[int, ...]:
    """Per-axis LCM of every stage's layout tile extents.

    Partition chunks aligned to this are tile-congruent for *every* stage's
    ``(r1, r2)`` layout at once, which is what keeps each stage's
    shard-local ``B'`` columns bit-identical to its global plan's.
    """
    ndim = len(plan.grid_shape)
    align = [1] * ndim
    for cstage in plan.stages:
        for compiled in cstage.compiled:
            config = compiled.plan.config
            pattern = compiled.pattern
            require(
                MorphConfig.from_r1_r2(pattern.ndim, config.r1, config.r2)
                == config,
                f"stage {cstage.name!r} layout config {config.r} is not "
                f"expressible as (r1, r2) — sharded program execution "
                f"supports the standard morph layouts only")
            for axis, extent in enumerate(config.r):
                align[axis] = math.lcm(align[axis], int(extent))
    return tuple(align)


def _check_shardable(plan: ProgramPlan) -> None:
    require(plan.program.is_chain,
            f"sharded execution supports single-tap chain programs only; "
            f"{plan.program.name!r} is a general DAG — run it on the "
            f"single-device program runner")
    require(plan.uniform_radius,
            f"sharded execution needs a uniform stage radius; "
            f"{plan.program.name!r} mixes radii "
            f"{sorted({s.radius for s in plan.stages})}")


def _program_partition(plan: ProgramPlan, shard_grid, fuse: bool
                       ) -> Tuple[GridPartition, Tuple[Tuple[str, ...], ...]]:
    """The common partition plus the round groups (stage names per round).

    Fused groups come from the compile-time :class:`FusionPlan`, re-chunked
    to the deepest halo the geometry supports; ``fuse=False`` degrades to
    singleton groups on a classic depth-1 partition (one exchange per
    stage).  The partition's ``halo_depth`` is the longest group's span.
    """
    _check_shardable(plan)
    radius = plan.radius
    align = _program_alignment(plan)
    cap = GridPartition.max_halo_depth(plan.grid_shape, radius, shard_grid,
                                       align=align, boundary=plan.boundary)
    if fuse:
        groups = plan.fusion.bounded(cap)
    else:
        groups = tuple((name,) for name in plan.program.stage_names)
    depth = max(len(group) for group in groups)
    partition = GridPartition.build(plan.grid_shape, radius, shard_grid,
                                    align=align, boundary=plan.boundary,
                                    halo_depth=depth)
    return partition, groups


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

    def resolve_spec(self, plan: ProgramPlan) -> MultiDeviceSpec:
        return self._cluster(plan.stages[0].compiled[0].spec)

    def partition(self, plan: ProgramPlan
                  ) -> Tuple[GridPartition, Tuple[Tuple[str, ...], ...]]:
        """The common partition and the round groups.

        With a cache they are read from the memoized layout — free after a
        run, and a miss builds (and memoizes) the whole layout; without
        one they are computed afresh.
        """
        if self.cache is None:
            return self._partition(plan)
        layout = self.layout(plan)
        return layout.partition, layout.groups

    def _partition(self, plan: ProgramPlan
                   ) -> Tuple[GridPartition, Tuple[Tuple[str, ...], ...]]:
        shard_grid = self.shard_grid if self.shard_grid is not None \
            else self._device_count
        partition, groups = _program_partition(plan, shard_grid, self.fuse)
        return self._check_fits(partition), groups

    def _layout_key(self, plan: ProgramPlan,
                    spec: MultiDeviceSpec) -> Tuple[Any, ...]:
        """Every input :meth:`_build_layout` reads.  The fingerprint pins
        the stages, wiring, grid, boundary, dtype and compile device; the
        stage names key the phase tables and fusion groups, and the cluster
        device prices every window plan."""
        return ("program", plan.fingerprint,
                tuple(cstage.name for cstage in plan.stages),
                device_key(spec.device), spec.device_count,
                spec.interconnect_bandwidth_gbs, spec.link_latency_seconds,
                self.shard_grid, self.fuse)

    def _build_layout(self, plan: ProgramPlan,
                      spec: MultiDeviceSpec) -> ShardLayout:
        """Partition, group and compile every stage's window plans (a memo
        miss)."""
        from repro.service.cache import CompileCache

        partition, groups = self._partition(plan)
        cache = self.cache
        if cache is None:
            cache = CompileCache(capacity=max(
                8, partition.n_shards * partition.halo_depth
                * plan.stage_count))
        phases = {
            cstage.name: build_shard_phases(cstage.compiled[0], spec,
                                            partition, cache=cache,
                                            max_workers=self.max_workers)
            for cstage in plan.stages
        }
        return ShardLayout(
            partition=partition, groups=groups, phases=phases,
            geometry=ShardGeometry.build(partition, spec,
                                         plan.dtype.itemsize))

    def execute(self, plan: ProgramPlan, grid: Grid,
                steps: int) -> ShardedRunResult:
        _check_run(plan, grid, steps)
        spec, layout, shard_compile_seconds = self._fetch_layout(
            plan, stages=plan.stage_count)
        points, flops = _program_throughput(plan, steps)
        schedule = RoundSchedule.program(layout.groups, steps)
        return self._run_schedule(
            layout, schedule, grid.data,
            lambda elapsed: (points / elapsed / 1e9, flops / elapsed / 1e9)
            if elapsed > 0 else (0.0, 0.0),
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
        _check_shardable(plan)
        partition, groups = _program_partition(
            plan, shard_grid if shard_grid is not None else devices, fuse)
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

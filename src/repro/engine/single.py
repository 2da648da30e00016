"""Single-device executor: the original ``run_stencil`` loop as an engine.

This is the behaviour the monolithic loop in :mod:`repro.core.pipeline` used
to implement, expressed through the step API of :mod:`repro.engine.base`,
plus two fixes the step structure makes natural:

* utilization is aggregated across *all* sweeps (time-weighted) instead of
  keeping only the last sweep's report;
* ``iterations`` that are not a multiple of the temporal-fusion factor run
  the ``leftover`` plain sweeps :func:`repro.core.fusion.fused_iterations`
  already computes, with a plan compiled for the unfused pattern, instead of
  raising.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

from repro.core.fusion import fused_iterations
from repro.core.pipeline import (
    CompiledStencil,
    StencilRunResult,
    compile_cached,
)
from repro.engine.base import (
    billed_launch,
    original_points,
    prepare_sweep,
    run_sweep,
    summarize_launches,
    throughput_metrics,
)
from repro.obs.trace import current_span
from repro.stencils.boundary import apply_boundary
from repro.stencils.grid import Grid
from repro.tcu.executor import LaunchResult
from repro.tcu.spec import GPUSpec
from repro.util.validation import require, require_positive_int

__all__ = ["SingleDeviceExecutor", "leftover_plan"]

#: Serialises uncached leftover-plan compiles: concurrent executors sharing
#: one CompiledStencil (the batch service reuses plans across requests) must
#: not each pay the layout search for the same memo slot.
_LEFTOVER_MEMO_LOCK = threading.Lock()


def leftover_plan(compiled: CompiledStencil, cache=None) -> CompiledStencil:
    """Compile the *unfused* companion plan of a temporally fused stencil.

    The plan targets the same grid, device, precision, engine and fragment as
    ``compiled`` but implements a single time step of the original pattern —
    what the leftover sweeps of a non-divisible iteration count execute.
    ``cache`` (a :class:`repro.service.CompileCache`) shares the plan across
    compiled stencils; without one, the plan is memoised on ``compiled``
    itself so repeated runs of the same stencil still compile it only once.
    """
    require(compiled.temporal_fusion > 1,
            "leftover_plan only applies to temporally fused stencils")
    kwargs = dict(
        dtype=compiled.plan.dtype,
        spec=compiled.spec,
        engine=compiled.engine,
        fragment=compiled.plan.fragment,
        search=True,
        temporal_fusion=1,
        conversion_method=compiled.conversion_method,
        boundary=compiled.boundary,
        backend=compiled.backend,
    )
    if cache is not None:
        # the cache's own per-fingerprint locks dedupe concurrent compiles
        return compile_cached(compiled.original_pattern, compiled.grid_shape,
                              cache=cache, **kwargs)
    with _LEFTOVER_MEMO_LOCK:
        memoised = getattr(compiled, "_leftover_plan", None)
        if memoised is not None:
            return memoised
        plan = compile_cached(compiled.original_pattern, compiled.grid_shape,
                              **kwargs)
        # frozen dataclass: attach the memo without touching dataclass fields
        object.__setattr__(compiled, "_leftover_plan", plan)
        return plan


class SingleDeviceExecutor:
    """Run every sweep of a compiled stencil on one simulated device.

    Parameters
    ----------
    spec:
        Device the sweeps are costed on; defaults to the spec the stencil was
        compiled for.
    cache:
        Optional :class:`repro.service.CompileCache`, used to memoise the
        unfused leftover plan for non-divisible iteration counts.
    """

    def __init__(self, spec: Optional[GPUSpec] = None, cache=None) -> None:
        self.spec = spec
        self.cache = cache

    def execute(self, compiled: CompiledStencil, grid: Grid,
                iterations: int) -> StencilRunResult:
        require_positive_int(iterations, "iterations")
        require(tuple(grid.shape) == compiled.grid_shape,
                f"grid shape {tuple(grid.shape)} does not match the compiled "
                f"shape {compiled.grid_shape}")
        boundary = compiled.boundary
        require(grid.boundary == boundary,
                f"grid boundary {grid.boundary!r} does not match the "
                f"compiled boundary {boundary!r} — recompile for this grid")
        fused_sweeps, leftover = fused_iterations(
            iterations, compiled.temporal_fusion)

        current = grid.data.copy()
        launches: List[LaunchResult] = []

        # One ambient-context check up front: with no trace active the sweep
        # loops run exactly as before (a single None comparison per sweep).
        trace = current_span()
        tracer = trace.tracer if trace is not None else None

        def timed_sweep(context, phase: str, index: int) -> LaunchResult:
            if tracer is None:
                return run_sweep(context, current)
            start = time.perf_counter()
            launch = run_sweep(context, current)
            tracer.record("sweep", start, time.perf_counter(), parent=trace,
                          device_seconds=launch.elapsed_seconds,
                          phase=phase, sweep=index)
            return launch

        # The halo ring follows the boundary condition around every sweep
        # (a no-op under Dirichlet — under periodic / reflect the halo is
        # derived state, not data).  Each phase fills at its own plan's
        # radius on entry and after each sweep: the entry fill makes a
        # mixed fused+leftover run identical to running the fused sweeps
        # and the leftover sweeps as two separate calls (the fill is a
        # pure, idempotent function of the interior).
        if fused_sweeps:
            context = prepare_sweep(compiled, self.spec)
            apply_boundary(current, context.radius, boundary)
            for index in range(fused_sweeps):
                launches.append(billed_launch(
                    timed_sweep(context, "fused", index)))
                apply_boundary(current, context.radius, boundary)
        if leftover:
            context = prepare_sweep(leftover_plan(compiled, self.cache),
                                    self.spec)
            apply_boundary(current, context.radius, boundary)
            for index in range(leftover):
                launches.append(billed_launch(
                    timed_sweep(context, "leftover", index)))
                apply_boundary(current, context.radius, boundary)

        totals = summarize_launches(launches)
        points = original_points(compiled, fused_sweeps, leftover)
        elapsed = totals.elapsed_seconds
        gstencil, gflops = throughput_metrics(compiled, points, elapsed)

        return StencilRunResult(
            output=current,
            iterations=iterations,
            elapsed_seconds=elapsed,
            compute_seconds=totals.compute_seconds,
            memory_seconds=totals.memory_seconds,
            gstencil_per_second=gstencil,
            gflops_per_second=gflops,
            utilization=totals.utilization,
            overhead_seconds=dict(compiled.overhead_seconds),
            sweeps=len(launches),
            leftover_sweeps=leftover,
            points_updated=points,
        )

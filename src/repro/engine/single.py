"""Single-device execution: one stage walk for kernels and programs.

A run is a list of :class:`Block` s, each a list of stages repeated.  A
kernel lowers to its fused plan repeated ``iterations // temporal_fusion``
times, then — compiled only when the division leaves a remainder — the
unfused :func:`leftover_plan` for the leftover sweeps; a program
(:class:`repro.programs.ProgramRunner`) lowers to its stages repeated once
per step.  :func:`run_stages` walks the blocks.  Every tap reads its source
halo-filled at the tap's radius, skipping the fill when the source already
carries one at that radius (a fill is a pure, idempotent function of the
interior).  A one-tap stage whose source nothing later reads — every kernel
sweep, every chain-program stage — sweeps that tensor in place; other taps
sweep a copy and sum their interiors, in declaration order, into a copy of
the first tap's source.  The stage's tensor is then filled at the stage
radius.  The run is billed from its sweeps' launches, utilization weighted
by each launch's modelled seconds.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.core.fusion import fused_iterations
from repro.core.pipeline import CompiledStencil, StencilRunResult
from repro.engine.base import (
    SweepContext,
    billed_launch,
    original_points,
    plan_memo,
    prepare_sweep,
    require_grid,
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

__all__ = ["SingleDeviceExecutor", "leftover_plan", "STATE", "Block",
           "run_stages"]

#: The tensor a run's first stage reads: the grid, or the previous repeat's
#: output.  Programs reserve the name for their state
#: (:data:`repro.programs.STATE`).
STATE = "state"

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
    from repro.service.fingerprint import CompileRequest

    require(compiled.temporal_fusion > 1,
            "leftover_plan only applies to temporally fused stencils")
    # the companion's request is a per-plan fact, fingerprinted once
    request = plan_memo(compiled, "leftover", lambda: CompileRequest.build(
        compiled.original_pattern, compiled.grid_shape,
        dtype=compiled.plan.dtype,
        spec=compiled.spec,
        engine=compiled.engine,
        fragment=compiled.plan.fragment,
        search=True,
        temporal_fusion=1,
        conversion_method=compiled.conversion_method,
        boundary=compiled.boundary,
        backend=compiled.backend,
    ))
    if cache is not None:
        # the cache's own per-fingerprint locks dedupe concurrent compiles
        return cache.get_or_compile(request)
    with _LEFTOVER_MEMO_LOCK:
        return plan_memo(compiled, "leftover_plan", request.compile)


class Block(NamedTuple):
    """``stages`` — each ``(name, ((source, sweep context), ...))``, its
    taps summed into the tensor ``name`` — run ``repeats`` times, each
    repeat handing its ``output`` tensor on as the next one's
    :data:`STATE`."""

    stages: Tuple[Tuple[str, Tuple[Tuple[str, SweepContext], ...]], ...]
    repeats: int
    output: str
    phase: str = ""     #: a kernel block's ``sweep`` span attribute


def run_stages(blocks: Sequence[Block], data: np.ndarray, boundary: str,
               throughput: Callable[[float], Tuple[float, float]], *,
               step_attrs: Optional[Dict[str, Any]] = None,
               **fields: Any) -> StencilRunResult:
    """Run ``blocks`` on a copy of ``data``: the one single-device walk.

    With ``step_attrs`` (a program run) each repeat records a
    ``program_step`` span carrying them, with one ``stage`` span per stage;
    otherwise each sweep records a ``sweep`` span tagged with its block's
    ``phase``.  ``throughput(elapsed)`` gives the run's
    ``(GStencil/s, GFlops/s)`` and ``fields`` the result fields only the
    caller knows.
    """
    # One ambient-context check up front: untraced, the walk reads no clock.
    trace = current_span()
    tracer = trace.tracer if trace is not None else None
    step_spans = tracer is not None and step_attrs is not None
    sweep_spans = tracer is not None and step_attrs is None

    state = data.copy()
    state_filled: Optional[int] = None
    launches: List[LaunchResult] = []
    for block in blocks:
        # walk back from the output, collecting the tensors later stages read
        stages = []
        read_later = {block.output}
        for name, taps in reversed(block.stages):
            radius = max(context.radius for _, context in taps)
            in_place = len(taps) == 1 and taps[0][0] not in read_later
            # None sweeps in place; else the interior copied taps sum over
            interior = None if in_place else tuple(
                slice(radius, s - radius) for s in state.shape)
            stages.append((name, taps, radius, interior))
            read_later.update(source for source, _ in taps)
        stages.reverse()
        for repeat in range(block.repeats):
            step_span = tracer.begin("program_step", parent=trace,
                                     step=repeat, **step_attrs) \
                if step_spans else None
            # each tensor with the fill radius it carries (None: unfilled)
            tensors: Dict[str, Tuple[np.ndarray, Optional[int]]] = {
                STATE: (state, state_filled)}
            step_device = 0.0
            for name, taps, stage_radius, interior in stages:
                if step_spans:
                    stage_start = time.perf_counter()
                    first = len(launches)
                acc: Optional[np.ndarray] = None
                for source, context in taps:
                    current, filled = tensors[source]
                    if interior is not None:
                        current = current.copy()
                    radius = context.radius
                    # a radius-0 tap (an identity term of a multi-tap
                    # stage) reads no ghost cells and needs no fill
                    if radius > 0 and filled != radius:
                        apply_boundary(current, radius, boundary)
                    sweep_start = time.perf_counter() if sweep_spans else 0.0
                    launch = run_sweep(context, current)
                    if sweep_spans:
                        tracer.record("sweep", sweep_start,
                                      time.perf_counter(), parent=trace,
                                      device_seconds=launch.elapsed_seconds,
                                      phase=block.phase, sweep=repeat)
                    launches.append(billed_launch(launch))
                    if interior is not None:
                        term = current[interior]
                        acc = term if acc is None else acc + term
                if interior is not None:
                    current = tensors[taps[0][0]][0].copy()
                    current[interior] = acc
                if stage_radius > 0:
                    apply_boundary(current, stage_radius, boundary)
                tensors[name] = (current, stage_radius)
                if step_spans:
                    stage_device = sum(launch.elapsed_seconds
                                       for launch in launches[first:])
                    step_device += stage_device
                    tracer.record("stage", stage_start, time.perf_counter(),
                                  parent=step_span, stage=name,
                                  device_seconds=stage_device,
                                  taps=len(taps))
            state, state_filled = tensors[block.output]
            if step_span is not None:
                step_span.add_device_seconds(step_device)
                tracer.end(step_span)

    totals = summarize_launches(launches)
    gstencil, gflops = throughput(totals.elapsed_seconds)
    return StencilRunResult(
        output=state,
        elapsed_seconds=totals.elapsed_seconds,
        compute_seconds=totals.compute_seconds,
        memory_seconds=totals.memory_seconds,
        gstencil_per_second=gstencil,
        gflops_per_second=gflops,
        utilization=totals.utilization,
        sweeps=len(launches),
        **fields,
    )


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
                iterations: int, *, tag: Optional[str] = None
                ) -> StencilRunResult:
        require_positive_int(iterations, "iterations")
        require_grid(grid, compiled.grid_shape, compiled.boundary)
        fused, leftover = fused_iterations(iterations,
                                           compiled.temporal_fusion)

        def block(plan: CompiledStencil, repeats: int, phase: str) -> Block:
            taps = ((STATE, prepare_sweep(plan, self.spec)),)
            return Block((("", taps),), repeats, "", phase)

        blocks = [block(compiled, fused, "fused")] if fused else []
        if leftover:
            blocks.append(block(leftover_plan(compiled, self.cache),
                                leftover, "leftover"))
        points = original_points(compiled, fused, leftover)
        return run_stages(
            blocks, grid.data, compiled.boundary,
            functools.partial(throughput_metrics, compiled, points),
            iterations=iterations,
            overhead_seconds=dict(compiled.overhead_seconds),
            leftover_sweeps=leftover,
            points_updated=points,
            tag=tag,
        )

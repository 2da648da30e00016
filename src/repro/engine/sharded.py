"""Sharded multi-device executor: communication-avoiding halo exchange.

The grid's output region is tiled into per-shard subgrids
(:class:`repro.stencils.partition.GridPartition`), one shard per simulated
device.  Each shard gets its own compiled plan — obtained through the
:class:`repro.service.CompileCache`, so shards with equal subgrid shapes
share one fingerprint and compile once — pinned to the *same* layout config
as the reference plan and aligned to its tile extents.  That alignment makes
every shard-local ``B'`` column bit-identical to the corresponding column of
the global ``B'``, which is what lets the sharded run reproduce the
single-device output exactly.

Communication avoidance happens along two axes:

* **Deep halos** (``halo_depth = k``): ghost regions are ``k`` shrink-steps
  wide and halos are exchanged once per *round* of ``k`` sweeps instead of
  once per sweep.  The intervening sweeps run on shrinking windows that
  recompute the ghost zone redundantly — sweep ``j`` of a round extends
  ``(k-1-j)`` steps past the owned interior, so by the round's last sweep
  the valid region has shrunk to exactly the interior.  Because windows
  shrink in tile-congruent steps, the redundant cells recompute *exactly*
  the neighbouring shard's bits and the output stays identical to the
  single-device run.  Locally supplied faces (reflect mirrors, periodic
  self-wraps) are refreshed every sweep, mirroring
  :func:`repro.stencils.boundary.apply_boundary`.
* **Compute/comm overlap**: the sweep immediately after an exchange is
  split into an *interior* phase (cells no exchanged ghost can reach) and a
  *rim* phase (the rest), and the modelled wall time of exchange + sweep
  becomes ``max(interior_compute, halo_exchange) + rim_compute`` — the
  exchange rides under the interior compute instead of serialising with it.

The modelled wall time is the weak-scaling critical path: slowest shard per
sweep plus whatever exchange time the overlap could not hide.

Everything a run derives from (plan, cluster, policy) alone — the
partition with its precomputed exchange ops, the round groups, one
per-window phase table per stage, the per-shard halo seconds and the cell
counts — is a :class:`ShardLayout`.  Layouts are built once per *layout
key* and memoized on the executor's compile cache
(:meth:`repro.service.CompileCache.shard_layout`), so per-window plans are
compiled (or looked up) on a memo miss only and a warm sharded run moves
only data.  The key is content, not identity: for a kernel, the
fingerprint of the pinned full-grid :func:`window_request`, the plan's
layout config, the cluster's device count, interconnect bandwidth and link
latency, and the requested shard grid and halo depth; for a program (see
:mod:`repro.programs.executor`), the program fingerprint, the stage names
in execution order, the cluster device and link, the shard grid and
``fuse``.  Without a cache nothing is memoized.  Hits and misses are
counted as ``engine.shard_layout_hits`` / ``engine.shard_layout_misses`` in
the global metrics registry and tagged ``memo="hit"|"miss"`` on the
``shard_compile`` span, whose duration — also reported as
``overhead_seconds["shard_compile"]`` — is the build on a miss and the
lookup on a hit.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.fusion import fused_iterations
from repro.core.morphing import MorphConfig
from repro.core.pipeline import CompiledStencil, StencilRunResult
from repro.engine.base import (
    SweepContext,
    original_points,
    prepare_sweep,
    run_sweep,
    summarize_launches,
    throughput_metrics,
)
from repro.obs.metrics import global_registry
from repro.obs.trace import current_span
from repro.stencils.boundary import apply_boundary
from repro.stencils.grid import Grid
from repro.stencils.partition import GridPartition
from repro.tcu.counters import UtilizationReport, combine_utilization
from repro.tcu.executor import LaunchResult
from repro.tcu.spec import GPUSpec, MultiDeviceSpec
from repro.util.parallel import default_workers, parallel_map
from repro.util.validation import require, require_positive_int

__all__ = ["ShardedExecutor", "ShardedRunResult", "HaloRoundModel",
           "model_round", "model_schedule", "window_plan_seconds",
           "window_request", "build_shard_phases", "run_shard_phase"]


def window_request(compiled: CompiledStencil, device, shape: Tuple[int, ...]):
    """The compile request for one shard window: the global plan's layout
    (``r1``/``r2`` pinned, no search) at the window's shape — the pinning
    that makes shard-local tiles bit-identical to the global ones."""
    from repro.service.fingerprint import CompileRequest

    config = compiled.plan.config
    return CompileRequest.build(
        compiled.original_pattern, shape,
        dtype=compiled.plan.dtype,
        spec=device,
        engine=compiled.engine,
        fragment=compiled.plan.fragment,
        search=False,
        r1=config.r1,
        r2=config.r2,
        temporal_fusion=compiled.temporal_fusion,
        conversion_method=compiled.conversion_method,
        boundary=compiled.boundary,
        backend=compiled.backend,
    )


def window_plan_seconds(compiled: CompiledStencil, spec: MultiDeviceSpec,
                        partition: GridPartition, cache=None,
                        max_workers: Optional[int] = None
                        ) -> List[List[float]]:
    """Per-``(shard, mult)`` modelled sweep seconds from each window's own
    compiled roofline estimate.

    This is exactly what the executor bills per window sweep
    (``max(t_compute, t_memory)`` of the window plan), so feeding the
    result into :func:`model_round` makes the analytic round prediction
    match the measured modelled timeline instead of assuming compute scales
    linearly with window cells.  Plans go through ``cache`` — share the
    executor's cache and the later run compiles nothing new.
    """
    from repro.service.cache import CompileCache

    if cache is None:
        cache = CompileCache(
            capacity=max(8, partition.n_shards * partition.halo_depth))
    shapes = [[tuple(s.stop - s.start for s in partition.window(shard, mult))
               for mult in range(partition.halo_depth)]
              for shard in partition.shards]
    distinct = {}
    for rows in shapes:
        for shape in rows:
            request = window_request(compiled, spec.device, shape)
            distinct.setdefault(shape, request)
    parallel_map(cache.get_or_compile, list(distinct.values()),
                 max_workers=max_workers)
    seconds = {
        shape: cache.get_or_compile(request).plan.estimate.t_total
        for shape, request in distinct.items()
    }
    return [[seconds[shape] for shape in rows] for rows in shapes]


@dataclass(frozen=True)
class ShardedRunResult(StencilRunResult):
    """A :class:`StencilRunResult` plus the multi-device execution picture.

    ``elapsed_seconds`` is the modelled *wall* time of the cluster (critical
    shard per sweep plus the exchange time the overlap could not hide);
    ``compute_seconds`` and ``memory_seconds`` are the same critical-path
    decomposition.  Per-shard device time and utilization are kept so the
    analysis layer can report load balance and scaling efficiency.

    ``halo_exchange_seconds`` is the total modelled interconnect time of all
    exchanges; ``halo_exposed_seconds`` is the part that actually extended
    the wall clock (with overlap enabled the interior compute hides the
    rest).  ``redundant_points_updated`` counts the ghost-zone stencil
    updates deep halos recompute instead of communicating.
    """

    shard_grid: Tuple[int, ...] = ()
    device_count: int = 1
    shard_elapsed_seconds: Tuple[float, ...] = ()
    shard_utilization: Tuple[UtilizationReport, ...] = ()
    halo_exchange_bytes: float = 0.0
    halo_exchange_seconds: float = 0.0
    halo_exposed_seconds: float = 0.0
    halo_exchange_count: int = 0
    halo_depth: int = 1
    overlap: bool = True
    redundant_points_updated: float = 0.0
    device_traffic_bytes: float = 0.0

    @property
    def n_shards(self) -> int:
        return len(self.shard_elapsed_seconds)

    @property
    def halo_traffic_fraction(self) -> float:
        """Share of the modelled wall time *exposed* to halo exchange.

        This is the communication cost that actually hurts: exchange time
        the interior compute could not hide (all of it when overlap is
        disabled).  The byte-level view lives in :attr:`halo_bytes_fraction`.
        """
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.halo_exposed_seconds / self.elapsed_seconds

    @property
    def halo_bytes_fraction(self) -> float:
        """Share of all modelled byte movement that was halo exchange."""
        total = self.halo_exchange_bytes + self.device_traffic_bytes
        return self.halo_exchange_bytes / total if total > 0 else 0.0

    @property
    def redundant_compute_fraction(self) -> float:
        """Share of all stencil updates that were redundant ghost-zone
        recompute (the price of deep halos)."""
        total = self.points_updated + self.redundant_points_updated
        return self.redundant_points_updated / total if total > 0 else 0.0

    @property
    def load_balance(self) -> float:
        """Fastest over slowest shard device time (1.0 = perfectly balanced)."""
        if not self.shard_elapsed_seconds:
            return 1.0
        slowest = max(self.shard_elapsed_seconds)
        return min(self.shard_elapsed_seconds) / slowest if slowest > 0 else 1.0


@dataclass(frozen=True)
class _ShardPhase:
    """Per-(shard, window-mult) sweep state: the compiled context plus the
    precomputed window geometry."""

    context: SweepContext
    window: Tuple[slice, ...]
    writeback: Tuple[slice, ...]
    whole: bool                 #: window covers the entire local array
    out_cells: int              #: outputs this window computes
    dram_bytes: float           #: modelled DRAM traffic of one sweep


def _interior_cells(partition: GridPartition, shard) -> int:
    """Owned cells no freshly exchanged ghost value can reach in one sweep
    (the overlap's interior phase — everything else is rim)."""
    faces = partition.exchanged_faces(shard)
    radius = partition.radius
    cells = 1
    for axis, extent in enumerate(shard.out_shape):
        trim = sum(radius for f in faces if f[0] == axis)
        cells *= max(0, extent - trim)
    return cells


def build_shard_phases(compiled: CompiledStencil, spec: MultiDeviceSpec,
                       partition: GridPartition, cache=None,
                       max_workers: Optional[int] = None
                       ) -> List[List[_ShardPhase]]:
    """Compile (or fetch) one plan per (shard, window size), pinned to the
    global layout.

    Plans go through the compile cache keyed by the canonical fingerprint,
    so the typical partition — interior shards all the same shape, edge
    shards sharing a handful of remainder shapes, window shapes repeating
    across shards — compiles each distinct shape exactly once.  Shared by
    :class:`ShardedExecutor` and the program runner in
    :mod:`repro.programs.executor`, which builds one phase table per stage
    over a common partition.  Both call it only when building a
    :class:`ShardLayout` — once per layout key, not once per run.
    """
    from repro.service.cache import CompileCache

    if cache is None:
        cache = CompileCache(
            capacity=max(8, partition.n_shards * partition.halo_depth))

    def request_for(shape: Tuple[int, ...]):
        return window_request(compiled, spec.device, shape)

    geometry = []       # (shard, mult) -> window/writeback/shape
    requests = {}
    for shard in partition.shards:
        rows = []
        for mult in range(partition.halo_depth):
            window = partition.window(shard, mult)
            shape = tuple(s.stop - s.start for s in window)
            whole = shape == shard.subgrid_shape and all(
                s.start == 0 for s in window)
            rows.append((window, shape, whole))
            request = request_for(shape)
            requests.setdefault(request.fingerprint, request)
        geometry.append(rows)
    parallel_map(cache.get_or_compile, list(requests.values()),
                 max_workers=max_workers)

    phases: List[List[_ShardPhase]] = []
    for shard, rows in zip(partition.shards, geometry):
        shard_rows = []
        for mult, (window, shape, whole) in enumerate(rows):
            plan = cache.get_or_compile(request_for(shape))
            context = prepare_sweep(plan, spec.device)
            traffic = plan.plan.estimate.traffic
            shard_rows.append(_ShardPhase(
                context=context,
                window=window,
                writeback=partition.window_writeback(shard, mult),
                whole=whole,
                out_cells=math.prod(
                    partition.window_out_shape(shard, mult)),
                dram_bytes=float(traffic.global_bytes
                                 + traffic.metadata_bytes
                                 + traffic.lut_bytes),
            ))
        phases.append(shard_rows)
    return phases


def run_shard_phase(phase: _ShardPhase, local: np.ndarray,
                    radius: int) -> LaunchResult:
    """One shard sweep on its current window.

    A whole-array window runs in place (the classic ``halo_depth=1``
    path).  A shrunken window is copied to a contiguous buffer — shard
    plans index C-contiguous storage — swept there, and its computed
    outputs written back; the window's input ring is read-only and never
    written back.
    """
    if phase.whole:
        return run_sweep(phase.context, local)
    buffer = np.ascontiguousarray(local[phase.window])
    result = run_sweep(phase.context, buffer)
    local[phase.writeback] = buffer[tuple(
        slice(radius, s - radius) for s in buffer.shape)]
    return result


@dataclass(frozen=True)
class ShardLayout:
    """Everything a sharded run derives from (plan, cluster, policy) alone.

    Built by :func:`build_layout` on a memo miss and shared read-only by
    every later run with the same layout key, including concurrent ones.
    The partition keeps its precomputed exchange ops from run to run.
    """

    partition: GridPartition
    #: stage names per round of a program step; ``()`` for a kernel, whose
    #: rounds are up to ``halo_depth`` sweeps of its one stage
    groups: Tuple[Tuple[str, ...], ...]
    #: per-stage ``[shard][window mult]`` phase tables; a kernel's one
    #: stage is keyed ``""``
    phases: Dict[str, List[List[_ShardPhase]]]
    shard_halo_seconds: Tuple[float, ...]   #: modelled receive time per shard
    halo_seconds_per_exchange: float        #: the slowest shard's
    interior_cells: Tuple[int, ...]         #: see :func:`_interior_cells`
    owned_cells: Tuple[int, ...]


def build_layout(partition: GridPartition,
                 phases: Dict[str, List[List[_ShardPhase]]],
                 spec: MultiDeviceSpec, itemsize: int,
                 groups: Tuple[Tuple[str, ...], ...] = ()) -> ShardLayout:
    """Derive the halo and cell counts of ``partition`` and bundle them with
    the phase tables into one :class:`ShardLayout`."""
    shard_halo_seconds = tuple(
        spec.exchange_seconds(elements * itemsize, messages)
        for elements, messages in zip(partition.received_elements_per_shard(),
                                      partition.messages_per_shard())
    ) if partition.n_shards > 1 else (0.0,)
    return ShardLayout(
        partition=partition,
        groups=groups,
        phases=phases,
        shard_halo_seconds=shard_halo_seconds,
        halo_seconds_per_exchange=max(shard_halo_seconds),
        interior_cells=tuple(_interior_cells(partition, shard)
                             for shard in partition.shards),
        owned_cells=tuple(math.prod(shard.out_shape)
                          for shard in partition.shards),
    )


def device_key(device: GPUSpec) -> Tuple[Any, ...]:
    """Hashable content of a device spec (its dict field as sorted items),
    for layout keys — far cheaper than the fingerprint's canonical form."""
    return tuple(tuple(sorted(value.items())) if isinstance(value, dict)
                 else value for value in vars(device).values())


_LAYOUT_COUNTERS = {
    "hit": ("engine.shard_layout_hits",
            "sharded runs whose layout came from the cache's layout memo"),
    "miss": ("engine.shard_layout_misses",
             "sharded runs that had to build their layout"),
}


def fetch_layout(cache, key: Tuple[Any, ...],
                 build: Callable[[], ShardLayout],
                 **span_attrs: Any) -> Tuple[ShardLayout, float]:
    """The layout for ``key`` from ``cache``'s layout memo (``build()`` on a
    miss; every time when ``cache`` is ``None``), plus the host seconds the
    lookup or build took.

    Counts the outcome in the global metrics registry and records the
    ``shard_compile`` span, tagged ``memo="hit"|"miss"``, under the ambient
    span.
    """
    start = time.perf_counter()
    if cache is None:
        layout, hit = build(), False
    else:
        layout, hit = cache.shard_layout(key, build)
    end = time.perf_counter()
    memo = "hit" if hit else "miss"
    global_registry().counter(*_LAYOUT_COUNTERS[memo]).inc()
    trace = current_span()
    if trace is not None:
        trace.tracer.record("shard_compile", start, end, parent=trace,
                            memo=memo, shards=layout.partition.n_shards,
                            halo_depth=layout.partition.halo_depth,
                            **span_attrs)
    return layout, end - start


@dataclass(frozen=True)
class HaloRoundModel:
    """Modelled cost of one steady-state round (exchange + ``k`` sweeps).

    Shared by the :class:`repro.server.scheduler.DevicePoolScheduler`
    routing estimate and the deep-halo tradeoff analysis in
    :mod:`repro.analysis.scaling`, so the router and the analyst price a
    round identically.
    """

    halo_depth: int
    round_seconds: float        #: exchange + k sweeps on the critical path
    per_sweep_seconds: float    #: ``round_seconds / k`` (the routing cost)
    compute_seconds: float      #: critical-path compute of the k sweeps
    halo_seconds: float         #: modelled interconnect time of one exchange
    exposed_seconds: float      #: exchange time the overlap could not hide
    halo_fraction: float        #: ``exposed / round`` — wall-time exposure
    redundant_fraction: float   #: redundant updates / useful updates


def model_round(partition: GridPartition, spec: MultiDeviceSpec,
                itemsize: int, sweep_seconds: float,
                overlap: bool = True,
                window_seconds: Optional[Sequence[Sequence[float]]] = None
                ) -> HaloRoundModel:
    """Price one steady-state round of the communication-avoiding schedule.

    ``sweep_seconds`` is the modelled single-device full-grid sweep time;
    shard compute scales by its window's share of the global output cells.
    ``window_seconds`` optionally replaces that linear scaling with exact
    per-``(shard, mult)`` sweep times (from each window's own compiled
    roofline — see :func:`window_plan_seconds`); the routing scheduler
    stays on the compile-free linear model.  The first sweep of a round
    overlaps with the exchange (``max(interior, halo) + rim`` per shard);
    the remaining ``k-1`` sweeps are pure compute on shrinking windows.
    """
    k = partition.halo_depth
    out_cells = 1
    for extent in partition.grid_shape:
        out_cells *= extent - 2 * partition.radius
    if partition.n_shards <= 1:
        total = sweep_seconds * k
        return HaloRoundModel(halo_depth=k, round_seconds=total,
                              per_sweep_seconds=sweep_seconds,
                              compute_seconds=total, halo_seconds=0.0,
                              exposed_seconds=0.0, halo_fraction=0.0,
                              redundant_fraction=0.0)

    recv_elements = partition.received_elements_per_shard()
    recv_messages = partition.messages_per_shard()
    halos = [spec.exchange_seconds(elements * itemsize, messages)
             for elements, messages in zip(recv_elements, recv_messages)]
    halo = max(halos)

    window_cells = [[math.prod(partition.window_out_shape(shard, mult))
                     for mult in range(k)] for shard in partition.shards]
    interior = [_interior_cells(partition, shard)
                for shard in partition.shards]

    def compute(i: int, mult: int) -> float:
        if window_seconds is not None:
            return window_seconds[i][mult]
        return sweep_seconds * window_cells[i][mult] / out_cells

    first_mult = k - 1
    compute_first = max(compute(i, first_mult)
                        for i in range(partition.n_shards))
    if overlap:
        first_sweep = 0.0
        for i, cells in enumerate(window_cells):
            total = cells[first_mult]
            seconds = compute(i, first_mult)
            interior_sec = seconds * min(interior[i], total) / total \
                if total > 0 else 0.0
            rim_sec = seconds - interior_sec
            first_sweep = max(first_sweep,
                              max(interior_sec, halos[i]) + rim_sec)
    else:
        first_sweep = halo + compute_first

    rest = sum(max(compute(i, mult) for i in range(partition.n_shards))
               for mult in range(k - 2, -1, -1))
    round_seconds = first_sweep + rest
    compute_seconds = compute_first + rest
    redundant = sum(sum(cells) for cells in window_cells) - k * out_cells
    return HaloRoundModel(
        halo_depth=k,
        round_seconds=round_seconds,
        per_sweep_seconds=round_seconds / k,
        compute_seconds=compute_seconds,
        halo_seconds=halo,
        exposed_seconds=round_seconds - compute_seconds,
        halo_fraction=(round_seconds - compute_seconds) / round_seconds
        if round_seconds > 0 else 0.0,
        redundant_fraction=redundant / (k * out_cells),
    )


def model_schedule(partition: GridPartition, spec: MultiDeviceSpec,
                   itemsize: int, sweeps: int, sweep_seconds: float,
                   overlap: bool = True,
                   window_seconds: Optional[Sequence[Sequence[float]]] = None
                   ) -> HaloRoundModel:
    """Price a *finite* run of ``sweeps`` sweeps, round by round.

    :func:`model_round` amortises one steady-state round; this mirrors the
    executor's actual billing loop instead — the first round skips the
    exchange, the last round may be partial — so its ``per_sweep_seconds``
    (wall over ``sweeps``) matches :attr:`ShardedRunResult.elapsed_seconds`
    of a modelled run exactly when ``window_seconds`` comes from
    :func:`window_plan_seconds`.  Use it to predict the measured-optimal
    halo depth for a concrete iteration count.
    """
    require_positive_int(sweeps, "sweeps")
    k = partition.halo_depth
    out_cells = 1
    for extent in partition.grid_shape:
        out_cells *= extent - 2 * partition.radius
    if partition.n_shards <= 1:
        total = sweep_seconds * sweeps
        return HaloRoundModel(halo_depth=k, round_seconds=total,
                              per_sweep_seconds=sweep_seconds,
                              compute_seconds=total, halo_seconds=0.0,
                              exposed_seconds=0.0, halo_fraction=0.0,
                              redundant_fraction=0.0)

    recv_elements = partition.received_elements_per_shard()
    recv_messages = partition.messages_per_shard()
    halos = [spec.exchange_seconds(elements * itemsize, messages)
             for elements, messages in zip(recv_elements, recv_messages)]
    halo = max(halos)

    window_cells = [[math.prod(partition.window_out_shape(shard, mult))
                     for mult in range(k)] for shard in partition.shards]
    interior = [_interior_cells(partition, shard)
                for shard in partition.shards]

    def compute(i: int, mult: int) -> float:
        if window_seconds is not None:
            return window_seconds[i][mult]
        return sweep_seconds * window_cells[i][mult] / out_cells

    wall = compute_seconds = exposed = 0.0
    redundant = 0
    sweep = 0
    first_round = True
    while sweep < sweeps:
        span = min(k, sweeps - sweep)
        after_exchange = not first_round
        for j in range(span):
            mult = span - 1 - j
            step = [compute(i, mult) for i in range(partition.n_shards)]
            compute_seconds += max(step)
            redundant += sum(window_cells[i][mult]
                             for i in range(partition.n_shards)) - out_cells
            if after_exchange and overlap:
                step_wall = 0.0
                for i, seconds in enumerate(step):
                    cells = window_cells[i][mult]
                    share = min(interior[i], cells) / cells \
                        if cells > 0 else 0.0
                    interior_sec = seconds * share
                    step_wall = max(step_wall,
                                    max(interior_sec, halos[i])
                                    + (seconds - interior_sec))
                wall += step_wall
                exposed += step_wall - max(step)
            elif after_exchange:
                wall += max(step) + halo
                exposed += halo
            else:
                wall += max(step)
            after_exchange = False
        sweep += span
        first_round = False
    exchanges = max(0, -(-sweeps // k) - 1)
    return HaloRoundModel(
        halo_depth=k,
        round_seconds=wall,
        per_sweep_seconds=wall / sweeps,
        compute_seconds=compute_seconds,
        halo_seconds=halo * exchanges,
        exposed_seconds=exposed,
        halo_fraction=exposed / wall if wall > 0 else 0.0,
        redundant_fraction=redundant / (sweeps * out_cells),
    )


class ShardedExecutor:
    """Run a compiled stencil sharded across ``spec.device_count`` devices.

    Parameters
    ----------
    spec:
        A :class:`repro.tcu.spec.MultiDeviceSpec`, or an integer device count
        (N simulated A100s on NVLink).
    shard_grid:
        Shards per grid axis.  Defaults to one shard per device, factored
        over the axes by :func:`repro.stencils.partition.plan_shard_grid`
        (the surface-minimising heuristic — 4 devices on a square grid
        become a 2x2 shard grid).
    cache:
        Optional :class:`repro.service.CompileCache` for the per-shard plans
        and the memoized :class:`ShardLayout`, so a warm run builds
        nothing.  Without one, a private cache is created per run (so
        equal-shaped shards still compile once) and nothing is memoized.
    max_workers:
        Thread-pool width for concurrent shard sweeps.
    halo_depth:
        Requested communication-avoiding depth ``k`` (exchange once per
        ``k`` sweeps).  Clamped to what the geometry supports
        (:meth:`repro.stencils.partition.GridPartition.max_halo_depth`),
        so an infeasible request degrades to shallower halos rather than
        failing.
    overlap:
        Model compute/comm overlap (``max(interior, exchange) + rim`` per
        post-exchange sweep).  Disable for the classic serialised timeline.
    """

    def __init__(self, spec: Union[MultiDeviceSpec, int] = 2,
                 shard_grid: Optional[Sequence[int]] = None,
                 cache=None, max_workers: Optional[int] = None,
                 halo_depth: int = 1, overlap: bool = True) -> None:
        if isinstance(spec, (int, np.integer)):
            # resolved against the compiled plan's device at execute time, so
            # an integer count clusters whatever device the workload targets
            self._device_count = int(spec)
            require_positive_int(self._device_count, "device count")
            self.spec: Optional[MultiDeviceSpec] = None
        else:
            require(isinstance(spec, MultiDeviceSpec),
                    f"spec must be a MultiDeviceSpec or a device count, "
                    f"got {type(spec).__name__}")
            self.spec = spec
            self._device_count = spec.device_count
        self.shard_grid = None if shard_grid is None else tuple(
            int(c) for c in shard_grid)
        self.cache = cache
        self.max_workers = max_workers
        require_positive_int(halo_depth, "halo_depth")
        self.halo_depth = int(halo_depth)
        self.overlap = bool(overlap)

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def resolve_spec(self, compiled: CompiledStencil) -> MultiDeviceSpec:
        """The cluster this run executes on: the configured
        :class:`MultiDeviceSpec`, or — when the executor was built from a
        bare device count — N copies of the *compiled plan's* device."""
        if self.spec is not None:
            return self.spec
        return MultiDeviceSpec(device=compiled.spec,
                               device_count=self._device_count)

    def partition(self, compiled: CompiledStencil) -> GridPartition:
        """Tile the compiled grid, aligned to the plan's layout tiles.

        The requested ``halo_depth`` is clamped to the deepest the geometry
        supports (shards must own their deep ghost width; periodic wrap
        images must stay tile-congruent)."""
        config = compiled.plan.config
        pattern = compiled.pattern
        require(MorphConfig.from_r1_r2(pattern.ndim, config.r1, config.r2)
                == config,
                f"layout config {config.r} is not expressible as (r1, r2) — "
                f"sharded execution supports the standard morph layouts only")
        shard_grid = self.shard_grid if self.shard_grid is not None \
            else self._device_count
        depth = min(self.halo_depth, GridPartition.max_halo_depth(
            compiled.grid_shape, pattern.radius, shard_grid, align=config.r,
            boundary=compiled.boundary))
        partition = GridPartition.build(
            compiled.grid_shape, pattern.radius, shard_grid, align=config.r,
            boundary=compiled.boundary, halo_depth=depth)
        require(partition.n_shards <= self._device_count,
                f"{partition.n_shards} shards need more than the "
                f"{self._device_count} available devices")
        return partition

    def _layout_key(self, compiled: CompiledStencil,
                    spec: MultiDeviceSpec) -> Tuple[Any, ...]:
        """Every input :meth:`_build_layout` reads.  The pinned full-grid
        request's fingerprint covers the grid shape, pattern, temporal
        fusion, ``r1``/``r2``, boundary, backend, dtype and device; the
        layout config rides along because only an ``(r1, r2)``-expressible
        config may shard."""
        return ("kernel",
                window_request(compiled, spec.device,
                               compiled.grid_shape).fingerprint,
                compiled.plan.config, spec.device_count,
                spec.interconnect_bandwidth_gbs, spec.link_latency_seconds,
                self.shard_grid, self.halo_depth)

    def _build_layout(self, compiled: CompiledStencil,
                      spec: MultiDeviceSpec) -> ShardLayout:
        """Partition the grid and compile every window plan (a memo miss)."""
        partition = self.partition(compiled)
        phases = build_shard_phases(compiled, spec, partition,
                                    cache=self.cache,
                                    max_workers=self.max_workers)
        return build_layout(partition, {"": phases}, spec,
                            compiled.plan.dtype.itemsize)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def execute(self, compiled: CompiledStencil, grid: Grid,
                iterations: int) -> ShardedRunResult:
        require_positive_int(iterations, "iterations")
        require(tuple(grid.shape) == compiled.grid_shape,
                f"grid shape {tuple(grid.shape)} does not match the compiled "
                f"shape {compiled.grid_shape}")
        require(grid.boundary == compiled.boundary,
                f"grid boundary {grid.boundary!r} does not match the "
                f"compiled boundary {compiled.boundary!r} — recompile for "
                f"this grid")
        sweeps, leftover = fused_iterations(iterations,
                                            compiled.temporal_fusion)
        require(leftover == 0,
                f"sharded execution requires iterations divisible by the "
                f"temporal fusion factor {compiled.temporal_fusion} "
                f"(got {iterations}); run the leftover sweeps on the "
                f"single-device executor")

        spec = self.resolve_spec(compiled)
        layout, shard_compile_seconds = fetch_layout(
            self.cache, self._layout_key(compiled, spec),
            lambda: self._build_layout(compiled, spec))
        partition = layout.partition
        phases = layout.phases[""]
        depth = partition.halo_depth
        radius = partition.radius
        # One ambient-context check up front: round/exchange/sweep spans are
        # recorded on this (round-loop) thread, which carries the trace
        # context — the shard pool threads never need it.
        trace = current_span()
        tracer = trace.tracer if trace is not None else None

        itemsize = compiled.plan.dtype.itemsize
        shard_halo_seconds = layout.shard_halo_seconds
        halo_seconds_per_exchange = layout.halo_seconds_per_exchange
        interior_cells = layout.interior_cells
        owned_cells = layout.owned_cells

        # the initial halo ring is derived state under periodic/reflect —
        # fill it exactly like the single-device executor before extracting
        # the shard slabs; Dirichlet reads the grid as-is (extract and
        # assemble both copy, so no mutation escapes either way)
        if partition.boundary == "dirichlet":
            base = grid.data
        else:
            base = apply_boundary(grid.data.copy(), radius,
                                  partition.boundary)
        locals_ = partition.extract(base)
        shard_launches: List[List[LaunchResult]] = [[] for _ in phases]
        wall = compute_crit = memory_crit = 0.0
        halo_bytes = halo_seconds = exposed_seconds = dram_bytes = 0.0
        exchange_count = 0
        redundant_cells = 0

        # one pool for the whole run — per-sweep pool churn would dominate
        # at small shard sizes
        workers = self.max_workers if self.max_workers is not None \
            else default_workers(len(phases))
        pool = ThreadPoolExecutor(max_workers=workers) \
            if workers > 1 and len(phases) > 1 else None

        def sweep_all(mult: int) -> List[LaunchResult]:
            row = [shard_phases[mult] for shard_phases in phases]
            if pool is not None:
                return list(pool.map(
                    lambda pair: run_shard_phase(pair[0], pair[1], radius),
                    zip(row, locals_)))
            return [run_shard_phase(phase, local, radius)
                    for phase, local in zip(row, locals_)]

        try:
            sweep = 0
            first_round = True
            round_index = 0
            while sweep < sweeps:
                span = min(depth, sweeps - sweep)
                after_exchange = False
                round_span = None
                round_wall_before = wall
                if tracer is not None:
                    round_span = tracer.begin("round", parent=trace,
                                              round=round_index,
                                              sweeps_in_round=span)
                if not first_round:
                    # one exchange validates the whole round; nothing reads
                    # halos after the final sweep, so the last round's
                    # exchange is neither performed nor billed.  A single
                    # shard still refreshes its local faces (reflect
                    # mirrors, periodic self-wraps) but crosses no link, so
                    # nothing is counted
                    exchange_start = time.perf_counter()
                    exchanged = partition.exchange_halos(locals_)
                    if partition.n_shards > 1:
                        halo_bytes += exchanged * itemsize
                        halo_seconds += halo_seconds_per_exchange
                        exchange_count += 1
                        after_exchange = True
                        if tracer is not None:
                            tracer.record(
                                "halo_exchange", exchange_start,
                                time.perf_counter(), parent=round_span,
                                device_seconds=halo_seconds_per_exchange,
                                bytes=exchanged * itemsize,
                                overlap=self.overlap)
                for j in range(span):
                    mult = span - 1 - j
                    if j > 0:
                        # exchanged faces live off redundant compute inside a
                        # round, but reflect mirrors and periodic self-wraps
                        # are refreshed every sweep, like apply_boundary
                        partition.refresh_local_boundaries(locals_)
                    sweep_start = time.perf_counter()
                    results = sweep_all(mult)
                    sweep_end = time.perf_counter()
                    for launches, result in zip(shard_launches, results):
                        launches.append(result)
                    elapsed = [r.elapsed_seconds for r in results]
                    compute_crit += max(r.compute_seconds for r in results)
                    memory_crit += max(r.memory_seconds for r in results)
                    dram_bytes += sum(p[mult].dram_bytes for p in phases)
                    redundant_cells += sum(
                        p[mult].out_cells - owned
                        for p, owned in zip(phases, owned_cells))
                    if tracer is not None:
                        tracer.record("sweep", sweep_start, sweep_end,
                                      parent=round_span,
                                      device_seconds=max(elapsed),
                                      sweep=sweep + j, window_mult=mult)
                    if after_exchange and self.overlap:
                        # the exchange rides under the interior phase of the
                        # first sweep it validates; only the overflow (and
                        # the halo-dependent rim) extends the wall clock
                        step_wall = 0.0
                        for i, seconds in enumerate(elapsed):
                            cells = phases[i][mult].out_cells
                            share = min(interior_cells[i], cells) / cells \
                                if cells > 0 else 0.0
                            interior_sec = seconds * share
                            step_wall = max(
                                step_wall,
                                max(interior_sec, shard_halo_seconds[i])
                                + (seconds - interior_sec))
                        wall += step_wall
                        exposure = step_wall - max(elapsed)
                        exposed_seconds += exposure
                        if tracer is not None:
                            # modelled quantity, not a measured interval —
                            # zero host wall, the exposed time rides in
                            # device_seconds
                            tracer.record("overlap_exposed", sweep_end,
                                          sweep_end, parent=round_span,
                                          device_seconds=exposure,
                                          sweep=sweep + j, overlap=True)
                    elif after_exchange:
                        wall += max(elapsed) + halo_seconds_per_exchange
                        exposed_seconds += halo_seconds_per_exchange
                        if tracer is not None:
                            tracer.record("overlap_exposed", sweep_end,
                                          sweep_end, parent=round_span,
                                          device_seconds=(
                                              halo_seconds_per_exchange),
                                          sweep=sweep + j, overlap=False)
                    else:
                        wall += max(elapsed)
                    after_exchange = False
                sweep += span
                first_round = False
                round_index += 1
                if tracer is not None and round_span is not None:
                    round_span.add_device_seconds(wall - round_wall_before)
                    tracer.end(round_span)
        finally:
            if pool is not None:
                pool.shutdown()

        output = partition.assemble(locals_, base)
        # under periodic/reflect the single-device executor refreshes the
        # halo ring after the final sweep too; the fill is a pure function
        # of the interior, so applying it to the assembled output lands on
        # the bit-identical ring (no-op under Dirichlet)
        apply_boundary(output, radius, partition.boundary)

        shard_totals = [summarize_launches(launches)
                        for launches in shard_launches]
        all_launches = [r for launches in shard_launches for r in launches]
        overall = combine_utilization(
            [r.utilization for r in all_launches],
            [r.elapsed_seconds for r in all_launches])

        points = original_points(compiled, sweeps, 0)
        elapsed = wall
        gstencil, gflops = throughput_metrics(compiled, points, elapsed)
        overhead = dict(compiled.overhead_seconds)
        overhead["shard_compile"] = shard_compile_seconds

        return ShardedRunResult(
            output=output,
            iterations=iterations,
            elapsed_seconds=elapsed,
            compute_seconds=compute_crit,
            memory_seconds=memory_crit,
            gstencil_per_second=gstencil,
            gflops_per_second=gflops,
            utilization=overall,
            overhead_seconds=overhead,
            sweeps=sweeps,
            leftover_sweeps=0,
            points_updated=points,
            shard_grid=partition.shard_grid,
            shard_elapsed_seconds=tuple(t.elapsed_seconds
                                        for t in shard_totals),
            shard_utilization=tuple(t.utilization for t in shard_totals),
            halo_exchange_bytes=halo_bytes,
            halo_exchange_seconds=halo_seconds,
            halo_exposed_seconds=exposed_seconds,
            halo_exchange_count=exchange_count,
            halo_depth=depth,
            overlap=self.overlap,
            redundant_points_updated=float(redundant_cells)
            * compiled.temporal_fusion,
            device_traffic_bytes=dram_bytes,
            device_count=spec.device_count,
        )

"""Multi-device scaling analysis: shard utilization, halo traffic, and the
deep-halo tradeoff.

The sharded execution engine models a weak-scaling deployment — one grid
decomposed over N simulated devices with communication-avoiding halo
exchange.  This module turns its :class:`repro.engine.ShardedRunResult` into
the quantities a scaling study reports: modelled speedup and parallel
efficiency against the single-device run, the halo-traffic fraction (the
share of wall time exposed to communication), per-shard utilization (how
evenly the devices are loaded) — and the analytic deep-halo tradeoff: how
``halo_depth`` trades redundant ghost-zone compute against exchange latency,
and where the crossover sits for a given workload and interconnect
(:func:`deep_halo_tradeoff`, priced by the same
:func:`repro.engine.sharded.price_schedule` walk the routing scheduler and
the sharded executor bill with).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.pipeline import CompiledStencil, execute_compiled
from repro.stencils.grid import Grid
from repro.stencils.partition import GridPartition
from repro.stencils.pattern import StencilPattern
from repro.tcu.spec import MultiDeviceSpec
from repro.util.validation import require, require_positive_int

__all__ = ["ShardScalingPoint", "ScalingReport", "sharded_scaling",
           "per_shard_utilization", "DeepHaloPoint", "DeepHaloTradeoff",
           "deep_halo_tradeoff"]


@dataclass(frozen=True)
class ShardScalingPoint:
    """One shard count of a scaling sweep.

    ``halo_traffic_fraction`` is the share of the modelled wall time exposed
    to halo exchange (what overlap could not hide); ``halo_bytes_fraction``
    is the byte-level share of all modelled data movement.  The envelope
    fields (``halo_depth``, ``halo_exchange_count``, ``halo_exchange_bytes``,
    ``redundant_compute_fraction``) record the communication-avoiding
    schedule the point ran under.
    """

    devices: int
    shard_grid: Tuple[int, ...]
    elapsed_seconds: float
    speedup: float
    efficiency: float
    halo_traffic_fraction: float
    halo_exchange_seconds: float
    load_balance: float
    gstencil_per_second: float
    halo_depth: int = 1
    overlap: bool = True
    halo_exchange_count: int = 0
    halo_exchange_bytes: float = 0.0
    halo_exposed_seconds: float = 0.0
    halo_bytes_fraction: float = 0.0
    redundant_compute_fraction: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "devices": self.devices,
            "shard_grid": list(self.shard_grid),
            "elapsed_seconds": self.elapsed_seconds,
            "speedup": self.speedup,
            "efficiency": self.efficiency,
            "halo_traffic_fraction": self.halo_traffic_fraction,
            "halo_exchange_seconds": self.halo_exchange_seconds,
            "load_balance": self.load_balance,
            "gstencil_per_second": self.gstencil_per_second,
            "halo_depth": self.halo_depth,
            "overlap": self.overlap,
            "halo_exchange_count": self.halo_exchange_count,
            "halo_exchange_bytes": self.halo_exchange_bytes,
            "halo_exposed_seconds": self.halo_exposed_seconds,
            "halo_bytes_fraction": self.halo_bytes_fraction,
            "redundant_compute_fraction": self.redundant_compute_fraction,
        }


@dataclass(frozen=True)
class ScalingReport:
    """Scaling sweep of one workload over increasing device counts."""

    pattern_name: str
    grid_shape: Tuple[int, ...]
    iterations: int
    single_device_seconds: float
    points: Tuple[ShardScalingPoint, ...]

    def as_rows(self) -> List[Dict[str, Any]]:
        return [point.as_dict() for point in self.points]

    @property
    def best(self) -> ShardScalingPoint:
        return min(self.points, key=lambda p: p.elapsed_seconds)


def sharded_scaling(
    pattern: StencilPattern,
    grid: Grid,
    iterations: int,
    device_counts: Sequence[int] = (1, 2, 4, 8),
    *,
    interconnect: Optional[MultiDeviceSpec] = None,
    cache=None,
    compiled: Optional[CompiledStencil] = None,
    halo_depth: int = 1,
    overlap: bool = True,
    shard_grids: Optional[Sequence[Optional[Sequence[int]]]] = None,
    **compile_kwargs,
) -> ScalingReport:
    """Sweep shard counts and compare against the single-device run.

    The single-device baseline and every sharded point execute the *same*
    compiled plan family (the sharded executor pins its per-shard plans to
    the baseline layout), so the outputs are bit-identical and the comparison
    isolates the execution model: per-device kernel time shrinking with the
    shard size versus the halo-exchange tax the communication-avoiding
    schedule (``halo_depth``, ``overlap``) leaves exposed.

    ``shard_grids`` optionally pins the shards-per-axis of each point (one
    entry per device count, ``None`` entries defer to the surface-minimising
    default).
    """
    from repro.engine.sharded import ShardedExecutor

    require_positive_int(iterations, "iterations")
    require(len(device_counts) > 0, "need at least one device count")
    for count in device_counts:
        require_positive_int(count, "device count")
    if shard_grids is not None:
        require(len(shard_grids) == len(device_counts),
                f"{len(shard_grids)} shard grids for {len(device_counts)} "
                f"device counts")

    grid_shape = tuple(grid.shape)
    if compiled is None:
        from repro.core.pipeline import compile_cached
        compiled = compile_cached(pattern, grid_shape, cache=cache,
                                  **compile_kwargs)
    require(iterations % compiled.temporal_fusion == 0,
            f"sharded scaling requires iterations divisible by the temporal "
            f"fusion factor {compiled.temporal_fusion} (got {iterations})")

    baseline = execute_compiled(compiled, grid, iterations)
    single_seconds = baseline.elapsed_seconds

    points = []
    for position, count in enumerate(device_counts):
        # a bare count clusters the baseline's own device (the executor
        # resolves it), so speedup compares like with like even when the
        # workload targets a custom GPUSpec
        spec = count if interconnect is None \
            else interconnect.with_overrides(device_count=count)
        shard_grid = shard_grids[position] if shard_grids is not None else None
        result = ShardedExecutor(spec, shard_grid=shard_grid, cache=cache,
                                 halo_depth=halo_depth,
                                 overlap=overlap).execute(
            compiled, grid, iterations)
        speedup = single_seconds / result.elapsed_seconds \
            if result.elapsed_seconds > 0 else 0.0
        points.append(ShardScalingPoint(
            devices=count,
            shard_grid=result.shard_grid,
            elapsed_seconds=result.elapsed_seconds,
            speedup=speedup,
            efficiency=speedup / count,
            halo_traffic_fraction=result.halo_traffic_fraction,
            halo_exchange_seconds=result.halo_exchange_seconds,
            load_balance=result.load_balance,
            gstencil_per_second=result.gstencil_per_second,
            halo_depth=result.halo_depth,
            overlap=result.overlap,
            halo_exchange_count=result.halo_exchange_count,
            halo_exchange_bytes=result.halo_exchange_bytes,
            halo_exposed_seconds=result.halo_exposed_seconds,
            halo_bytes_fraction=result.halo_bytes_fraction,
            redundant_compute_fraction=result.redundant_compute_fraction,
        ))

    return ScalingReport(
        pattern_name=pattern.name,
        grid_shape=grid_shape,
        iterations=iterations,
        single_device_seconds=single_seconds,
        points=tuple(points),
    )


# --------------------------------------------------------------------- #
# deep-halo tradeoff model
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class DeepHaloPoint:
    """Modelled cost of one ``halo_depth`` candidate (steady-state round)."""

    halo_depth: int
    per_sweep_seconds: float
    halo_seconds: float          # one exchange's interconnect time
    exposed_seconds: float       # per round, after overlap
    halo_fraction: float         # exposed share of the round's wall time
    redundant_fraction: float    # redundant updates / useful updates

    def as_dict(self) -> Dict[str, Any]:
        return {
            "halo_depth": self.halo_depth,
            "per_sweep_seconds": self.per_sweep_seconds,
            "halo_seconds": self.halo_seconds,
            "exposed_seconds": self.exposed_seconds,
            "halo_fraction": self.halo_fraction,
            "redundant_fraction": self.redundant_fraction,
        }


@dataclass(frozen=True)
class DeepHaloTradeoff:
    """The redundant-compute vs exchange-latency tradeoff of deep halos.

    Each extra step of ``halo_depth`` removes one exchange (its latency and
    its exposure) from every round and adds one ring of redundant ghost-zone
    compute to every shard.  Exchange latency is constant per message while
    the redundant ring's cost grows with the shard surface, so the amortised
    per-sweep cost is convex: it falls while latency dominates and rises once
    redundant compute does.  ``predicted_depth`` is the argmin — the
    crossover the benchmark asserts against measured elapsed times.
    """

    devices: int
    shard_grid: Tuple[int, ...]
    overlap: bool
    points: Tuple[DeepHaloPoint, ...]

    @property
    def predicted_depth(self) -> int:
        """The modelled-cheapest ``halo_depth`` (the crossover)."""
        return min(self.points, key=lambda p: p.per_sweep_seconds).halo_depth

    def as_rows(self) -> List[Dict[str, Any]]:
        return [point.as_dict() for point in self.points]


def deep_halo_tradeoff(
    compiled: CompiledStencil,
    devices: Union[MultiDeviceSpec, int],
    *,
    shard_grid: Optional[Sequence[int]] = None,
    max_depth: int = 4,
    overlap: bool = True,
    cache=None,
    window_estimates: bool = True,
    iterations: Optional[int] = None,
) -> DeepHaloTradeoff:
    """Price every feasible ``halo_depth`` for one compiled workload.

    Builds the real partition geometry at each depth and prices its
    steady-state round
    (:meth:`repro.engine.sharded.RoundSchedule.steady_state`) with
    :func:`repro.engine.sharded.price_schedule` — the walk the
    :class:`~repro.server.scheduler.DevicePoolScheduler` routes with, over
    the per-sweep rule the :class:`~repro.engine.sharded.ShardedExecutor`
    bills — so the predicted crossover is directly comparable to measured
    elapsed times from :func:`sharded_scaling`.

    With ``window_estimates`` (the default), per-window compute is priced
    from each window's own compiled roofline — read off the executor's
    layout (:meth:`repro.engine.sharded.ShardLayout.window_seconds`),
    memoized on ``cache``, so a later run with the same cache compiles and
    builds nothing — rather than the scheduler's compile-free
    linear-in-cells approximation; the roofline's fixed costs make
    redundant ghost compute sublinear, and the prediction must bill what
    the executor will bill for the crossover to land on the measured
    depth.

    With ``iterations``, the finite schedule is priced instead
    (:meth:`repro.engine.sharded.RoundSchedule.kernel`): the first round
    skips its exchange and the last round may be partial, exactly as the
    executor runs them, so the predicted depth matches a measured sweep of
    that iteration count rather than the steady-state amortisation.
    """
    from repro.engine.sharded import (RoundSchedule, ShardedExecutor,
                                      ShardGeometry, price_schedule)

    require_positive_int(max_depth, "max_depth")
    if isinstance(devices, MultiDeviceSpec):
        spec = devices
    else:
        require_positive_int(int(devices), "devices")
        spec = MultiDeviceSpec(device=compiled.spec,
                               device_count=int(devices))
    feasible = GridPartition.max_halo_depth(
        compiled.grid_shape, compiled.pattern.radius,
        shard_grid if shard_grid is not None else spec.device_count,
        align=compiled.plan.config.r, boundary=compiled.boundary)

    points = []
    resolved_grid: Tuple[int, ...] = ()
    for depth in range(1, min(max_depth, feasible) + 1):
        executor = ShardedExecutor(spec, shard_grid=shard_grid, cache=cache,
                                   halo_depth=depth)
        if window_estimates:
            layout = executor.layout(compiled)
            partition, geometry = layout.partition, layout.geometry
            seconds = layout.window_seconds()
        else:
            partition = executor.partition(compiled)
            geometry = ShardGeometry.build(partition, spec,
                                           compiled.plan.dtype.itemsize)
            seconds = {"": geometry.linear_seconds(
                compiled.plan.estimate.t_total)}
        resolved_grid = partition.shard_grid
        schedule = RoundSchedule.steady_state(depth) if iterations is None \
            else RoundSchedule.kernel(iterations, depth)
        bill = price_schedule(schedule, geometry, seconds, overlap)
        points.append(DeepHaloPoint(
            halo_depth=depth,
            per_sweep_seconds=bill.per_sweep_seconds,
            halo_seconds=bill.halo_seconds,
            exposed_seconds=bill.exposed_seconds,
            halo_fraction=bill.halo_fraction,
            redundant_fraction=bill.redundant_fraction,
        ))
    require(len(points) > 0, "no feasible halo depth — grid too small to "
                             "shard at all")
    return DeepHaloTradeoff(
        devices=spec.device_count,
        shard_grid=resolved_grid,
        overlap=overlap,
        points=tuple(points),
    )


def per_shard_utilization(result) -> List[Dict[str, float]]:
    """Per-shard utilization rows of a :class:`repro.engine.ShardedRunResult`.

    One row per shard with its device time and the six NCU-style counters —
    the multi-device analogue of the Figure-11 comparison.
    """
    rows = []
    for i, (elapsed, report) in enumerate(zip(result.shard_elapsed_seconds,
                                              result.shard_utilization)):
        row = {"shard": float(i), "elapsed_seconds": elapsed}
        row.update(report.as_dict())
        rows.append(row)
    return rows

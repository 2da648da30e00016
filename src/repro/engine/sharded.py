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

A kernel is a one-stage program: :class:`ShardedExecutor` and
:class:`repro.programs.ShardedProgramRunner` only lower their workload to
:class:`ShardStages` and share the partition (:func:`shard_partition`),
layout key, layout build and round loop of :class:`ShardedRunner`.

One schedule, priced and executed by the same code.  A
:class:`RoundSchedule` lists a run's rounds — an optional halo exchange,
then ``(stage, window mult)`` sweeps — and a :class:`ShardGeometry` holds
a partition's per-shard halo seconds and cell counts.  :class:`RoundBill`
is the one per-sweep billing rule: :func:`price_schedule` walks a schedule
with modelled per-window seconds — or with a layout's phase tables, whose
plan-constant launches bill every modelled field of a run.  The round
loop (:meth:`ShardedRunner._run_schedule`) takes its whole bill from that
walk, so a model and a run of one schedule agree to the bit by
construction.

Everything a run derives from (plan, cluster, policy) alone — the
partition with its precomputed extraction blocks and exchange ops, the
round groups, one per-window phase table per stage (each phase with its
sweep's priced launch) and the :class:`ShardGeometry` — is a
:class:`ShardLayout`, built once per *layout key* (content, not identity;
see :meth:`ShardedRunner._layout_key`) and memoized on the runner's compile
cache (:meth:`repro.service.CompileCache.shard_layout`), so per-window
plans are compiled (or looked up) on a memo miss only.  The layout in turn
memoizes the bill of each ``(schedule, overlap)`` it runs — ``overlap`` is
a runner setting outside the layout key — under a lock, dropping the
least recently used once its bills cover :data:`_BILL_SWEEPS` sweeps.
Each sweep's launch comes from the backend's
:meth:`~repro.core.codegen.StencilBackend.price`.  A warm sharded run
therefore only moves data: it extracts the shard slabs, exchanges halos,
sweeps and assembles.  Without
a cache nothing is memoized.  Hits and misses are counted as
``engine.shard_layout_hits`` / ``engine.shard_layout_misses`` in the
global metrics registry and tagged ``memo="hit"|"miss"`` on the
``shard_compile`` span, whose duration — also reported as
``overhead_seconds["shard_compile"]`` — is the build on a miss and the
lookup on a hit.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from repro.core.fusion import fused_iterations
from repro.core.morphing import MorphConfig
from repro.core.pipeline import CompiledStencil, StencilRunResult
from repro.engine.base import (
    SweepContext,
    original_points,
    prepare_sweep,
    require_grid,
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
from repro.tcu.spec import GPUSpec, MultiDeviceSpec, device_key
from repro.util.parallel import default_workers, parallel_map
from repro.util.validation import require, require_positive_int

__all__ = ["ShardedExecutor", "ShardedRunner", "ShardedRunResult",
           "ShardGeometry", "ShardLayout", "ShardStages", "bound_groups",
           "shard_partition", "Round", "RoundSchedule",
           "RoundBill", "price_schedule", "window_request",
           "build_shard_phases", "run_shard_phase"]


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
    """Per-(shard, window-mult) sweep state: the compiled context, the
    precomputed window geometry and the sweep's priced launch."""

    context: SweepContext
    window: Tuple[slice, ...]
    writeback: Tuple[slice, ...]
    whole: bool                 #: window covers the entire local array
    dram_bytes: float           #: modelled DRAM traffic of one sweep
    #: the plan-constant launch every sweep of the window returns, priced
    #: once (``output`` is ``None``; see :attr:`SweepContext.priced_launch`)
    launch: LaunchResult


def build_shard_phases(compiled: CompiledStencil, spec: MultiDeviceSpec,
                       partition: GridPartition, cache,
                       max_workers: Optional[int] = None
                       ) -> List[List[_ShardPhase]]:
    """Compile (or fetch) one plan per (shard, window size) of one stage,
    pinned to the stage's global layout.

    Plans go through ``cache`` (a :class:`repro.service.CompileCache`)
    keyed by the canonical fingerprint, so the typical partition — interior
    shards all the same shape, edge shards sharing a handful of remainder
    shapes, window shapes repeating across shards — compiles each distinct
    shape exactly once.  Called only when building a :class:`ShardLayout`
    (:meth:`ShardedRunner._build_layout`, one table per stage) — once per
    layout key, not once per run.
    """

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
                dram_bytes=float(traffic.global_bytes
                                 + traffic.metadata_bytes
                                 + traffic.lut_bytes),
                launch=context.priced_launch,
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


# --------------------------------------------------------------------- #
# the round schedule and its billing
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardGeometry:
    """The per-shard quantities a round's cost depends on, derived once from
    (partition, cluster, itemsize)."""

    halo_seconds: Tuple[float, ...]     #: modelled receive time per shard
    #: owned cells no freshly exchanged ghost value can reach in one sweep
    #: (the overlap's interior phase — everything else is rim)
    interior_cells: Tuple[int, ...]
    owned_cells: Tuple[int, ...]
    #: computed cells of each ``[shard][window mult]`` sweep window
    window_cells: Tuple[Tuple[int, ...], ...]
    exchange_bytes: int = 0             #: bytes one exchange moves

    @classmethod
    def build(cls, partition: GridPartition, spec: MultiDeviceSpec,
              itemsize: int) -> "ShardGeometry":
        # a single shard refreshes its faces locally and crosses no link
        halo_seconds = tuple(
            spec.exchange_seconds(elements * itemsize, messages)
            for elements, messages in zip(
                partition.received_elements_per_shard(),
                partition.messages_per_shard())
        ) if partition.n_shards > 1 else (0.0,)
        radius = partition.radius
        interior = []
        for shard in partition.shards:
            faces = partition.exchanged_faces(shard)
            cells = 1
            for axis, extent in enumerate(shard.out_shape):
                trim = sum(radius for f in faces if f[0] == axis)
                cells *= max(0, extent - trim)
            interior.append(cells)
        return cls(
            halo_seconds=halo_seconds,
            interior_cells=tuple(interior),
            owned_cells=tuple(math.prod(shard.out_shape)
                              for shard in partition.shards),
            window_cells=tuple(
                tuple(math.prod(partition.window_out_shape(shard, mult))
                      for mult in range(partition.halo_depth))
                for shard in partition.shards),
            exchange_bytes=partition.halo_elements_per_exchange() * itemsize,
        )

    @property
    def n_shards(self) -> int:
        return len(self.owned_cells)

    @property
    def out_cells(self) -> int:
        """Output cells of the whole grid (the shards tile it)."""
        return sum(self.owned_cells)

    @property
    def halo_seconds_per_exchange(self) -> float:
        """One exchange on the critical path: the slowest shard's receive."""
        return max(self.halo_seconds)

    def linear_seconds(self, sweep_seconds: float
                       ) -> List[List[float]]:
        """Compile-free ``[shard][mult]`` window seconds: the full-grid
        sweep time scaled by each window's share of the output cells."""
        out_cells = self.out_cells
        return [[sweep_seconds * cells / out_cells for cells in row]
                for row in self.window_cells]


class Round(NamedTuple):
    """One round of a :class:`RoundSchedule`.  A kernel's one stage is
    named ``""``."""

    exchange: bool                          #: a halo exchange opens it
    sweeps: Tuple[Tuple[str, int], ...]     #: ``(stage, window mult)``
    step: int = 0                           #: program step (0 for kernels)


def _round_sweeps(stages: Sequence[str]) -> Tuple[Tuple[str, int], ...]:
    """Stage ``j`` of a span-``k`` round sweeps window ``mult = k-1-j``."""
    span = len(stages)
    return tuple((stage, span - 1 - j) for j, stage in enumerate(stages))


@dataclass(frozen=True)
class RoundSchedule:
    """The rounds of a sharded run, in execution order.

    Build one with :meth:`kernel`, :meth:`program` or :meth:`steady_state`;
    the constructors are memoized, so a warm run reuses its schedule.
    """

    rounds: Tuple[Round, ...]

    @property
    def sweeps(self) -> int:
        return sum(len(r.sweeps) for r in self.rounds)

    @classmethod
    @functools.lru_cache(maxsize=256)
    def kernel(cls, sweeps: int, halo_depth: int) -> "RoundSchedule":
        """A kernel's ``sweeps`` as one program step of its one stage,
        chunked into rounds of up to ``halo_depth`` sweeps (the last may be
        partial)."""
        return cls.program(tuple(("",) * min(halo_depth, sweeps - start)
                                 for start in range(0, sweeps, halo_depth)), 1)

    @classmethod
    @functools.lru_cache(maxsize=256)
    def program(cls, groups: Tuple[Tuple[str, ...], ...],
                steps: int) -> "RoundSchedule":
        """``steps`` program steps of one round per fusion group.  Only the
        run's very first round skips the exchange: it reads the initial
        extraction, and nothing reads halos after the final sweep."""
        return cls(tuple(
            Round(step > 0 or index > 0, _round_sweeps(group), step)
            for step in range(steps) for index, group in enumerate(groups)))

    @classmethod
    @functools.lru_cache(maxsize=64)
    def steady_state(cls, halo_depth: int) -> "RoundSchedule":
        """One amortised round of a long run: an exchange, then
        ``halo_depth`` sweeps on shrinking windows."""
        return cls((Round(True, _round_sweeps([""] * halo_depth)),))


@dataclass
class RoundBill:
    """Modelled cost of a round schedule, accumulated sweep by sweep.

    :meth:`exchange` and :meth:`sweep` are the whole billing rule.  After an
    exchange, the next sweep costs ``max(interior, halo) + rim`` per shard
    with overlap (the exchange rides under the interior phase), or the
    slowest shard plus one exchange without; every other sweep costs its
    slowest shard.

    Billed from a layout's phase tables (:attr:`ShardLayout.phases`), the
    bill also carries every other modelled field of a
    :class:`ShardedRunResult` — the critical compute and memory paths, the
    DRAM bytes, and, once :func:`price_schedule` ends the walk, the
    per-shard launch totals and the combined utilization.
    """

    geometry: ShardGeometry
    overlap: bool = True
    wall_seconds: float = 0.0       #: critical path, exposed exchanges in
    compute_seconds: float = 0.0    #: critical path of the sweeps alone
    exposed_seconds: float = 0.0    #: exchange time overlap could not hide
    halo_seconds: float = 0.0       #: interconnect time of every exchange
    halo_bytes: float = 0.0         #: bytes every exchange moved
    exchange_count: int = 0
    redundant_cells: int = 0        #: ghost-zone cells computed redundantly
    sweeps: int = 0
    #: per sweep ``(slowest shard seconds, exposed exchange seconds or
    #: None, wall seconds after it)`` — what a run's spans report
    records: List[Tuple[float, Optional[float], float]] = field(
        default_factory=list)
    #: per-sweep sums of the slowest shard's compute / memory seconds
    #: (billed from launches only)
    compute_path: float = 0.0
    memory_path: float = 0.0
    dram_bytes: float = 0.0         #: modelled DRAM traffic of every sweep
    #: each shard's summed launches (:func:`summarize_launches`) and every
    #: launch's utilization weighted by its elapsed seconds (billed from
    #: launches only; set when the walk ends)
    shard_totals: Tuple[Any, ...] = ()
    utilization: Optional[UtilizationReport] = None
    _pending: bool = field(default=False, init=False, repr=False)
    #: each shard's launches in sweep order, held only during the walk
    _launches: Tuple[List[LaunchResult], ...] = field(
        default=(), init=False, repr=False, compare=False)

    def exchange(self) -> bool:
        """Bill one halo exchange.  A single shard crosses no link, so
        nothing is billed and ``False`` is returned."""
        if self.geometry.n_shards <= 1:
            return False
        self.exchange_count += 1
        self.halo_seconds += self.geometry.halo_seconds_per_exchange
        self.halo_bytes += self.geometry.exchange_bytes
        self._pending = True
        return True

    def sweep(self, costs: Sequence[Union[float, _ShardPhase]],
              mult: int) -> Optional[float]:
        """Bill one sweep on window ``mult`` from its per-shard ``costs`` —
        modelled seconds, or the shards' phases, whose priced launches also
        bill the critical paths, DRAM bytes and per-shard launches.
        Returns the exposed exchange time when an exchange preceded it."""
        if isinstance(costs[0], _ShardPhase):
            seconds = self._bill_launches(costs)
        else:
            seconds = costs
        geometry = self.geometry
        slowest = max(seconds)
        self.sweeps += 1
        self.compute_seconds += slowest
        self.redundant_cells += sum(
            cells[mult] for cells in geometry.window_cells
        ) - geometry.out_cells
        if not self._pending:
            self.wall_seconds += slowest
            self.records.append((slowest, None, self.wall_seconds))
            return None
        self._pending = False
        if self.overlap:
            step_wall = 0.0
            for i, shard_seconds in enumerate(seconds):
                cells = geometry.window_cells[i][mult]
                share = min(geometry.interior_cells[i], cells) / cells \
                    if cells > 0 else 0.0
                interior = shard_seconds * share
                step_wall = max(step_wall,
                                max(interior, geometry.halo_seconds[i])
                                + (shard_seconds - interior))
            exposure = step_wall - slowest
        else:
            exposure = geometry.halo_seconds_per_exchange
            step_wall = slowest + exposure
        self.wall_seconds += step_wall
        self.exposed_seconds += exposure
        self.records.append((slowest, exposure, self.wall_seconds))
        return exposure

    def _bill_launches(self, phases: Sequence[_ShardPhase]) -> List[float]:
        launches = [phase.launch for phase in phases]
        if not self._launches:
            self._launches = tuple([] for _ in launches)
        for shard_launches, launch in zip(self._launches, launches):
            shard_launches.append(launch)
        self.compute_path += max(r.compute_seconds for r in launches)
        self.memory_path += max(r.memory_seconds for r in launches)
        self.dram_bytes += sum(phase.dram_bytes for phase in phases)
        return [r.elapsed_seconds for r in launches]

    def _finish(self) -> None:
        """End the walk: total the launches billed so far once, then drop
        them — a memoized bill keeps only its totals and records."""
        if not self._launches:
            return
        self.shard_totals = tuple(summarize_launches(launches)
                                  for launches in self._launches)
        every = [r for launches in self._launches for r in launches]
        self.utilization = combine_utilization(
            [r.utilization for r in every], [r.elapsed_seconds for r in every])
        self._launches = ()

    @property
    def per_sweep_seconds(self) -> float:
        return self.wall_seconds / self.sweeps if self.sweeps else 0.0

    @property
    def halo_fraction(self) -> float:
        """Exposed share of the wall time."""
        return self.exposed_seconds / self.wall_seconds \
            if self.wall_seconds > 0 else 0.0

    @property
    def redundant_fraction(self) -> float:
        """Redundant updates over useful updates."""
        useful = self.sweeps * self.geometry.out_cells
        return self.redundant_cells / useful if useful else 0.0


def price_schedule(schedule: RoundSchedule, geometry: ShardGeometry,
                   seconds: Mapping[str, Sequence[Sequence[Any]]],
                   overlap: bool = True) -> RoundBill:
    """Walk ``schedule`` and bill each sweep from ``seconds[stage][shard]
    [mult]`` — :meth:`ShardGeometry.linear_seconds` for the compile-free
    estimate, :meth:`ShardLayout.window_seconds` for exactly what a run of
    that layout bills, or a layout's phase tables
    (:attr:`ShardLayout.phases`) for the run's whole bill."""
    bill = RoundBill(geometry, overlap)
    for round_ in schedule.rounds:
        if round_.exchange:
            bill.exchange()
        for stage, mult in round_.sweeps:
            bill.sweep([row[mult] for row in seconds[stage]], mult)
    bill._finish()
    return bill


# --------------------------------------------------------------------- #
# layouts
# --------------------------------------------------------------------- #
#: Sweeps the bills one :class:`ShardLayout` memoizes may cover in all: a
#: bill keeps one ``records`` entry (~110 bytes) per sweep, so this caps a
#: layout's bills near 0.5 MB whatever mix of iteration counts it serves.
#: The least recently used bill goes first; the newest always stays.
_BILL_SWEEPS = 4096


@dataclass(frozen=True)
class ShardLayout:
    """Everything a sharded run derives from (plan, cluster, policy) alone.

    Built on a memo miss and shared read-only by every later run with the
    same layout key, including concurrent ones.  The partition keeps its
    precomputed extraction blocks and exchange ops from run to run, each
    phase its priced launch, and the layout memoizes the bill of every
    ``(schedule, overlap)`` it ran (:meth:`_bill`), so a warm run only moves
    data.
    """

    partition: GridPartition
    #: stage names per round of a program step, bounded by the partition's
    #: ``halo_depth`` (:func:`shard_partition`); a kernel's are chunks of
    #: ``("",) * halo_depth``
    groups: Tuple[Tuple[str, ...], ...]
    #: per-stage ``[shard][window mult]`` phase tables; a kernel's one
    #: stage is keyed ``""``
    phases: Dict[str, List[List[_ShardPhase]]]
    geometry: ShardGeometry
    _bills: "OrderedDict[Tuple[RoundSchedule, bool], RoundBill]" = field(
        default_factory=OrderedDict, init=False, compare=False, repr=False)
    _bills_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, compare=False,
        repr=False)

    def window_seconds(self) -> Dict[str, List[List[float]]]:
        """Per-stage ``[shard][mult]`` modelled seconds of each window plan
        — what a run of this layout bills per window sweep."""
        return {stage: [[phase.launch.elapsed_seconds for phase in row]
                        for row in table]
                for stage, table in self.phases.items()}

    def _bill(self, schedule: RoundSchedule, overlap: bool) -> RoundBill:
        """The bill of running ``schedule`` on this layout:
        :func:`price_schedule` over the phase tables, priced once per
        ``(schedule, overlap)`` and memoized (covering at most
        :data:`_BILL_SWEEPS` sweeps, unless the newest bill alone does).
        ``overlap`` is a runner setting outside the layout key, hence in
        the memo key.  Racing runs may both price a cold key; the bills are
        equal and the first stored is kept."""
        key = (schedule, overlap)
        with self._bills_lock:
            bill = self._bills.get(key)
            if bill is not None:
                self._bills.move_to_end(key)
                return bill
        bill = price_schedule(schedule, self.geometry, self.phases, overlap)
        with self._bills_lock:
            bill = self._bills.setdefault(key, bill)
            retained = sum(kept.sweeps for kept in self._bills.values())
            while retained > _BILL_SWEEPS and len(self._bills) > 1:
                retained -= self._bills.popitem(last=False)[1].sweeps
        return bill


@dataclass(frozen=True)
class ShardStages:
    """A kernel or a chain program lowered for sharded execution: each
    stage's name and pinned plan in execution order (a kernel is one stage
    named ``""``), the round groups before the geometry bounds them (a
    kernel's ``("",) * halo_depth``), and the work's content in the layout
    key."""

    stages: Tuple[Tuple[str, CompiledStencil], ...]
    groups: Tuple[Tuple[str, ...], ...]
    identity: Tuple[Any, ...]

    @property
    def compiled(self) -> CompiledStencil:
        """The first stage's plan (stages share grid, boundary, dtype and
        device)."""
        return self.stages[0][1]


def bound_groups(groups: Tuple[Tuple[str, ...], ...], max_span: int
                 ) -> Tuple[Tuple[str, ...], ...]:
    """``groups`` re-chunked so no group exceeds ``max_span`` stages."""
    require(max_span >= 1, f"max_span must be >= 1, got {max_span}")
    return tuple(group[start:start + max_span] for group in groups
                 for start in range(0, len(group), max_span))


def shard_partition(work: ShardStages, shard_grid: Union[int, Sequence[int]]
                    ) -> Tuple[GridPartition, Tuple[Tuple[str, ...], ...]]:
    """Tile ``work``'s grid into ``shard_grid`` and bound its round groups.

    Tiles align to the per-axis LCM of every stage's layout tiles, so each
    stage's shard-local ``B'`` columns stay bit-identical to its global
    plan's.  Groups are re-chunked to the deepest halo the geometry
    supports (:meth:`GridPartition.max_halo_depth`), and the partition's
    ``halo_depth`` is the longest chunk: a too-deep request degrades to
    shallower halos rather than failing.
    """
    compiled = work.compiled
    align = (1,) * len(compiled.grid_shape)
    for name, stage in work.stages:
        config = stage.plan.config
        require(MorphConfig.from_r1_r2(stage.pattern.ndim, config.r1,
                                       config.r2) == config,
                f"{f'stage {name!r} ' if name else ''}layout config "
                f"{config.r} is not expressible as (r1, r2) — sharded "
                f"execution supports the standard morph layouts only")
        align = tuple(math.lcm(a, int(extent))
                      for a, extent in zip(align, config.r))
    radius = max(stage.pattern.radius for _, stage in work.stages)
    cap = GridPartition.max_halo_depth(
        compiled.grid_shape, radius, shard_grid, align=align,
        boundary=compiled.boundary)
    groups = bound_groups(work.groups, cap)
    partition = GridPartition.build(
        compiled.grid_shape, radius, shard_grid, align=align,
        boundary=compiled.boundary,
        halo_depth=max(len(group) for group in groups))
    return partition, groups


_LAYOUT_COUNTERS = {
    "hit": ("engine.shard_layout_hits",
            "sharded runs whose layout came from the cache's layout memo"),
    "miss": ("engine.shard_layout_misses",
             "sharded runs that had to build their layout"),
}


# --------------------------------------------------------------------- #
# the runners
# --------------------------------------------------------------------- #
class ShardedRunner:
    """What :class:`ShardedExecutor` and
    :class:`repro.programs.ShardedProgramRunner` share: the cluster, the
    shard grid, the compile cache that memoizes their layouts, the overlap
    model, and one partition / layout-key / layout-build path.  A subclass
    only lowers its workload (a compiled kernel or a program plan) to
    :class:`ShardStages`; ``execute`` runs the layout through
    :meth:`_run_schedule`.
    """

    def __init__(self, spec: Union[MultiDeviceSpec, int],
                 shard_grid: Optional[Sequence[int]], cache,
                 max_workers: Optional[int], overlap: bool) -> None:
        if isinstance(spec, (int, np.integer)):
            # resolved against the workload's device at execute time, so an
            # integer count clusters whatever device the workload targets
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
        self.overlap = bool(overlap)

    def _cluster(self, device: GPUSpec) -> MultiDeviceSpec:
        """The configured :class:`MultiDeviceSpec`, or — when built from a
        bare device count — that many copies of ``device``."""
        if self.spec is not None:
            return self.spec
        return MultiDeviceSpec(device=device, device_count=self._device_count)

    def _stages(self, work: Any) -> ShardStages:
        """``work`` (a kernel or a program plan) lowered; per subclass."""
        raise NotImplementedError

    def _partition(self, stages: ShardStages
                   ) -> Tuple[GridPartition, Tuple[Tuple[str, ...], ...]]:
        """The partition and bounded round groups of a run on this runner's
        shard grid (one shard per device by default)."""
        shard_grid = self.shard_grid if self.shard_grid is not None \
            else self._device_count
        partition, groups = shard_partition(stages, shard_grid)
        require(partition.n_shards <= self._device_count,
                f"{partition.n_shards} shards need more than the "
                f"{self._device_count} available devices")
        return partition, groups

    def _layout_key(self, work: Any, spec: MultiDeviceSpec
                    ) -> Tuple[Any, ...]:
        return self._key(self._stages(work), spec)

    def _key(self, stages: ShardStages, spec: MultiDeviceSpec
             ) -> Tuple[Any, ...]:
        """Every input :meth:`_build_layout` reads: the work's identity
        and round groups, the cluster device (it prices every window plan),
        its size and link, and the shard grid."""
        return (stages.identity, stages.groups, device_key(spec.device),
                spec.device_count, spec.interconnect_bandwidth_gbs,
                spec.link_latency_seconds, self.shard_grid)

    def _build_layout(self, stages: ShardStages,
                      spec: MultiDeviceSpec) -> ShardLayout:
        """Partition the grid and compile every stage's window plans (a
        memo miss); without a cache, through a private one."""
        from repro.service.cache import CompileCache

        partition, groups = self._partition(stages)
        cache = self.cache if self.cache is not None else CompileCache(
            capacity=max(8, partition.n_shards * partition.halo_depth
                         * len(stages.stages)))
        phases = {name: build_shard_phases(compiled, spec, partition, cache,
                                           max_workers=self.max_workers)
                  for name, compiled in stages.stages}
        return ShardLayout(
            partition=partition, groups=groups, phases=phases,
            geometry=ShardGeometry.build(
                partition, spec, stages.compiled.plan.dtype.itemsize))

    def _lookup(self, stages: ShardStages
                ) -> Tuple[MultiDeviceSpec, ShardLayout, bool]:
        """The cluster and layout a run of ``stages`` executes on, and
        whether the layout came from the cache's memo."""
        spec = self._cluster(stages.compiled.spec)
        build = functools.partial(self._build_layout, stages, spec)
        if self.cache is None:
            return spec, build(), False
        return (spec, *self.cache.shard_layout(self._key(stages, spec),
                                               build))

    def layout(self, work: Any) -> ShardLayout:
        """The layout a run of ``work`` executes on: read from the cache's
        layout memo (built and memoized on a miss), or built afresh without
        a cache.  Its :meth:`ShardLayout.window_seconds`, priced over the
        run's :class:`RoundSchedule`, is exactly what the run bills."""
        return self._lookup(self._stages(work))[1]

    def _fetch_layout(self, work: ShardStages, **span_attrs: Any
                      ) -> Tuple[MultiDeviceSpec, ShardLayout, float]:
        """The cluster and layout a run of ``work`` executes on, plus the
        host seconds the layout lookup (or build, on a miss) took.

        Counts the outcome in the global metrics registry and records the
        ``shard_compile`` span, tagged ``memo="hit"|"miss"``, under the
        ambient span.
        """
        start = time.perf_counter()
        spec, layout, hit = self._lookup(work)
        end = time.perf_counter()
        memo = "hit" if hit else "miss"
        global_registry().counter(*_LAYOUT_COUNTERS[memo]).inc()
        trace = current_span()
        if trace is not None:
            trace.tracer.record("shard_compile", start, end, parent=trace,
                                memo=memo, shards=layout.partition.n_shards,
                                halo_depth=layout.partition.halo_depth,
                                **span_attrs)
        return spec, layout, end - start

    def _run_schedule(self, layout: ShardLayout, schedule: RoundSchedule,
                      data: np.ndarray,
                      throughput: Callable[[float], Tuple[float, float]], *,
                      step_attrs: Optional[Dict[str, Any]] = None,
                      redundant_scale: int = 1,
                      **fields: Any) -> ShardedRunResult:
        """Execute ``schedule`` over ``layout`` from the global array
        ``data``: the one round loop of sharded execution.

        A run only moves data: it extracts the shard slabs, then each round
        opens with its halo exchange (when it has one) and sweeps every
        shard on the round's windows, and finally the shard interiors are
        assembled.  Every modelled number comes from the layout's memoized
        bill of ``(schedule, overlap)`` (:meth:`ShardLayout._bill`), priced
        from the phases' plan-constant launches — so the run's bill *is*
        :func:`price_schedule` over the layout.  Records ``round`` spans
        with their ``halo_exchange``, ``sweep`` and ``overlap_exposed``
        children under the ambient span, their ``device_seconds`` read off
        the bill's per-sweep records; with ``step_attrs`` (a program run),
        rounds nest under one ``program_step`` span per step carrying those
        attributes.  ``throughput(elapsed)`` gives the run's
        ``(GStencil/s, GFlops/s)`` and ``fields`` the result fields only
        the caller knows.
        """
        partition = layout.partition
        radius = partition.radius
        n_shards = partition.n_shards
        bill = layout._bill(schedule, self.overlap)
        records = bill.records
        halo_seconds = layout.geometry.halo_seconds_per_exchange
        exchange_bytes = layout.geometry.exchange_bytes
        # One ambient-context check up front: round/exchange/sweep spans are
        # recorded on this (round-loop) thread, which carries the trace
        # context — the shard pool threads never need it.
        trace = current_span()
        tracer = trace.tracer if trace is not None else None

        # the run's own copy of the grid: the initial halo ring is derived
        # state under periodic/reflect, filled exactly like the
        # single-device executor (a no-op under Dirichlet) before the shard
        # slabs are extracted — they stay resident for the whole run — and
        # the shard interiors are assembled back into it
        base = apply_boundary(data.copy(), radius, partition.boundary)
        locals_ = partition.extract(base)

        # one pool for the whole run — per-sweep pool churn would dominate
        # at small shard sizes
        workers = self.max_workers if self.max_workers is not None \
            else default_workers(n_shards)
        pool = ThreadPoolExecutor(max_workers=workers) \
            if workers > 1 and n_shards > 1 else None
        shard_map = pool.map if pool is not None else map

        def sweep_shard(phase: _ShardPhase, local: np.ndarray) -> LaunchResult:
            return run_shard_phase(phase, local, radius)

        sweep_index = 0
        wall = 0.0      # the bill's wall seconds after the last sweep run
        steps = itertools.groupby(schedule.rounds, key=lambda r: r.step)
        with pool or contextlib.nullcontext():
            for step, rounds in steps:
                step_span = tracer.begin(
                    "program_step", parent=trace, step=step, **step_attrs,
                ) if tracer is not None and step_attrs is not None else None
                step_wall_before = wall
                for round_index, round_ in enumerate(rounds):
                    round_span = None
                    round_wall_before = wall
                    if tracer is not None:
                        attrs: Dict[str, Any] = {}
                        if step_attrs is not None:
                            attrs["stages"] = [s for s, _ in round_.sweeps]
                        round_span = tracer.begin(
                            "round", parent=step_span or trace,
                            round=round_index,
                            sweeps_in_round=len(round_.sweeps), **attrs)
                    if round_.exchange:
                        # one exchange validates the whole round.  A single
                        # shard still refreshes its local faces (reflect
                        # mirrors, periodic self-wraps) but crosses no
                        # link, so nothing is billed or traced
                        exchange_start = time.perf_counter()
                        partition.exchange_halos(locals_)
                        # the bill says whether it billed this exchange:
                        # the round's first sweep record then carries the
                        # exchange's exposure
                        if tracer is not None \
                                and records[sweep_index][1] is not None:
                            tracer.record(
                                "halo_exchange", exchange_start,
                                time.perf_counter(), parent=round_span,
                                device_seconds=halo_seconds,
                                bytes=exchange_bytes, overlap=self.overlap)
                    for j, (stage, mult) in enumerate(round_.sweeps):
                        if j > 0:
                            # exchanged faces live off redundant compute
                            # inside a round, but reflect mirrors and
                            # periodic self-wraps are refreshed every
                            # sweep, like apply_boundary
                            partition.refresh_local_boundaries(locals_)
                        table = layout.phases[stage]
                        sweep_start = time.perf_counter()
                        list(shard_map(sweep_shard,
                                       [p[mult] for p in table], locals_))
                        sweep_end = time.perf_counter()
                        device_seconds, exposure, wall = records[sweep_index]
                        if tracer is not None:
                            attrs = {"sweep": sweep_index}
                            if step_attrs is not None:
                                attrs["stage"] = stage
                            tracer.record("sweep", sweep_start, sweep_end,
                                          parent=round_span,
                                          device_seconds=device_seconds,
                                          window_mult=mult, **attrs)
                            if exposure is not None:
                                # modelled, not a measured interval: zero
                                # host wall, the exposed time rides in
                                # device_seconds
                                tracer.record(
                                    "overlap_exposed", sweep_end, sweep_end,
                                    parent=round_span,
                                    device_seconds=exposure,
                                    sweep=sweep_index, overlap=self.overlap)
                        sweep_index += 1
                    if round_span is not None:
                        round_span.add_device_seconds(wall - round_wall_before)
                        tracer.end(round_span)
                if step_span is not None:
                    step_span.add_device_seconds(wall - step_wall_before)
                    tracer.end(step_span)

        partition.assemble(locals_, base)
        # under periodic/reflect the single-device executor refreshes the
        # halo ring after the final sweep too; the fill is a pure function
        # of the interior, so applying it to the assembled output lands on
        # the bit-identical ring (no-op under Dirichlet)
        apply_boundary(base, radius, partition.boundary)

        gstencil, gflops = throughput(bill.wall_seconds)
        return ShardedRunResult(
            output=base,
            elapsed_seconds=bill.wall_seconds,
            compute_seconds=bill.compute_path,
            memory_seconds=bill.memory_path,
            gstencil_per_second=gstencil,
            gflops_per_second=gflops,
            utilization=bill.utilization,
            leftover_sweeps=0,
            shard_grid=partition.shard_grid,
            shard_elapsed_seconds=tuple(t.elapsed_seconds
                                        for t in bill.shard_totals),
            shard_utilization=tuple(t.utilization for t in bill.shard_totals),
            halo_exchange_bytes=bill.halo_bytes,
            halo_exchange_seconds=bill.halo_seconds,
            halo_exposed_seconds=bill.exposed_seconds,
            halo_exchange_count=bill.exchange_count,
            halo_depth=partition.halo_depth,
            overlap=self.overlap,
            redundant_points_updated=float(bill.redundant_cells)
            * redundant_scale,
            device_traffic_bytes=bill.dram_bytes,
            **fields,
        )


class ShardedExecutor(ShardedRunner):
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
        super().__init__(spec, shard_grid, cache, max_workers, overlap)
        require_positive_int(halo_depth, "halo_depth")
        self.halo_depth = int(halo_depth)

    def _stages(self, compiled: CompiledStencil) -> ShardStages:
        """One stage ``""`` in one round group of ``halo_depth``.  The
        pinned full-grid request's fingerprint covers the grid, pattern,
        temporal fusion, ``r1``/``r2``, boundary, backend and dtype; the
        config rides along, as only an ``(r1, r2)`` config may shard."""
        return ShardStages(
            stages=(("", compiled),),
            groups=(("",) * self.halo_depth,),
            identity=("kernel", window_request(
                compiled, compiled.spec, compiled.grid_shape).fingerprint,
                compiled.plan.config))

    def partition(self, compiled: CompiledStencil) -> GridPartition:
        """Tile the compiled grid, aligned to the plan's layout tiles, at
        the requested ``halo_depth`` clamped to the deepest the geometry
        supports (:func:`shard_partition`)."""
        return self._partition(self._stages(compiled))[0]

    def execute(self, compiled: CompiledStencil, grid: Grid,
                iterations: int) -> ShardedRunResult:
        require_positive_int(iterations, "iterations")
        require_grid(grid, compiled.grid_shape, compiled.boundary)
        sweeps, leftover = fused_iterations(iterations,
                                            compiled.temporal_fusion)
        require(leftover == 0,
                f"sharded execution requires iterations divisible by the "
                f"temporal fusion factor {compiled.temporal_fusion} "
                f"(got {iterations}); run the leftover sweeps on the "
                f"single-device executor")

        spec, layout, shard_compile_seconds = self._fetch_layout(
            self._stages(compiled))
        points = original_points(compiled, sweeps, 0)
        return self._run_schedule(
            layout, RoundSchedule.kernel(sweeps, layout.partition.halo_depth),
            grid.data,
            functools.partial(throughput_metrics, compiled, points),
            redundant_scale=compiled.temporal_fusion,
            iterations=iterations,
            overhead_seconds={**compiled.overhead_seconds,
                              "shard_compile": shard_compile_seconds},
            sweeps=sweeps,
            points_updated=points,
            device_count=spec.device_count,
        )

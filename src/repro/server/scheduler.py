"""Device-pool scheduler: route each micro-batch to the right executor.

Given a compiled plan and the pool's current free devices, the scheduler
answers two questions with the *existing* analytical model (no new cost
model is introduced):

* **single or sharded?**  The per-sweep roofline time of the plan
  (``plan.estimate.t_total``) is compared against the modelled
  communication-avoiding round — per-shard compute shrinking with the
  device count versus the interconnect cost of the partition's real halo
  geometry, amortised over ``halo_depth`` sweeps per exchange and
  overlapped with interior compute: the steady-state
  :meth:`~repro.engine.sharded.RoundSchedule.steady_state` round, priced by
  :func:`repro.engine.sharded.price_schedule` with the same per-sweep rule
  the :class:`~repro.engine.sharded.ShardedExecutor` bills at run time.
  Small grids are latency-bound and stay on one device; large grids clear
  the NVLink latency and shard.
* **how many devices, how deep a halo?**  Every free power-of-two count is
  evaluated at every feasible ``halo_depth`` up to ``max_halo_depth``; the
  best modelled speedup wins, provided it beats ``min_speedup`` and the
  exposed-exchange share of the round stays under ``max_halo_fraction``.

Decisions are memoized per scheduler, just as a plan is compiled once per
stencil: the model is priced once per distinct input, and a warm
``mode="auto"`` solve or served batch only looks the decision up.  A kernel
decision is keyed by exactly what
:meth:`DevicePoolScheduler.decide` reads — grid shape, pattern ndim and
radius, ``plan.config``, boundary, dtype itemsize, ``plan.estimate.t_total``,
whether the iteration count divides the temporal-fusion factor, and the
clamped free-device count; a program decision by the program fingerprint
and name, ``steps`` and the clamped free count.  The pool, interconnect and
thresholds are fixed for the scheduler's life, so they need no key field.
The memo holds at most :data:`ROUTE_MEMO_LIMIT` decisions and is cleared
when full; hits and misses are counted in the global metrics registry
(``scheduler.route_memo_hits`` / ``scheduler.route_memo_misses``).

Occupancy is enforced by the :class:`repro.tcu.occupancy.OccupancyLedger`:
:meth:`DevicePoolScheduler.route` decides and leases in one step, and the
lease protocol guarantees in-use devices never exceed the pool size.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.core.morphing import MorphConfig
from repro.core.pipeline import CompiledStencil
from repro.obs.metrics import global_registry
from repro.stencils.partition import GridPartition
from repro.tcu.occupancy import DeviceLease, OccupancyLedger
from repro.tcu.spec import MultiDeviceSpec
from repro.util.validation import ValidationError, require, require_positive_int

__all__ = ["RouteCancelledError", "RoutingDecision", "DevicePoolScheduler"]


#: Decisions one scheduler memoizes before it clears the memo and starts
#: over.  Each entry is one key and one shared frozen decision; a workload
#: cycling through more distinct inputs than this pays the model again.
ROUTE_MEMO_LIMIT = 4096


def _infeasible_partitions():
    """The global-registry counter of sharding candidates the partition
    geometry rejected (fetched per use: tests reset the registry)."""
    return global_registry().counter(
        "scheduler.infeasible_partitions",
        "distinct sharding candidates rejected by partition geometry "
        "(counted when a decision is computed, not on memo hits)")


_MEMO_COUNTERS = {
    "hit": ("scheduler.route_memo_hits",
            "routing decisions answered from the scheduler memo"),
    "miss": ("scheduler.route_memo_misses",
             "routing decisions the scheduler had to compute"),
}


class _KernelKey(NamedTuple):
    """Every input a plain-kernel routing decision reads."""

    grid_shape: Tuple[int, ...]
    ndim: int
    radius: int
    config: MorphConfig
    boundary: str
    itemsize: int
    sweep_seconds: float          # plan.estimate.t_total
    fusion_divides: bool          # iterations % temporal_fusion == 0
    free: int                     # clamped free-device count


class _ProgramKey(NamedTuple):
    """Every input a program routing decision reads.  The fingerprint pins
    the stages, wiring, grid, boundary, dtype and device; the name is not
    in it but is quoted by the model's not-shardable reasons."""

    fingerprint: str
    name: str
    steps: int
    free: int


#: One device count's outcome in :meth:`DevicePoolScheduler._decide_shards`.
_Candidate = Union[Tuple[float, float, int, str], str, None]


class RouteCancelledError(RuntimeError):
    """Raised by :meth:`DevicePoolScheduler.route` when its ``cancel`` event
    is set while waiting for a free device.  The caller owns the batch whose
    routing was abandoned and decides how to fail it."""


@dataclass(frozen=True)
class RoutingDecision:
    """Where one micro-batch executes, and the model's reasons."""

    executor: str                 # "single" | "sharded"
    devices: int
    reason: str
    sweep_seconds: float          # modelled single-device sweep (roofline)
    modelled_speedup: float       # sharded speedup at `devices` (1.0 single)
    halo_fraction: float          # modelled exposed-exchange share of a round
    halo_depth: int = 1           # communication-avoiding depth to run at
    overlap: bool = True          # overlap exchanges with interior compute

    @property
    def sharded(self) -> bool:
        return self.executor == "sharded"


def _single(reason: str, sweep_seconds: float) -> RoutingDecision:
    """A single-device decision: no modelled speedup, no exchange."""
    return RoutingDecision(executor="single", devices=1, reason=reason,
                           sweep_seconds=sweep_seconds, modelled_speedup=1.0,
                           halo_fraction=0.0)


class DevicePoolScheduler:
    """Pick executors for compiled plans over a shared pool of devices.

    :meth:`decide` and :meth:`decide_program` memoize their decisions on
    this instance (see the module docstring for the keys).  The parameters
    below are fixed for the scheduler's life — nothing reassigns them after
    construction — so a memoized decision stays the one the model would
    compute again.

    A kernel is routed on the *steady-state* round (an exchange, then
    ``halo_depth`` sweeps), not on the finite schedule a run of
    ``iterations`` executes.  A short run's first round needs no exchange,
    so its finite price flatters sharding: 4 iterations of a 64x64 heat-2d
    on 2 devices model ~1.9x at depth 4 with no exchange at all.  The
    steady state charges every round its exchange, which keeps small,
    latency-bound grids on one device.  Routing on the finite schedule is
    a policy change, and it would also have to put the iteration count in
    the memo key.

    Parameters
    ----------
    pool:
        The cluster, as a :class:`MultiDeviceSpec` or a bare device count
        (N simulated A100s on NVLink).
    min_speedup:
        Modelled sharded speedup required before leaving the single-device
        path (sharding has real costs — shard compiles, halo exchanges — so
        a marginal win is not worth them).
    max_halo_fraction:
        Upper bound on the modelled *exposed* exchange share of a round's
        wall time (exchange time the compute/comm overlap cannot hide);
        past it the decomposition is communication-dominated and stays
        single.
    halo_depth:
        Communication-avoiding depth to route at, or ``None`` (default) to
        search every feasible depth up to ``max_halo_depth`` per candidate
        device count and take the cheapest modelled round.
    max_halo_depth:
        Search ceiling for the automatic depth choice — deep halos trade
        redundant compute for latency, and past a few steps the redundant
        work always dominates, so an unbounded search would only waste
        partition builds.
    overlap:
        Whether routed runs (and their cost model) overlap halo exchange
        with interior compute.
    route_retries:
        How many failed optimistic multi-device leases :meth:`route`
        tolerates before degrading to the always-satisfiable single-device
        route.  Bounds the decide/try_acquire loop: contention flapping the
        free count must not spin the router hot.
    """

    def __init__(self, pool: Union[MultiDeviceSpec, int] = 1, *,
                 min_speedup: float = 1.25,
                 max_halo_fraction: float = 0.25,
                 halo_depth: Optional[int] = None,
                 max_halo_depth: int = 4,
                 overlap: bool = True,
                 ledger: Optional[OccupancyLedger] = None,
                 route_retries: int = 8) -> None:
        if isinstance(pool, (int, np.integer)):
            require_positive_int(int(pool), "pool device count")
            pool = MultiDeviceSpec(device_count=int(pool))
        require(isinstance(pool, MultiDeviceSpec),
                f"pool must be a MultiDeviceSpec or a device count, "
                f"got {type(pool).__name__}")
        require(min_speedup >= 1.0, "min_speedup must be >= 1.0")
        require(0.0 <= max_halo_fraction <= 1.0,
                "max_halo_fraction must be in [0, 1]")
        if halo_depth is not None:
            require_positive_int(halo_depth, "halo_depth")
        require_positive_int(max_halo_depth, "max_halo_depth")
        require_positive_int(route_retries, "route_retries")
        self.pool = pool
        self.min_speedup = min_speedup
        self.max_halo_fraction = max_halo_fraction
        self.halo_depth = halo_depth
        self.max_halo_depth = max_halo_depth
        self.overlap = bool(overlap)
        self.route_retries = route_retries
        self.ledger = ledger if ledger is not None \
            else OccupancyLedger(pool.device_count)
        self._memo: Dict[Tuple[Any, ...], RoutingDecision] = {}
        # guards only the memo's get and put, never a model computation
        self._memo_lock = threading.Lock()
        self._memo_outcome = threading.local()

    # ------------------------------------------------------------------ #
    # memo
    # ------------------------------------------------------------------ #
    def _clamp_free(self, free_devices: Optional[int]) -> int:
        free = self.ledger.free if free_devices is None else free_devices
        return max(0, min(free, self.pool.device_count))

    def _memoized(self, key: Tuple[Any, ...],
                  compute: Callable[[], RoutingDecision]) -> RoutingDecision:
        """The memoized decision for ``key``, computing it on a miss.

        Two threads missing on one key both compute; the model is
        deterministic, so either result may be kept.
        """
        with self._memo_lock:
            decision = self._memo.get(key)
        outcome = "hit" if decision is not None else "miss"
        if decision is None:
            decision = compute()
            with self._memo_lock:
                if len(self._memo) >= ROUTE_MEMO_LIMIT:
                    self._memo.clear()
                self._memo[key] = decision
        self._memo_outcome.value = outcome
        global_registry().counter(*_MEMO_COUNTERS[outcome]).inc()
        return decision

    def memo_outcome(self) -> str:
        """``"hit"`` or ``"miss"``: how the calling thread's latest
        :meth:`decide` / :meth:`decide_program` was answered (``""``
        before its first)."""
        return getattr(self._memo_outcome, "value", "")

    # ------------------------------------------------------------------ #
    # decision model
    # ------------------------------------------------------------------ #
    def _sharded_estimate(self, key: _KernelKey, devices: int) -> _Candidate:
        """``(modelled speedup, halo fraction, halo depth, reason detail)``
        of a ``devices``-way shard at its best communication-avoiding depth.

        Prices the steady-state round
        (:meth:`~repro.engine.sharded.RoundSchedule.steady_state`: an
        exchange, then ``halo_depth`` sweeps) with
        :func:`~repro.engine.sharded.price_schedule` — the same partition
        geometry, interconnect model, exchange amortisation and overlap the
        sharded executor bills at run time — and returns ``None`` when the
        grid cannot be tiled into that many shards.  The depth search walks
        1..``max_halo_depth`` (clamped to what the geometry supports) and
        keeps the cheapest amortised sweep; with a fixed ``halo_depth``
        configured, only that depth (clamped) is priced.
        """
        from repro.engine.sharded import (RoundSchedule, ShardGeometry,
                                          price_schedule)

        sweep = key.sweep_seconds
        align = key.config.r
        try:
            feasible = GridPartition.max_halo_depth(
                key.grid_shape, key.radius, devices, align=align,
                boundary=key.boundary)
        except ValidationError:
            # the geometry cannot host this shard count at all — a
            # modelling fact, not a fault, but counted so a pool that
            # keeps proposing infeasible candidates stays visible
            _infeasible_partitions().inc()
            return None
        if self.halo_depth is not None:
            depths = [min(self.halo_depth, feasible)]
        else:
            depths = range(1, min(self.max_halo_depth, feasible) + 1)
        best: _Candidate = None
        for depth in depths:
            try:
                # boundary-aware: periodic wrap adds real interconnect
                # messages at the global edges, and the decision must bill
                # what the sharded executor will bill
                partition = GridPartition.build(
                    key.grid_shape, key.radius, devices, align=align,
                    boundary=key.boundary, halo_depth=depth)
            except ValidationError:
                _infeasible_partitions().inc()
                continue
            if partition.n_shards > devices or partition.n_shards < 2:
                return None
            geometry = ShardGeometry.build(partition, self.pool, key.itemsize)
            bill = price_schedule(
                RoundSchedule.steady_state(partition.halo_depth), geometry,
                {"": geometry.linear_seconds(sweep)}, self.overlap)
            speedup = sweep / bill.per_sweep_seconds \
                if bill.per_sweep_seconds > 0 else 0.0
            if best is None or speedup > best[0]:
                best = (speedup, bill.halo_fraction, depth,
                        f"halo depth {depth}")
        return best

    def decide(self, compiled: CompiledStencil, iterations: int,
               free_devices: Optional[int] = None) -> RoutingDecision:
        """Routing decision for one plan given the pool's free devices
        (``None``: the ledger's live free count), memoized per
        :meth:`_kernel_key`."""
        key = self._kernel_key(compiled, iterations, free_devices)
        return self._memoized(key, lambda: self._decide_kernel(key))

    def _kernel_key(self, compiled: CompiledStencil, iterations: int,
                    free_devices: Optional[int]) -> _KernelKey:
        """The memo key of :meth:`decide`: every input the decision reads,
        and all that :meth:`_decide_kernel` is given."""
        require_positive_int(iterations, "iterations")
        plan = compiled.plan
        return _KernelKey(
            grid_shape=compiled.grid_shape,
            ndim=compiled.pattern.ndim,
            radius=compiled.pattern.radius,
            config=plan.config,
            boundary=compiled.boundary,
            itemsize=plan.dtype.itemsize,
            sweep_seconds=plan.estimate.t_total,
            fusion_divides=iterations % compiled.temporal_fusion == 0,
            free=self._clamp_free(free_devices))

    def _decide_kernel(self, key: _KernelKey) -> RoutingDecision:
        config = key.config
        blocked = None
        if not key.fusion_divides:
            blocked = ("iterations not divisible by the temporal-fusion "
                       "factor (leftover sweeps are single-device)")
        elif MorphConfig.from_r1_r2(key.ndim, config.r1, config.r2) != config:
            blocked = ("layout not expressible as (r1, r2); sharded "
                       "execution unsupported")
        return self._decide_shards(
            key.free, key.sweep_seconds,
            lambda devices: blocked or self._sharded_estimate(key, devices))

    def decide_program(self, plan: "Any", steps: int,
                       free_devices: Optional[int] = None) -> RoutingDecision:
        """Routing decision for a compiled stencil *program*
        (:class:`repro.programs.ProgramPlan`).

        Prices the finite sharded round schedule with
        :func:`repro.programs.executor.model_program` — the same partition
        geometry, interconnect model and billing walk as :meth:`decide` —
        and applies the identical ``min_speedup`` /
        ``max_halo_fraction`` gates.  The halo depth is not searched here:
        a program's depth is its fusion-group span (consecutive equal-radius
        stages under one exchange), clamped by the geometry.  Memoized by
        program fingerprint and name, ``steps`` and the clamped free count.
        """
        require_positive_int(steps, "steps")
        key = _ProgramKey(fingerprint=plan.fingerprint,
                          name=plan.program.name, steps=steps,
                          free=self._clamp_free(free_devices))
        return self._memoized(key, lambda: self._decide_program(key, plan))

    def _decide_program(self, key: _ProgramKey, plan: "Any"
                        ) -> RoutingDecision:
        """The uncached program decision.  ``plan`` is read only through
        what ``key.fingerprint`` pins (stage plans, wiring, grid, boundary,
        dtype, device) and its name, which ``key.name`` carries."""
        from repro.programs.executor import model_program

        def candidate(devices: int) -> _Candidate:
            spec = self.pool.with_overrides(device=plan.spec,
                                            device_count=devices)
            model = model_program(plan, devices=devices, steps=key.steps,
                                  fuse=True, overlap=self.overlap, spec=spec)
            if model.sharded_seconds is None:
                # the chain, radius or geometry rules sharding out
                return model.reason
            speedup = model.single_seconds / model.sharded_seconds \
                if model.sharded_seconds > 0 else 0.0
            halo_fraction = model.exposed_seconds / model.sharded_seconds \
                if model.sharded_seconds > 0 else 0.0
            return (speedup, halo_fraction, model.halo_depth,
                    f"{len(model.groups)} fused group(s)/step, "
                    f"depth {model.halo_depth}")

        return self._decide_shards(key.free, plan.single_step_seconds,
                                   candidate)

    def _decide_shards(self, free: int, sweep_seconds: float,
                       candidate: Callable[[int], _Candidate]
                       ) -> RoutingDecision:
        """The candidate loop shared by kernels and programs.

        Walks the free power-of-two device counts from 2 and keeps the
        fastest candidate whose exposed-exchange share stays under
        ``max_halo_fraction``; it must beat ``min_speedup`` or the decision
        stays on one device.  ``candidate(devices)`` returns ``(speedup,
        halo fraction, halo depth, reason detail)``, ``None`` when the
        geometry cannot host that count, or a reason string when sharding
        is ruled out structurally: before any candidate was kept, no larger
        count can change that, so the decision is single with that reason.
        """
        if free < 2:
            return _single("pool busy: fewer than 2 devices free",
                           sweep_seconds)
        best: Optional[RoutingDecision] = None
        devices = 2
        while devices <= free:
            outcome = candidate(devices)
            if isinstance(outcome, str):
                if best is None:
                    return _single(outcome, sweep_seconds)
            elif outcome is not None:
                speedup, halo_fraction, halo_depth, detail = outcome
                if (halo_fraction <= self.max_halo_fraction
                        and (best is None
                             or speedup > best.modelled_speedup)):
                    best = RoutingDecision(
                        executor="sharded", devices=devices,
                        reason=f"modelled {speedup:.2f}x on {devices} "
                               f"devices ({detail})",
                        sweep_seconds=sweep_seconds,
                        modelled_speedup=speedup,
                        halo_fraction=halo_fraction, halo_depth=halo_depth,
                        overlap=self.overlap)
            devices *= 2
        if best is None or best.modelled_speedup < self.min_speedup:
            return _single("latency-bound: modelled sharded speedup below "
                           f"{self.min_speedup:.2f}x threshold",
                           sweep_seconds)
        return best

    # ------------------------------------------------------------------ #
    # lease integration
    # ------------------------------------------------------------------ #
    def _lease_single(self, cancel: Optional[threading.Event],
                      poll_seconds: float) -> DeviceLease:
        """Block for one device; abort when ``cancel`` is set.

        A free device always wins over a set cancel event (the acquire is
        attempted before every cancellation check), so work keeps flowing
        whenever the pool can actually serve it.
        """
        while True:
            try:
                return self.ledger.acquire(
                    1, timeout=poll_seconds if cancel is not None else None)
            except TimeoutError:
                if cancel is not None and cancel.is_set():
                    raise RouteCancelledError(
                        "routing cancelled while waiting for a free device"
                    ) from None

    def route(self, compiled: CompiledStencil, iterations: int, *,
              cancel: Optional[threading.Event] = None,
              poll_seconds: float = 0.05
              ) -> Tuple[RoutingDecision, DeviceLease]:
        """Decide against the live free count and lease atomically.

        The free count can shrink between the decision and the lease (other
        worker threads grab devices); when the optimistic lease fails the
        decision is recomputed against the new free count, degrading toward
        the always-satisfiable single-device route rather than blocking on
        devices that may never free up together.

        The retry loop is bounded by ``route_retries``: under heavy
        contention the free count can flap (another worker releases and a
        third grabs between every decide and try_acquire), and an unbounded
        loop would spin hot without ever making progress.  After the budget
        is spent the router stops chasing a multi-device lease and takes
        the single-device route.

        ``cancel`` (a :class:`threading.Event`) makes the device wait
        abortable: with every pool device leased elsewhere, the final
        single-device acquire would otherwise block forever — a server
        shutting down mid-wait sets the event and :meth:`route` raises
        :class:`RouteCancelledError` within ``poll_seconds`` instead of
        deadlocking the shutdown against a lease that will never be
        released.
        """
        for _ in range(self.route_retries):
            decision = self.decide(compiled, iterations,
                                   free_devices=self.ledger.free)
            if decision.devices == 1:
                return decision, self._lease_single(cancel, poll_seconds)
            lease = self.ledger.try_acquire(decision.devices)
            if lease is not None:
                return decision, lease
        decision = _single(f"pool contention: {self.route_retries} "
                           f"optimistic multi-device leases failed; "
                           f"degrading to single",
                           compiled.plan.estimate.t_total)
        return decision, self._lease_single(cancel, poll_seconds)

    def spec_for(self, decision: RoutingDecision, compiled: "Any"
                 ) -> MultiDeviceSpec:
        """The cluster slice a sharded run executes on: ``decision.devices``
        copies of the device the plan — a kernel's
        :class:`CompiledStencil` or a :class:`repro.programs.ProgramPlan` —
        was compiled for (so per-shard fingerprints match the plan, as the
        sharded runners require), joined by the pool's interconnect."""
        return self.pool.with_overrides(device=compiled.spec,
                                        device_count=decision.devices)

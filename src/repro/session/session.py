"""The :class:`StencilSession` facade: one typed front door over every engine.

A session owns the resources every execution mode shares — the compile
cache, the device pool (and its occupancy-aware scheduler), the executor
registry and, lazily, an online :class:`~repro.server.facade.StencilServer`
— and exposes one call::

    with StencilSession(devices=4) as session:
        solution = session.solve(Problem(pattern, grid, iterations=8))
        print(solution.provenance.executor, solution.gstencil_per_second)

``SolvePolicy(mode="auto")`` (the default) routes through the existing
perf/partition model: latency-bound problems stay on one device, large grids
shard across the pool, and the decision is recorded in
:attr:`Solution.provenance`.  Explicit modes (``single``, ``sharded``,
``served``, ``baseline:<name>``) pin the engine instead.  A
``Problem(program=...)`` routes like a kernel: ``auto`` compiles the
program once, decides with the scheduler's program model and runs on the
``single`` or ``sharded`` executor; any other mode rejects it.

Every session-level solve reaches an engine through the session's
:class:`~repro.session.registry.ExecutorRegistry`: ``solve`` creates the
executor its mode names, ``solve_batch`` sweeps each item with the
``single`` executor, and the online server sweeps each request of a
micro-batch with the ``single`` or ``sharded`` executor its scheduler
picked.  A session compiles through the cache it was built with; a caller
who wants another cache, or none shared, builds another session.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Sequence, Union

import numpy as np

from repro.obs.metrics import MetricsRegistry, global_registry
from repro.obs.trace import NULL_TRACER, Tracer, span as obs_span
from repro.server.scheduler import DevicePoolScheduler, RoutingDecision
from repro.service.cache import CompileCache
from repro.session.problem import Problem, Provenance, Solution, SolvePolicy
from repro.session.registry import (
    BaselineSessionExecutor,
    ExecutorRegistry,
    SessionExecutor,
    SingleDeviceSessionExecutor,
    default_registry,
    plan_provenance,
)
from repro.tcu.spec import MultiDeviceSpec
from repro.util.timing import Timer
from repro.util.validation import ValidationError, require

__all__ = [
    "SessionConfig",
    "StencilSession",
]


@dataclass
class SessionConfig:
    """Everything a :class:`StencilSession` is constructed from.

    Attributes
    ----------
    devices:
        The device pool: a :class:`repro.tcu.spec.MultiDeviceSpec` or a bare
        device count (N simulated A100s on NVLink).
    cache / cache_capacity / persist_dir:
        An injected :class:`~repro.service.cache.CompileCache`, or the
        capacity (and optional persistence directory) of the session-owned
        one built when none is injected.
    min_speedup / max_halo_fraction / halo_depth / overlap:
        The ``auto``-routing thresholds and communication-avoiding knobs
        (see :class:`~repro.server.scheduler.DevicePoolScheduler`);
        ``halo_depth=None`` lets the scheduler search for the cheapest
        modelled depth per routing decision.
    max_workers:
        Default thread-pool width for sharded sweeps and batched compiles.
    queue_bound / window_seconds / max_batch_size / default_deadline_seconds:
        Served-mode tunables, applied when the session materialises its
        online server.
    tracer:
        Optional :class:`repro.obs.Tracer`.  When enabled, every solve
        opens a root span, the executors/cache/engines attach their spans
        under it, and :attr:`Solution.provenance.trace_id` records which
        trace the answer belongs to.  Defaults to the shared disabled
        tracer (:data:`repro.obs.NULL_TRACER`), a zero-overhead no-op.
    """

    devices: Union[MultiDeviceSpec, int] = 1
    cache: Optional[CompileCache] = None
    cache_capacity: int = 128
    persist_dir: Optional[str] = None
    min_speedup: float = 1.25
    max_halo_fraction: float = 0.25
    halo_depth: Optional[int] = None
    overlap: bool = True
    max_workers: Optional[int] = None
    queue_bound: int = 128
    window_seconds: float = 0.002
    max_batch_size: int = 16
    default_deadline_seconds: Optional[float] = None
    tracer: Optional[Tracer] = None


class StencilSession:
    """Typed ``Problem -> Solution`` front door over every execution engine.

    Parameters
    ----------
    config:
        A :class:`SessionConfig`; keyword overrides may be passed directly
        (``StencilSession(devices=4)``) or on top of a config.
    registry:
        Optional :class:`~repro.session.registry.ExecutorRegistry`; defaults
        to the built-in single/sharded/served (+ dynamic baseline) table.
    """

    def __init__(self, config: Optional[SessionConfig] = None, *,
                 registry: Optional[ExecutorRegistry] = None,
                 **overrides: Any) -> None:
        if config is None:
            config = SessionConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        self.config = config

        pool = config.devices
        if isinstance(pool, (int, np.integer)):
            pool = MultiDeviceSpec(device_count=int(pool))
        require(isinstance(pool, MultiDeviceSpec),
                f"devices must be a MultiDeviceSpec or a device count, "
                f"got {type(config.devices).__name__}")
        self.pool = pool

        self.cache = config.cache if config.cache is not None else CompileCache(
            capacity=config.cache_capacity, persist_dir=config.persist_dir)
        self.scheduler = DevicePoolScheduler(
            pool, min_speedup=config.min_speedup,
            max_halo_fraction=config.max_halo_fraction,
            halo_depth=config.halo_depth, overlap=config.overlap)
        self.registry = registry if registry is not None else default_registry()
        self.tracer = config.tracer if config.tracer is not None \
            else NULL_TRACER

        self._server: Optional[Any] = None
        self._server_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # the front door
    # ------------------------------------------------------------------ #
    def solve(self, problem: Problem, policy: Optional[SolvePolicy] = None,
              **policy_overrides: Any) -> Solution:
        """Solve one problem under a policy; returns a :class:`Solution`.

        ``policy`` may be omitted and built from keyword overrides
        (``session.solve(problem, mode="sharded", devices=2)``).
        """
        require(isinstance(problem, Problem),
                f"solve() takes a Problem, got {type(problem).__name__}")
        if policy is None:
            policy = SolvePolicy(**policy_overrides)
        elif policy_overrides:
            policy = replace(policy, **policy_overrides)
        problem = self._apply_backend_policy(problem, policy)

        # Root span of the request: everything below — routing, compiles,
        # queueing, engine sweeps — attaches under it through the ambient
        # context, and the trace id is stamped into the provenance so the
        # answer stays auditable back to its spans.
        with self.tracer.span(
                "solve",
                pattern=(f"program:{problem.program.name}"
                         if problem.is_program else problem.pattern.name),
                grid_shape=problem.grid_shape,
                iterations=problem.iterations,
                mode_requested=policy.mode, tag=problem.tag) as root_span:
            mode_requested = policy.mode
            compiled = None
            compile_request = None
            reason = ""
            mode = policy.mode
            if mode == "auto":
                # the executor reuses both, so the fingerprint is derived
                # and the plan compiled once per solve
                compiled, compile_request = SessionExecutor._resolve_plan(
                    problem, self.cache, None, None)
                decision = self.decide(problem, compiled=compiled)
                mode = decision.executor
                reason = decision.reason
                if decision.sharded:
                    changes: Dict[str, Any] = {}
                    if policy.devices is None:
                        changes["devices"] = self.scheduler.spec_for(
                            decision, compiled)
                    # run at the overlap the routing model priced, and a
                    # kernel at its depth unless the policy pins one (a
                    # program's depth is its fusion-group span)
                    if problem.is_program:
                        changes["overlap"] = decision.overlap
                    elif policy.halo_depth is None:
                        changes.update(halo_depth=decision.halo_depth,
                                       overlap=decision.overlap)
                    if changes:
                        policy = replace(policy, **changes)

            executor = self.registry.create(mode)
            if problem.is_program and mode not in ("single", "sharded"):
                raise ValidationError(
                    f"program problems route through auto/single/sharded; "
                    f"mode {policy.mode!r} is not supported for programs")
            solution = executor.solve(
                self, problem, policy, compiled=compiled,
                compile_request=compile_request,
                mode_requested=mode_requested, reason=reason)
            root_span.set(executor=solution.provenance.executor,
                          devices=solution.provenance.devices,
                          reason=solution.provenance.reason)
            root_span.add_device_seconds(solution.result.elapsed_seconds)
            if root_span.trace_id:
                solution = replace(
                    solution,
                    provenance=replace(solution.provenance,
                                       trace_id=root_span.trace_id))
        return solution

    def solve_batch(self, problems: Sequence[Problem], *,
                    max_workers: Optional[int] = None) -> Any:
        """Solve a heterogeneous batch: compile each distinct plan once,
        sweep every problem (see :class:`repro.service.BatchReport`).

        Plans come from the session cache.  Every item sweeps on one device
        through the registry's ``single`` executor, in submission order, so
        the outputs are identical to sequential ``solve(mode="single")``
        calls.
        """
        from repro.service.batch import compile_batch

        with self.tracer.span("solve_batch", requests=len(problems)):
            batch = compile_batch(
                problems, cache=self.cache,
                max_workers=max_workers if max_workers is not None
                else self.config.max_workers)
            executor = self.registry.create("single")
            policy = SolvePolicy(mode="single")
            solutions = []
            with Timer() as sweep:
                for index, problem in enumerate(batch.problems):
                    request = batch.compile_requests[index]
                    with obs_span("execute", fingerprint=request.fingerprint,
                                  iterations=problem.iterations,
                                  tag=problem.tag) as execute_span:
                        solution = executor.solve(
                            self, problem, policy,
                            compiled=batch.plan(index),
                            compile_request=request)
                        execute_span.add_device_seconds(
                            solution.elapsed_seconds)
                    solutions.append(solution)
            return batch.report(solutions, sweep.elapsed)

    def run(self, compiled: Any, grid: Any, iterations: int, *,
            tag: Optional[str] = None) -> Solution:
        """Execute an already-compiled plan on one device.

        The precompiled analogue of ``solve(mode="single")`` for a kernel
        plan or a :class:`~repro.programs.ProgramPlan`; leftover plans
        (non-divisible iteration counts) come from the session cache.  The
        original compile request is unknown here, so
        :attr:`Solution.fingerprint` is empty.
        """
        with self.tracer.span("run", iterations=iterations,
                              tag=tag) as root_span:
            result, fusion_groups = SingleDeviceSessionExecutor.sweep(
                self, compiled, grid, iterations, tag)
            root_span.add_device_seconds(result.elapsed_seconds)
            trace_id = root_span.trace_id
        return Solution(
            result=result,
            compiled=compiled,
            fingerprint="",
            provenance=Provenance(
                mode_requested="single",
                executor="single",
                devices=1,
                trace_id=trace_id,
                **plan_provenance(compiled, "single-device",
                                  "precompiled plan executed directly",
                                  fusion_groups)),
            tag=tag)

    def solve_baseline(self, problem: Problem, baseline: Any) -> Solution:
        """Run a comparator instance (or registry key) on ``problem`` —
        the hook :func:`repro.analysis.compare_methods` routes through."""
        executor = BaselineSessionExecutor(baseline)
        return executor.solve(self, problem,
                              SolvePolicy(mode=executor.name))

    @staticmethod
    def _apply_backend_policy(problem: Problem, policy: SolvePolicy) -> Problem:
        """Fold ``policy.backend`` into the problem's compile options.

        The backend joins the compile fingerprint, so it must reach the
        options *before* any compile/cache lookup.  An explicit option that
        disagrees with the policy is an error — two layers silently
        disagreeing about numerics must not pick a winner.
        """
        if policy.backend is None:
            return problem
        existing = problem.options.get("backend")
        require(existing is None or existing == policy.backend,
                f"options backend {existing!r} conflicts with the policy "
                f"backend {policy.backend!r}")
        if existing == policy.backend:
            return problem
        rebound = Problem(problem.pattern, problem.grid, problem.iterations,
                          options=dict(problem.options), tag=problem.tag,
                          program=problem.program)
        rebound.options["backend"] = policy.backend
        return rebound

    # ------------------------------------------------------------------ #
    # routing / resources
    # ------------------------------------------------------------------ #
    def decide(self, problem: Problem, *,
               compiled: Any = None) -> RoutingDecision:
        """The ``auto``-mode routing decision for ``problem`` against the
        full pool (direct solves do not lease devices; the served path
        decides against live occupancy instead)."""
        if compiled is None:
            compiled = self.compile(problem)
        if problem.is_program:
            return self.scheduler.decide_program(
                compiled, problem.iterations,
                free_devices=self.pool.device_count)
        return self.scheduler.decide(compiled, problem.iterations,
                                     free_devices=self.pool.device_count)

    def check(self, problem: Problem, policy: Optional[SolvePolicy] = None,
              **policy_overrides: Any) -> Any:
        """Pre-flight ``problem`` without sweeping: the Tier-1 diagnostics.

        Runs the :mod:`repro.lint` domain analyzers against this session's
        scheduler and compile cache and returns a
        :class:`~repro.lint.DiagnosticReport`.  The report never executes a
        sweep — the one compile it may trigger goes through the session
        cache, so a subsequent :meth:`solve` reuses it for free.  Accepts
        the same policy spelling as :meth:`solve`
        (``session.check(problem, mode="sharded", devices=4)``).
        """
        from repro.lint.domain import check_problem

        require(isinstance(problem, Problem),
                f"check() takes a Problem, got {type(problem).__name__}")
        if policy is None:
            policy = SolvePolicy(**policy_overrides)
        elif policy_overrides:
            policy = replace(policy, **policy_overrides)
        return check_problem(problem, policy,
                             scheduler=self.scheduler, cache=self.cache,
                             devices=self.pool.device_count)

    def compile(self, problem: Problem) -> Any:
        """Compile (or fetch) the plan for ``problem`` through the cache.

        Program problems compile stage by stage into a
        :class:`~repro.programs.ProgramPlan`; plain pattern problems into a
        :class:`~repro.core.pipeline.CompiledStencil`.
        """
        return SessionExecutor._resolve_plan(problem, self.cache, None,
                                             None)[0]

    def server(self, *, window_seconds: Optional[float] = None,
               max_batch_size: Optional[int] = None) -> Any:
        """The session's online server, materialised on first use.

        The batching hints apply only at creation — a live coalescer is not
        reconfigured per request.
        """
        with self._server_lock:
            if self._server is None:
                from repro.server.facade import ServerConfig, StencilServer

                config = self.config
                server_config = ServerConfig(
                    queue_bound=config.queue_bound,
                    window_seconds=window_seconds if window_seconds is not None
                    else config.window_seconds,
                    max_batch_size=max_batch_size if max_batch_size is not None
                    else config.max_batch_size,
                    max_workers=config.max_workers,
                    default_deadline_seconds=config.default_deadline_seconds)
                self._server = StencilServer(session=self,
                                             config=server_config)
            return self._server

    # ------------------------------------------------------------------ #
    # lifecycle / observability
    # ------------------------------------------------------------------ #
    def metrics(self) -> Dict[str, Any]:
        """Cache, pool and (when materialised) server metrics."""
        with self._server_lock:
            server = self._server
        return {
            "cache": self.cache.snapshot_stats().as_dict(),
            "devices": {"device_count": self.pool.device_count,
                        "pool": self.pool.name},
            "server": server.metrics() if server is not None else None,
        }

    @property
    def metrics_registry(self) -> MetricsRegistry:
        """The process-wide unified registry (every cache/ledger/server
        telemetry instance re-registers into it); one
        :meth:`~repro.obs.MetricsRegistry.snapshot` covers the system."""
        return global_registry()

    def close(self) -> None:
        """Shut down the session's server (if one was materialised).
        Idempotent; the cache outlives the session on purpose."""
        with self._server_lock:
            server, self._server = self._server, None
        if server is not None:
            server.shutdown()

    def __enter__(self) -> "StencilSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

"""Executor registry: how a :class:`StencilSession` reaches each engine.

Every execution mode is a :class:`SessionExecutor` — one object that turns a
``(Problem, SolvePolicy)`` pair into a :class:`~repro.session.problem.Solution`
against the session's cache and device pool.  The built-ins cover the four
engines the repo already has (single-device, sharded, the online server, and
the baseline comparators); new workloads register additional modes on an
:class:`ExecutorRegistry` instead of growing another top-level function:

>>> registry = default_registry()                      # doctest: +SKIP
>>> registry.register("replay", ReplayExecutor)        # doctest: +SKIP
>>> session.solve(problem, mode="replay")              # doctest: +SKIP
"""

from __future__ import annotations

import abc
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional

from repro.session.problem import (
    BASELINE_MODE_PREFIX,
    Problem,
    Provenance,
    Solution,
    SolvePolicy,
    split_mode,
)
from repro.util.validation import ValidationError, require

__all__ = [
    "SessionExecutor",
    "SingleDeviceSessionExecutor",
    "ShardedSessionExecutor",
    "ServedSessionExecutor",
    "BaselineSessionExecutor",
    "ProgramSessionExecutor",
    "ExecutorRegistry",
    "default_registry",
]


class SessionExecutor(abc.ABC):
    """One execution mode of a session.

    ``solve`` receives the owning session (for its cache, pool and server),
    the problem/policy pair, and — when the session already resolved them —
    the compiled plan and canonical compile request, so executors never
    re-derive fingerprints on the hot path.
    """

    #: Registry key; also the default ``Provenance.executor`` value.
    name: str = "executor"

    @abc.abstractmethod
    def solve(self, session: "Any", problem: Problem, policy: SolvePolicy, *,
              cache: "Any", compiled: "Any" = None,
              compile_request: "Any" = None,
              mode_requested: Optional[str] = None,
              reason: str = "") -> Solution:
        """Execute ``problem`` under ``policy`` and report provenance."""

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _resolve_plan(problem: Problem, cache: "Any",
                      compiled: "Any", compile_request: "Any"):
        """``(compiled, compile_request)`` — compiling through ``cache`` when
        one is given, exactly like :func:`repro.core.pipeline.compile_cached`."""
        if compile_request is None:
            compile_request = problem.compile_request()
        if compiled is None:
            compiled = cache.get_or_compile(compile_request) \
                if cache is not None else compile_request.compile()
        return compiled, compile_request

    @staticmethod
    def _tagged(result: "Any", tag: Optional[str]) -> "Any":
        if tag is not None and getattr(result, "tag", None) != tag:
            result = replace(result, tag=tag)
        return result


class SingleDeviceSessionExecutor(SessionExecutor):
    """Compile (through the cache) and sweep on one simulated device —
    the code path the legacy ``sparstencil_solve`` shim delegates to."""

    name = "single"

    def solve(self, session, problem, policy, *, cache, compiled=None,
              compile_request=None, mode_requested=None, reason=""):
        from repro.engine.single import SingleDeviceExecutor

        compiled, compile_request = self._resolve_plan(
            problem, cache, compiled, compile_request)
        result = SingleDeviceExecutor(cache=cache).execute(
            compiled, problem.grid, problem.iterations)
        result = self._tagged(result, problem.tag)
        return Solution(
            result=result,
            compiled=compiled,
            fingerprint=compile_request.fingerprint,
            provenance=Provenance(
                mode_requested=mode_requested or policy.mode,
                executor=self.name,
                engine=compiled.engine,
                devices=1,
                reason=reason or "explicit single-device route",
                boundary=compiled.boundary,
                backend=compiled.backend),
            tag=problem.tag)


class ShardedSessionExecutor(SessionExecutor):
    """Domain-decomposed execution across the session pool (or the policy's
    device override) — the code path the legacy ``solve_sharded`` shim
    delegates to.  Bit-identical to single-device execution."""

    name = "sharded"

    def solve(self, session, problem, policy, *, cache, compiled=None,
              compile_request=None, mode_requested=None, reason=""):
        from repro.engine.sharded import ShardedExecutor

        compiled, compile_request = self._resolve_plan(
            problem, cache, compiled, compile_request)
        devices = policy.devices if policy.devices is not None \
            else session.pool
        max_workers = policy.max_workers if policy.max_workers is not None \
            else session.config.max_workers
        halo_depth = policy.halo_depth if policy.halo_depth is not None else 1
        executor = ShardedExecutor(devices, shard_grid=policy.shard_grid,
                                   cache=cache, max_workers=max_workers,
                                   halo_depth=halo_depth,
                                   overlap=policy.overlap)
        result = executor.execute(compiled, problem.grid, problem.iterations)
        result = self._tagged(result, problem.tag)
        return Solution(
            result=result,
            compiled=compiled,
            fingerprint=compile_request.fingerprint,
            provenance=Provenance(
                mode_requested=mode_requested or policy.mode,
                executor=self.name,
                engine=compiled.engine,
                devices=result.device_count,
                reason=reason or "explicit sharded route",
                boundary=compiled.boundary,
                backend=compiled.backend),
            tag=problem.tag)


class ServedSessionExecutor(SessionExecutor):
    """Route through the session's online server (admission queue, coalescer,
    device-pool scheduler); blocks until the request resolves.

    The server sweeps the request with this registry's ``single`` or
    ``sharded`` executor, so the provenance is built from that delegate's
    :class:`~repro.session.problem.Solution`.  The server compiles through
    the *session* cache, so per-call cache overrides cannot apply here and
    are rejected rather than silently ignored.
    """

    name = "served"

    def solve(self, session, problem, policy, *, cache, compiled=None,
              compile_request=None, mode_requested=None, reason=""):
        if cache is not session.cache:
            raise ValidationError(
                "served mode always executes through the session cache; "
                "per-call cache overrides are not supported")
        server = session.server(window_seconds=policy.window_seconds,
                                max_batch_size=policy.max_batch_size)
        handle = server.submit_problem(
            problem, deadline_seconds=policy.deadline_seconds)
        served = handle.result()
        delegate = served.solution
        return Solution(
            result=delegate.result,
            compiled=delegate.compiled,
            fingerprint=served.fingerprint,
            provenance=Provenance(
                mode_requested=mode_requested or policy.mode,
                executor=self.name,
                engine=delegate.provenance.engine,
                devices=delegate.provenance.devices,
                reason=reason or "served through the online scheduler",
                batch_size=served.batch_size,
                delegate=delegate.provenance.executor,
                boundary=delegate.provenance.boundary,
                backend=delegate.provenance.backend),
            tag=problem.tag)


class BaselineSessionExecutor(SessionExecutor):
    """Run any registered comparator on the identical problem.

    Accepts either a registry key (``"cudnn"``) or a prebuilt
    :class:`~repro.baselines.base.Baseline` instance, which is what
    :func:`repro.analysis.compare_methods` feeds through the session.
    Baseline problems accept only the ``dtype`` / ``spec`` /
    ``temporal_fusion`` options the common method interface takes.
    """

    def __init__(self, baseline: "Any") -> None:
        if isinstance(baseline, str):
            from repro.baselines.registry import get_baseline
            baseline = get_baseline(baseline)
        self.baseline = baseline
        self.name = f"{BASELINE_MODE_PREFIX}{baseline.name}"

    def solve(self, session, problem, policy, *, cache, compiled=None,
              compile_request=None, mode_requested=None, reason=""):
        from repro.tcu.spec import A100_SPEC, DataType

        if problem.boundary != "dirichlet":
            raise ValidationError(
                f"baseline comparators implement the fixed-halo Dirichlet "
                f"boundary only; got a {problem.boundary!r} grid")
        options = dict(problem.options)
        dtype = DataType(options.pop("dtype", DataType.FP16))
        spec = options.pop("spec", A100_SPEC)
        temporal_fusion = int(options.pop("temporal_fusion", 1))
        option_boundary = options.pop("boundary", None)
        if option_boundary is not None:
            from repro.stencils.boundary import normalize_boundary

            if normalize_boundary(option_boundary) != problem.boundary:
                raise ValidationError(
                    f"options boundary {option_boundary!r} conflicts with "
                    f"the grid's boundary {problem.boundary!r}")
        if options:
            raise ValidationError(
                f"baseline modes accept only dtype/spec/temporal_fusion/"
                f"boundary options; got {sorted(options)}")
        result = self.baseline.run(
            problem.pattern, problem.grid, problem.iterations,
            dtype=dtype, spec=spec, temporal_fusion=temporal_fusion)
        if compile_request is None:
            try:
                compile_request = problem.compile_request()
            except ValidationError:
                compile_request = None  # not a SparStencil-compilable problem
        return Solution(
            result=result,
            compiled=None,
            fingerprint=compile_request.fingerprint
            if compile_request is not None else "",
            provenance=Provenance(
                mode_requested=mode_requested or policy.mode,
                executor=self.name,
                engine=self.baseline.name,
                devices=1,
                reason=reason or f"comparator {self.baseline.name} requested",
                boundary=problem.boundary,
                # comparators own their cost models end to end and never
                # touch the SparStencil backend registry
                backend=""),
            tag=problem.tag)


class ProgramSessionExecutor(SessionExecutor):
    """Execute a multi-stage :class:`~repro.programs.StencilProgram` problem.

    The session routes every ``Problem(program=...)`` here regardless of the
    policy mode; this executor then resolves the mode itself — ``single``
    runs the :class:`~repro.programs.ProgramRunner`, ``sharded`` the
    :class:`~repro.programs.ShardedProgramRunner`, and ``auto`` asks the
    session scheduler's :meth:`~repro.server.scheduler.DevicePoolScheduler.
    decide_program` (the same min-speedup / halo-fraction gates as plain
    kernels).  ``served`` and ``baseline:*`` modes do not apply to programs
    and are rejected.  The provenance records the program fingerprint's
    constituents: every stage tap's compile fingerprint plus the fusion
    groups the run executed (read back from the sharded layout the run
    memoized, so recording them costs a lookup).
    """

    name = "program"

    def solve(self, session, problem, policy, *, cache, compiled=None,
              compile_request=None, mode_requested=None, reason=""):
        from repro.programs import (
            ProgramRunner,
            ShardedProgramRunner,
            compile_program,
        )

        kind = policy.mode_kind
        if kind not in ("auto", "single", "sharded"):
            raise ValidationError(
                f"program problems route through auto/single/sharded; "
                f"mode {policy.mode!r} is not supported for programs")
        plan = compiled
        if plan is None:
            plan = compile_program(problem.program, problem.grid, cache,
                                   options=dict(problem.options))
        mode = kind
        decision = None
        if mode == "auto":
            # direct solves decide against the full pool, like the
            # session's plain-kernel auto route (no lease is taken)
            decision = session.scheduler.decide_program(
                plan, problem.iterations,
                free_devices=session.pool.device_count)
            mode = decision.executor
            reason = reason or decision.reason

        if mode == "sharded":
            if policy.devices is not None:
                devices = policy.devices
            elif decision is not None:
                devices = session.scheduler.spec_for_program(decision, plan)
            else:
                devices = session.pool
            max_workers = policy.max_workers \
                if policy.max_workers is not None \
                else session.config.max_workers
            runner = ShardedProgramRunner(
                devices, shard_grid=policy.shard_grid, cache=cache,
                max_workers=max_workers, overlap=policy.overlap)
            result = runner.execute(plan, problem.grid, problem.iterations)
            devices_used = result.device_count
            # with a cache the run memoized its layout: this is a lookup
            fusion_groups = runner.partition(plan)[1]
            reason = reason or "explicit sharded program route"
        else:
            result = ProgramRunner().execute(plan, problem.grid,
                                             problem.iterations)
            devices_used = 1
            # no exchange exists on one device, so nothing fuses: the
            # executed grouping is one stage per group
            fusion_groups = tuple(
                (name,) for name in plan.program.stage_names)
            reason = reason or "explicit single-device program route"

        result = self._tagged(result, problem.tag)
        stage_fingerprints = tuple(
            f"{cstage.name}:{fingerprint}"
            for cstage in plan.stages
            for fingerprint in cstage.fingerprints)
        return Solution(
            result=result,
            compiled=plan,
            fingerprint=plan.fingerprint,
            provenance=Provenance(
                mode_requested=mode_requested or policy.mode,
                executor=self.name,
                engine=plan.engine,
                devices=devices_used,
                reason=reason,
                delegate=mode,
                boundary=plan.boundary,
                backend=plan.backend,
                stage_fingerprints=stage_fingerprints,
                fusion_groups=fusion_groups),
            tag=problem.tag)


class ExecutorRegistry:
    """Mode-name → executor-factory table of one session.

    Factories are zero-argument callables returning a
    :class:`SessionExecutor`; ``baseline:<name>`` modes resolve dynamically
    through :mod:`repro.baselines.registry` and need no registration.
    ``"auto"`` is not an executor — the session resolves it to ``single`` or
    ``sharded`` with its scheduler before reaching the registry.
    """

    def __init__(self, factories: Optional[Dict[str, Callable[[], SessionExecutor]]] = None) -> None:
        self._factories: Dict[str, Callable[[], SessionExecutor]] = dict(factories or {})

    def register(self, mode: str, factory: Callable[[], SessionExecutor], *,
                 replace: bool = False) -> None:
        require(isinstance(mode, str) and mode not in ("", "auto"),
                "mode must be a non-empty string other than 'auto'")
        require(not mode.startswith(BASELINE_MODE_PREFIX),
                f"'{BASELINE_MODE_PREFIX}*' modes resolve through the "
                f"baseline registry and cannot be overridden here")
        if not replace and mode in self._factories:
            raise ValidationError(f"mode {mode!r} already registered "
                                  f"(pass replace=True to override)")
        self._factories[mode] = factory

    def create(self, mode: str) -> SessionExecutor:
        kind, baseline = split_mode(mode)
        if kind == "baseline":
            return BaselineSessionExecutor(baseline)
        factory = self._factories.get(mode)
        if factory is None:
            raise ValidationError(
                f"unknown solve mode {mode!r}; available: {self.available()}")
        return factory()

    def available(self) -> List[str]:
        return sorted(self._factories) + ["auto", f"{BASELINE_MODE_PREFIX}<name>"]

    def copy(self) -> "ExecutorRegistry":
        return ExecutorRegistry(self._factories)


def default_registry() -> ExecutorRegistry:
    """A fresh registry holding the built-in execution modes."""
    registry = ExecutorRegistry()
    registry.register("single", SingleDeviceSessionExecutor)
    registry.register("sharded", ShardedSessionExecutor)
    registry.register("served", ServedSessionExecutor)
    registry.register("program", ProgramSessionExecutor)
    return registry

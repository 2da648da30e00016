"""Executor registry: how a :class:`StencilSession` reaches each engine.

Every execution mode is a :class:`SessionExecutor` — one object that turns a
``(Problem, SolvePolicy)`` pair into a :class:`~repro.session.problem.Solution`
against the session's cache and device pool.  The built-ins cover the four
engines the repo already has (single-device, sharded, the online server, and
the baseline comparators).  There is one executor per device count: the
``single`` and ``sharded`` executors run a kernel plan and a
:class:`~repro.programs.ProgramPlan` alike, and only their engine call
branches on the plan type.  New workloads register additional modes on an
:class:`ExecutorRegistry` instead of growing another top-level function:

>>> registry = default_registry()                      # doctest: +SKIP
>>> registry.register("replay", ReplayExecutor)        # doctest: +SKIP
>>> session.solve(problem, mode="replay")              # doctest: +SKIP
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.programs.compile import ProgramPlan, compile_program
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
              compiled: "Any" = None,
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
        """``(compiled, compile_request)`` — compiling through ``cache``
        when the session has not resolved them already.  A kernel's request
        comes from the cache's request memo
        (:meth:`~repro.service.CompileCache.request_for`), so a warm solve
        fingerprints nothing.  A program compiles stage by stage into a
        :class:`~repro.programs.ProgramPlan` and has no one compile request
        (``None``)."""
        if problem.is_program:
            if compiled is None:
                compiled = compile_program(problem.program, problem.grid,
                                           cache,
                                           options=dict(problem.options))
            return compiled, None
        if compile_request is None:
            compile_request = cache.request_for(problem)
        if compiled is None:
            compiled = cache.get_or_compile(compile_request)
        return compiled, compile_request


def _fingerprint(compiled: "Any", compile_request: "Any") -> str:
    """A kernel's compile request fingerprint, or a program's own."""
    return compiled.fingerprint if compile_request is None \
        else compile_request.fingerprint


def plan_provenance(compiled: "Any", route: str, reason: str,
                    fusion_groups: Tuple[Tuple[str, ...], ...]
                    ) -> Dict[str, Any]:
    """The :class:`Provenance` fields a run of a SparStencil plan fixes.

    The engine, boundary and backend are the plan's; a program's record
    also lists every stage tap's compile fingerprint and the
    ``fusion_groups`` the run executed.  An empty ``reason`` becomes the
    explicit ``route`` ("single-device" or "sharded") taken.
    """
    program = isinstance(compiled, ProgramPlan)
    return dict(
        engine=compiled.engine,
        reason=reason or f"explicit {route} "
                         f"{'program ' if program else ''}route",
        boundary=compiled.boundary,
        backend=compiled.backend,
        stage_fingerprints=tuple(
            f"{cstage.name}:{fingerprint}" for cstage in compiled.stages
            for fingerprint in cstage.fingerprints) if program else (),
        fusion_groups=fusion_groups)


class SingleDeviceSessionExecutor(SessionExecutor):
    """Compile (through the cache) and sweep a kernel or a program on one
    simulated device."""

    name = "single"

    def solve(self, session, problem, policy, *, compiled=None,
              compile_request=None, mode_requested=None, reason=""):
        compiled, compile_request = self._resolve_plan(
            problem, session.cache, compiled, compile_request)
        result, fusion_groups = self.sweep(session, compiled, problem.grid,
                                           problem.iterations, problem.tag)
        return Solution(
            result=result,
            compiled=compiled,
            fingerprint=_fingerprint(compiled, compile_request),
            provenance=Provenance(
                mode_requested=mode_requested or policy.mode,
                executor=self.name,
                devices=1,
                **plan_provenance(compiled, "single-device", reason,
                                  fusion_groups)),
            tag=problem.tag)

    @staticmethod
    def sweep(session: "Any", compiled: "Any", grid: "Any", iterations: int,
              tag: Optional[str] = None
              ) -> Tuple["Any", Tuple[Tuple[str, ...], ...]]:
        """``(result, fusion groups)`` of a resolved plan run on one device,
        the result built carrying ``tag``: a kernel on the
        :class:`~repro.engine.SingleDeviceExecutor` (leftover plans from the
        session cache), a program on the
        :class:`~repro.programs.ProgramRunner`."""
        if isinstance(compiled, ProgramPlan):
            from repro.programs.executor import ProgramRunner

            # no exchange exists on one device, so nothing fuses: the
            # executed grouping is one stage per group
            return (ProgramRunner().execute(compiled, grid, iterations,
                                            tag=tag),
                    tuple((name,) for name in compiled.program.stage_names))
        from repro.engine.single import SingleDeviceExecutor

        return SingleDeviceExecutor(cache=session.cache).execute(
            compiled, grid, iterations, tag=tag), ()


class ShardedSessionExecutor(SessionExecutor):
    """Domain-decomposed execution of a kernel or a chain program across
    the session pool (or the policy's device override).  Bit-identical to
    single-device execution."""

    name = "sharded"

    def solve(self, session, problem, policy, *, compiled=None,
              compile_request=None, mode_requested=None, reason=""):
        compiled, compile_request = self._resolve_plan(
            problem, session.cache, compiled, compile_request)
        devices = policy.devices if policy.devices is not None \
            else session.pool
        max_workers = policy.max_workers if policy.max_workers is not None \
            else session.config.max_workers
        fusion_groups: Tuple[Tuple[str, ...], ...] = ()
        if isinstance(compiled, ProgramPlan):
            from repro.programs.executor import ShardedProgramRunner

            if policy.halo_depth is not None:
                raise ValidationError(
                    f"halo_depth does not apply to programs — a sharded "
                    f"program's halo depth is its fusion-group span; got "
                    f"halo_depth={policy.halo_depth!r}")
            runner = ShardedProgramRunner(
                devices, shard_grid=policy.shard_grid, cache=session.cache,
                max_workers=max_workers, overlap=policy.overlap)
            result = runner.execute(compiled, problem.grid,
                                    problem.iterations, tag=problem.tag)
            # with a cache the run memoized its layout: this is a lookup
            fusion_groups = runner.partition(compiled)[1]
        else:
            from repro.engine.sharded import ShardedExecutor

            halo_depth = policy.halo_depth \
                if policy.halo_depth is not None else 1
            executor = ShardedExecutor(devices, shard_grid=policy.shard_grid,
                                       cache=session.cache,
                                       max_workers=max_workers,
                                       halo_depth=halo_depth,
                                       overlap=policy.overlap)
            result = executor.execute(compiled, problem.grid,
                                      problem.iterations, tag=problem.tag)
        return Solution(
            result=result,
            compiled=compiled,
            fingerprint=_fingerprint(compiled, compile_request),
            provenance=Provenance(
                mode_requested=mode_requested or policy.mode,
                executor=self.name,
                devices=result.device_count,
                **plan_provenance(compiled, "sharded", reason,
                                  fusion_groups)),
            tag=problem.tag)


class ServedSessionExecutor(SessionExecutor):
    """Route through the session's online server (admission queue, coalescer,
    device-pool scheduler); blocks until the request resolves.

    The server sweeps the request with this registry's ``single`` or
    ``sharded`` executor, so the provenance is built from that delegate's
    :class:`~repro.session.problem.Solution`.  The server compiles through
    the session cache.
    """

    name = "served"

    def solve(self, session, problem, policy, *, compiled=None,
              compile_request=None, mode_requested=None, reason=""):
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

    def solve(self, session, problem, policy, *, compiled=None,
              compile_request=None, mode_requested=None, reason=""):
        from repro.tcu.spec import A100_SPEC, DataType

        if problem.is_program:
            raise ValidationError(
                "a program problem cannot run on a baseline comparator")
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
    return registry

"""Compiling a :class:`~repro.programs.program.StencilProgram`.

Each stage tap becomes one canonical
:class:`~repro.service.fingerprint.CompileRequest` at the full grid shape,
resolved through a :class:`~repro.service.cache.CompileCache` — so a
program with N distinct kernels compiles N plans once and re-solving a warm
program is pure cache hits (per-stage attribution is recorded in the global
:class:`~repro.obs.metrics.MetricsRegistry`, section
``program_stage_cache``).

The per-stage fingerprints are folded into one *program fingerprint* under
the ``sparstencil-program-v1`` payload together with the DAG wiring
(execution-order source indices and the output index).  Stage *names* are
deliberately excluded — renaming a stage changes no computation — but
rewiring the same stages (``A -> B`` vs ``B -> A``) moves stage
fingerprints to different wiring positions and yields a different program
fingerprint.

Cross-stage fusion planning lives here too: for chain programs,
:class:`FusionPlan` groups maximal runs of consecutive equal-radius stages;
a group of ``m`` radius-``r`` stages executes under one halo exchange using
the deep-halo machinery (ghost width ``r + (m-1)*step``), so the executors
exchange once per group instead of once per stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.sharded import bound_groups
from repro.programs.program import STATE, ProgramStage, StencilProgram
from repro.service.fingerprint import CompileRequest, _digest
from repro.stencils.boundary import normalize_boundary
from repro.stencils.grid import Grid
from repro.util.validation import require

__all__ = [
    "CompiledStage",
    "FusionPlan",
    "ProgramPlan",
    "compile_program",
    "plan_fusion",
    "program_fingerprint",
]


def program_fingerprint(program: StencilProgram,
                        stage_requests: Dict[str, Tuple[CompileRequest, ...]]
                        ) -> str:
    """Fold per-tap compile fingerprints and the DAG wiring into one digest.

    The payload walks stages in execution order; each contributes its taps'
    wiring positions (``-1`` for ``"state"``, else the source stage's
    execution index) and compile fingerprints.  Together with the output
    index this pins the whole computation — grid shape, dtype, backend and
    boundary already live inside the per-tap fingerprints.
    """
    order = program.execution_order
    position = {stage.name: index for index, stage in enumerate(order)}
    stages_payload = []
    for stage in order:
        sources = tuple(-1 if source == STATE else position[source]
                        for source in stage.sources)
        fingerprints = tuple(request.fingerprint
                             for request in stage_requests[stage.name])
        stages_payload.append((sources, fingerprints))
    payload = (
        "sparstencil-program-v1",
        tuple(stages_payload),
        position[program.output],
    )
    return _digest(payload)


@dataclass(frozen=True)
class FusionPlan:
    """The cross-stage fusion decision for one program.

    ``groups`` partitions the execution order (stage names) into runs that
    can share one halo exchange: only chain programs fuse, and only
    consecutive stages of equal radius join a group (the deep-halo window
    shrink consumes one *radius* of ghost per sweep, so mixed radii would
    desynchronise the shrink geometry).  The sharded runners clamp group
    length to what the partition geometry supports with :meth:`bounded`'s
    rule, which bounds a kernel's ``("",) * halo_depth`` round group too.
    """

    groups: Tuple[Tuple[str, ...], ...]
    fusable: bool
    reason: str

    @property
    def max_span(self) -> int:
        return max(len(group) for group in self.groups)

    @property
    def fused(self) -> bool:
        """Whether any group actually merges more than one stage."""
        return self.max_span > 1

    def bounded(self, max_span: int) -> Tuple[Tuple[str, ...], ...]:
        """The groups re-chunked so no group exceeds ``max_span`` stages
        (:func:`repro.engine.sharded.bound_groups`)."""
        return bound_groups(self.groups, max_span)


def plan_fusion(program: StencilProgram) -> FusionPlan:
    """Group consecutive equal-radius chain stages under one exchange."""
    order = program.execution_order
    singleton = tuple((stage.name,) for stage in order)
    if not program.is_chain:
        return FusionPlan(groups=singleton, fusable=False,
                          reason="only single-tap chain programs fuse "
                                 "across stages")
    groups: List[Tuple[str, ...]] = []
    run: List[str] = []
    run_radius = None
    for stage in order:
        if run and stage.radius == run_radius:
            run.append(stage.name)
            continue
        if run:
            groups.append(tuple(run))
        run = [stage.name]
        run_radius = stage.radius
    groups.append(tuple(run))
    fused = any(len(group) > 1 for group in groups)
    reason = "consecutive equal-radius stages share one exchange" if fused \
        else "no consecutive stages share a radius"
    return FusionPlan(groups=tuple(groups), fusable=True, reason=reason)


@dataclass(frozen=True)
class CompiledStage:
    """One stage's compiled kernels (one plan per tap, execution-aligned)."""

    stage: ProgramStage
    requests: Tuple[CompileRequest, ...]
    compiled: Tuple[Any, ...]            # CompiledStencil per tap
    events: Tuple[Tuple[str, ...], ...]  # cache events per tap

    @property
    def name(self) -> str:
        return self.stage.name

    @property
    def radius(self) -> int:
        return self.stage.radius

    @property
    def fingerprints(self) -> Tuple[str, ...]:
        return tuple(request.fingerprint for request in self.requests)

    @property
    def sweep_seconds(self) -> float:
        """Modelled full-grid seconds of one pass of this stage (all taps)."""
        return sum(plan.plan.estimate.t_total for plan in self.compiled)


@dataclass(frozen=True)
class ProgramPlan:
    """A fully compiled program: per-stage plans plus the fusion decision.

    ``stages`` follows :attr:`StencilProgram.execution_order`.  The
    ``fingerprint`` is the program fingerprint (see
    :func:`program_fingerprint`); per-stage fingerprints are reachable via
    :attr:`stage_fingerprints` and recorded into
    :class:`~repro.session.problem.Provenance` by the session layer.
    """

    program: StencilProgram
    grid_shape: Tuple[int, ...]
    boundary: str
    stages: Tuple[CompiledStage, ...]
    fingerprint: str
    fusion: FusionPlan
    compile_seconds: float = 0.0

    @property
    def backend(self) -> str:
        return self.stages[0].compiled[0].backend

    @property
    def engine(self) -> str:
        engines = {plan.engine for stage in self.stages
                   for plan in stage.compiled}
        return next(iter(engines)) if len(engines) == 1 \
            else "+".join(sorted(engines))

    @property
    def dtype(self):
        return self.stages[0].compiled[0].plan.dtype

    @property
    def spec(self):
        """The device the stages were compiled for (the first stage's)."""
        return self.stages[0].compiled[0].spec

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    @property
    def uniform_radius(self) -> bool:
        return len({stage.radius for stage in self.stages}) == 1

    @property
    def radius(self) -> int:
        return max(stage.radius for stage in self.stages)

    @property
    def stage_fingerprints(self) -> Dict[str, Tuple[str, ...]]:
        return {stage.name: stage.fingerprints for stage in self.stages}

    @property
    def single_step_seconds(self) -> float:
        """Modelled single-device seconds of one program step."""
        return sum(stage.sweep_seconds for stage in self.stages)

    def stage_by_name(self, name: str) -> CompiledStage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        require(False, f"program plan has no stage {name!r}")


def compile_program(program: StencilProgram, grid: Grid, cache=None,
                    options: Optional[Dict[str, Any]] = None,
                    ) -> ProgramPlan:
    """Compile every stage of ``program`` for ``grid`` through ``cache``.

    ``options`` takes the :func:`repro.compile_stencil` keyword arguments
    shared by all stages (dtype, spec, engine, backend, ...); the grid's
    boundary condition is folded in exactly like
    :meth:`repro.session.Problem.compile_request` does, and
    ``temporal_fusion`` is rejected — a program already expresses its
    multi-sweep structure as stages.

    Per-tap cache events (``"hit"`` / ``"disk"`` / ``"compile"``) are
    recorded under the stage's name in the global metrics registry's
    ``program_stage_cache`` section, so a warm re-solve is visibly all
    stage hits.
    """
    from repro.programs.metrics import stage_cache_attribution
    from repro.service.cache import CompileCache

    require(isinstance(program, StencilProgram),
            f"program must be a StencilProgram, "
            f"got {type(program).__name__}")
    require(grid.ndim == program.ndim,
            f"grid ndim {grid.ndim} does not match program ndim "
            f"{program.ndim}")
    options = dict(options or {})
    fusion_option = options.pop("temporal_fusion", 1)
    require(fusion_option in (None, 1),
            "temporal_fusion does not apply to programs — stages already "
            "express the per-step pipeline")
    grid_boundary = normalize_boundary(getattr(grid, "boundary", None))
    boundary = normalize_boundary(options.setdefault("boundary",
                                                     grid_boundary))
    require(boundary == grid_boundary,
            f"options boundary {boundary!r} conflicts with the grid's "
            f"boundary {grid_boundary!r}")
    if cache is None:
        taps = sum(len(stage.taps) for stage in program.stages)
        cache = CompileCache(capacity=max(8, 2 * taps))

    attribution = stage_cache_attribution()
    start = time.perf_counter()
    stage_requests: Dict[str, Tuple[CompileRequest, ...]] = {}
    compiled_stages: List[CompiledStage] = []
    for stage in program.execution_order:
        requests = tuple(
            CompileRequest.build(pattern, tuple(grid.shape), **options)
            for _, pattern in stage.taps)
        stage_requests[stage.name] = requests
        plans = []
        tap_events: List[Tuple[str, ...]] = []
        for request in requests:
            events: List[str] = []
            plans.append(cache.get_or_compile(request, events=events))
            tap_events.append(tuple(events))
        attribution.record(program.name, stage.name,
                           [event for events in tap_events
                            for event in events])
        compiled_stages.append(CompiledStage(
            stage=stage, requests=requests, compiled=tuple(plans),
            events=tuple(tap_events)))
    compile_seconds = time.perf_counter() - start

    return ProgramPlan(
        program=program,
        grid_shape=tuple(grid.shape),
        boundary=boundary,
        stages=tuple(compiled_stages),
        fingerprint=program_fingerprint(program, stage_requests),
        fusion=plan_fusion(program),
        compile_seconds=compile_seconds,
    )

"""Tier 1: pre-flight domain diagnostics over Problems, Programs, policies.

Every rule here is *static*: it may resolve compile options and (through
the session's cache) compile a plan — exactly what admission already does
— but it never executes a sweep.  The analyzers re-use the repo's own
models (:meth:`GridPartition.max_halo_depth`, :func:`plan_fusion`,
:meth:`DevicePoolScheduler.decide`, :class:`ShardGeometry`,
``plan.estimate``), so a diagnostic always agrees with what the executors
would do at run time.

Codes (all registered in :mod:`repro.lint.diagnostics`):

========  ========  ======================================================
SP100     error     the problem's compile request does not resolve/compile
SP101     error     dead stage — never feeds the program output
SP102     warning   mixed-radius stage pair blocks fusion (priced split)
SP103     info      non-chain program: no cross-stage fusion applies
SP104     error     tap reads an unknown tensor
SP105     error     stage dependency cycle
SP106     error     duplicate stage name
SP110     warning   requested halo depth exceeds the geometry's maximum
SP111     warning   periodic interior not tile-divisible (depth forced to 1)
SP112     error     grid cannot be tiled into the requested shard count
SP120     error     unknown execution backend
SP121     error     baseline comparator cannot honour the boundary
SP122     error     conflicting problem/policy options
SP130     warning   explicit sharding below the modelled crossover
SP131     error     deadline shorter than one modelled device sweep
SP132     info      iterations not divisible by the temporal-fusion factor
SP133     warning   default deadline inside the coalescing window
SP134     warning   max batch size exceeds the queue bound
========  ========  ======================================================

Entry points: :func:`check_problem` (what
:meth:`repro.StencilSession.check` and the server's opt-in admission gate
call), :func:`lint_program` / :func:`lint_program_wiring`
(:meth:`repro.programs.StencilProgram.lint`), and :func:`check_config`
for session/server configs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Severity,
    emit,
    register_rule,
)

__all__ = [
    "check_problem",
    "check_config",
    "lint_program",
    "lint_program_wiring",
]

register_rule("SP100", "problem does not compile", Severity.ERROR, tier=1,
              hint="the message is the compiler's own — fix the pattern / "
                   "grid / options it names")
register_rule("SP101", "dead stage never feeds the output", Severity.ERROR,
              tier=1, hint="remove the stage or rewire a tap to consume it")
register_rule("SP102", "mixed-radius stage pair blocks fusion",
              Severity.WARNING, tier=1,
              hint="equalise the stage radii (or accept one extra halo "
                   "exchange per step at the split)")
register_rule("SP103", "non-chain program: no cross-stage fusion",
              Severity.INFO, tier=1,
              hint="only linear single-tap chains fuse under one exchange")
register_rule("SP104", "tap reads an unknown tensor", Severity.ERROR, tier=1,
              hint="tap sources must be 'state' or a declared stage name")
register_rule("SP105", "stage dependency cycle", Severity.ERROR, tier=1,
              hint="break the cycle — stages must form a DAG over 'state'")
register_rule("SP106", "duplicate stage name", Severity.ERROR, tier=1,
              hint="stage names must be unique within a program")
register_rule("SP110", "halo depth exceeds the geometry's maximum",
              Severity.WARNING, tier=1,
              hint="the executor clamps to the feasible depth — request "
                   "that depth, fewer shards, or a larger grid")
register_rule("SP111", "periodic interior not tile-divisible",
              Severity.WARNING, tier=1,
              hint="pad the grid so the interior is a multiple of the tile "
                   "extent, or accept halo depth 1")
register_rule("SP112", "grid cannot be tiled into the requested shards",
              Severity.ERROR, tier=1,
              hint="use fewer shards or a larger grid")
register_rule("SP120", "unknown backend", Severity.ERROR, tier=1,
              hint="pick a registered backend "
                   "(repro.core.codegen.registered_backends())")
register_rule("SP121", "baseline cannot honour the boundary",
              Severity.ERROR, tier=1,
              hint="baseline comparators implement dirichlet only")
register_rule("SP122", "conflicting problem/policy options", Severity.ERROR,
              tier=1,
              hint="make the two layers agree explicitly — no silent winner")
register_rule("SP130", "explicit sharding below the modelled crossover",
              Severity.WARNING, tier=1,
              hint="let mode='auto' route it, or accept the modelled "
                   "slowdown")
register_rule("SP131", "deadline shorter than one modelled sweep",
              Severity.ERROR, tier=1,
              hint="raise the deadline past the modelled sweep time or "
                   "shrink the problem")
register_rule("SP132", "iterations not divisible by temporal fusion",
              Severity.INFO, tier=1,
              hint="leftover sweeps run single-device; align iterations "
                   "with the fusion factor to shard them all")
register_rule("SP133", "default deadline inside the coalescing window",
              Severity.WARNING, tier=1,
              hint="raise default_deadline_seconds above window_seconds — "
                   "the batching window alone consumes the budget")
register_rule("SP134", "max batch size exceeds the queue bound",
              Severity.WARNING, tier=1,
              hint="a full batch can never form; raise queue_bound or "
                   "shrink max_batch_size")

#: The reserved program-state tap source (mirrors repro.programs.STATE
#: without importing the heavy module at import time).
_STATE = "state"


# --------------------------------------------------------------------- #
# program wiring (SP101 / SP104 / SP105 / SP106)
# --------------------------------------------------------------------- #
def lint_program_wiring(name: str, stages: Sequence[Any],
                        output: str = "") -> DiagnosticReport:
    """Diagnose raw stage wiring *without* constructing a
    :class:`~repro.programs.StencilProgram` (whose constructor rejects bad
    wiring outright).  ``stages`` is a sequence of
    :class:`~repro.programs.ProgramStage`; ``output`` defaults to the last
    declared stage."""
    findings: List[Diagnostic] = []
    names = [stage.name for stage in stages]
    by_name: Dict[str, Any] = {}
    for stage in stages:
        if stage.name in by_name:
            findings.append(emit(
                "SP106", f"stage {stage.name!r} is declared more than once",
                location=f"program:{name}",
                details={"stage": stage.name}))
        by_name[stage.name] = stage
    if not names:
        return DiagnosticReport.build(findings)
    output = output or names[-1]

    for stage in stages:
        for source in stage.sources:
            if source != _STATE and source not in by_name:
                findings.append(emit(
                    "SP104",
                    f"stage {stage.name!r} reads {source!r}, which is "
                    f"neither {_STATE!r} nor a declared stage",
                    location=f"program:{name}.{stage.name}",
                    details={"stage": stage.name, "source": source}))

    # Kahn's walk over the *known* edges; unknown sources were reported
    # above and are treated as satisfied so one typo does not cascade.
    placed: Set[str] = {_STATE}
    remaining = list(by_name.values())
    while remaining:
        ready = [stage for stage in remaining
                 if all(src in placed or src not in by_name
                        for src in stage.sources)]
        if not ready:
            cycle = sorted(stage.name for stage in remaining)
            findings.append(emit(
                "SP105",
                f"stages {cycle} form a dependency cycle",
                location=f"program:{name}",
                details={"cycle": cycle}))
            break
        for stage in ready:
            placed.add(stage.name)
        remaining = [s for s in remaining if s.name not in placed]

    if output in by_name:
        live: Set[str] = set()
        frontier = [output]
        while frontier:
            stage_name = frontier.pop()
            if stage_name in live or stage_name == _STATE:
                continue
            live.add(stage_name)
            frontier.extend(src for src in by_name[stage_name].sources
                            if src in by_name)
        for dead in sorted(set(by_name) - live):
            findings.append(emit(
                "SP101",
                f"stage {dead!r} never feeds the output stage {output!r} — "
                f"it would silently burn compute every step",
                location=f"program:{name}.{dead}",
                details={"stage": dead, "output": output}))
    else:
        findings.append(emit(
            "SP104", f"output stage {output!r} is not a declared stage",
            location=f"program:{name}",
            details={"output": output}))
    return DiagnosticReport.build(findings)


def _split_exchange_cost(radius: int, ndim: int,
                         grid_shape: Optional[Tuple[int, ...]],
                         boundary: str, devices: int,
                         spec: Optional[Any],
                         itemsize: int) -> Optional[float]:
    """Modelled seconds of the extra per-step halo exchange a fusion split
    costs: the slowest shard's receive in the
    :class:`~repro.engine.sharded.ShardGeometry` the sharded executor bills
    (best effort: ``None`` when the geometry is unknown or infeasible)."""
    if grid_shape is None or devices < 2:
        return None
    from repro.engine.sharded import ShardGeometry
    from repro.stencils.partition import GridPartition
    from repro.tcu.spec import MultiDeviceSpec
    from repro.util.validation import ValidationError

    if spec is None:
        spec = MultiDeviceSpec(device_count=devices)
    try:
        partition = GridPartition.build(grid_shape, radius, devices,
                                        boundary=boundary, halo_depth=1)
    except ValidationError:
        return None
    return ShardGeometry.build(partition, spec,
                               itemsize).halo_seconds_per_exchange


def lint_program(program: Any, *,
                 grid_shape: Optional[Sequence[int]] = None,
                 boundary: str = "dirichlet",
                 devices: int = 1,
                 spec: Optional[Any] = None,
                 itemsize: int = 2) -> DiagnosticReport:
    """Diagnose a constructed :class:`~repro.programs.StencilProgram`.

    Wiring defects cannot exist on a constructed program (its constructor
    rejects them), so this pass reports the *fusion* story: SP103 for
    non-chain programs, SP102 for every fusion-group boundary a radius
    change forces — naming the stage pair and, when ``grid_shape`` and
    ``devices`` describe a sharded deployment, the modelled cost of the
    extra halo exchange the split incurs per program step.
    """
    from repro.programs.compile import plan_fusion

    findings: List[Diagnostic] = []
    location = f"program:{program.name}"
    if not program.is_chain:
        findings.append(emit(
            "SP103",
            f"program {program.name!r} is not a linear chain — stages "
            f"execute under one exchange per stage, with no cross-stage "
            f"fusion",
            location=location,
            details={"stages": list(program.stage_names)}))
        return DiagnosticReport.build(findings)

    fusion = plan_fusion(program)
    groups = fusion.groups
    if len(groups) <= 1:
        return DiagnosticReport.build(findings)
    grid = None if grid_shape is None else tuple(int(s) for s in grid_shape)
    for before_group, after_group in zip(groups, groups[1:]):
        before, after = before_group[-1], after_group[0]
        r_before = program.stage(before).radius
        r_after = program.stage(after).radius
        details: Dict[str, Any] = {
            "pair": [before, after],
            "radii": [r_before, r_after],
            "groups": [list(g) for g in groups],
        }
        cost = _split_exchange_cost(max(r_before, r_after), program.ndim,
                                    grid, boundary, devices, spec, itemsize)
        message = (f"stages {before!r} (radius {r_before}) -> {after!r} "
                   f"(radius {r_after}) cannot share a fused halo "
                   f"exchange: the radius change splits the chain here")
        if cost is not None:
            details["split_exchange_seconds"] = cost
            message += (f"; the split costs one extra exchange per step "
                        f"(modelled {cost * 1e6:.2f} us on {devices} "
                        f"devices)")
        findings.append(emit(
            "SP102", message, location=f"{location}.{before}->{after}",
            details=details))
    return DiagnosticReport.build(findings)


# --------------------------------------------------------------------- #
# configs (SP133 / SP134)
# --------------------------------------------------------------------- #
def check_config(config: Any) -> DiagnosticReport:
    """Diagnose a :class:`~repro.session.SessionConfig` or
    :class:`~repro.server.facade.ServerConfig` (duck-typed on the shared
    served-mode fields)."""
    findings: List[Diagnostic] = []
    kind = type(config).__name__
    deadline = getattr(config, "default_deadline_seconds", None)
    window = getattr(config, "window_seconds", None)
    if deadline is not None and window is not None and deadline <= window:
        findings.append(emit(
            "SP133",
            f"default_deadline_seconds ({deadline}) does not outlast the "
            f"coalescing window ({window}) — every defaulted request can "
            f"expire while batching",
            location=f"{kind}.default_deadline_seconds",
            details={"default_deadline_seconds": deadline,
                     "window_seconds": window}))
    bound = getattr(config, "queue_bound", None)
    batch = getattr(config, "max_batch_size", None)
    if bound is not None and batch is not None and batch > bound:
        findings.append(emit(
            "SP134",
            f"max_batch_size ({batch}) exceeds queue_bound ({bound}) — a "
            f"full micro-batch can never form",
            location=f"{kind}.max_batch_size",
            details={"max_batch_size": batch, "queue_bound": bound}))
    return DiagnosticReport.build(findings)


# --------------------------------------------------------------------- #
# problems (everything else)
# --------------------------------------------------------------------- #
def _device_count(policy: Any, scheduler: Any) -> int:
    devices = getattr(policy, "devices", None)
    if devices is None:
        return int(scheduler.pool.device_count)
    if isinstance(devices, int):
        return devices
    return int(getattr(devices, "device_count", 1))


def _check_backend(name: Optional[str], where: str) -> List[Diagnostic]:
    from repro.core.codegen import registered_backends

    if name is None:
        return []
    registered = registered_backends()
    if name not in registered:
        return [emit(
            "SP120",
            f"backend {name!r} is not registered (registered: "
            f"{', '.join(registered)})",
            location=where,
            details={"backend": name, "registered": list(registered)})]
    return []


def check_problem(problem: Any, policy: Optional[Any] = None, *,
                  scheduler: Optional[Any] = None,
                  cache: Optional[Any] = None,
                  devices: int = 1) -> DiagnosticReport:
    """Every Tier-1 diagnostic for one ``(problem, policy)`` pair.

    ``scheduler`` (a :class:`~repro.server.scheduler.DevicePoolScheduler`)
    supplies the pool, the crossover thresholds and the routing model;
    standalone callers may pass ``devices`` instead and get a default
    scheduler over that many simulated A100s.  ``cache`` (a
    :class:`~repro.service.cache.CompileCache`) amortises the one compile
    the perf rules need — plans land in the same cache a subsequent solve
    would hit, so checking costs nothing extra end to end.  No sweep is
    ever executed.
    """
    from repro.server.scheduler import DevicePoolScheduler
    from repro.session.problem import SolvePolicy
    from repro.util.validation import ValidationError

    if policy is None:
        policy = SolvePolicy()
    if scheduler is None:
        scheduler = DevicePoolScheduler(devices)

    findings: List[Diagnostic] = []
    mode_kind = policy.mode_kind

    # -- policy/problem conflicts (SP122, SP121, SP120) ------------------- #
    option_backend = problem.options.get("backend")
    if (policy.backend is not None and option_backend is not None
            and policy.backend != option_backend):
        findings.append(emit(
            "SP122",
            f"options backend {option_backend!r} conflicts with the policy "
            f"backend {policy.backend!r}",
            location="policy.backend",
            details={"options_backend": option_backend,
                     "policy_backend": policy.backend}))
    backend = policy.backend if policy.backend is not None else option_backend
    findings.extend(_check_backend(backend, "policy.backend"
                                   if policy.backend is not None
                                   else "options.backend"))

    option_boundary = problem.options.get("boundary")
    boundary = problem.boundary
    if option_boundary is not None:
        from repro.stencils.boundary import normalize_boundary

        try:
            normalized = normalize_boundary(option_boundary)
        except ValidationError as exc:
            normalized = None
            findings.append(emit("SP100", str(exc),
                                 location="options.boundary"))
        if normalized is not None and normalized != boundary:
            findings.append(emit(
                "SP122",
                f"options boundary {normalized!r} conflicts with the "
                f"grid's boundary {boundary!r}",
                location="options.boundary",
                details={"options_boundary": normalized,
                         "grid_boundary": boundary}))

    if mode_kind == "baseline":
        if boundary != "dirichlet":
            findings.append(emit(
                "SP121",
                f"baseline {policy.baseline_name!r} implements dirichlet "
                f"boundaries only; the problem's grid is {boundary!r}",
                location="policy.mode",
                details={"baseline": policy.baseline_name,
                         "boundary": boundary}))
        if problem.is_program:
            findings.append(emit(
                "SP122",
                "a program problem cannot run on a baseline comparator",
                location="policy.mode",
                details={"mode": policy.mode}))
    if problem.is_program and mode_kind == "served":
        findings.append(emit(
            "SP122",
            "a program problem cannot be served — the server admits "
            "single-pattern compile requests only",
            location="policy.mode",
            details={"mode": policy.mode}))

    # -- program problems: wiring is constructor-checked; fusion story ---- #
    if problem.is_program:
        n_devices = _device_count(policy, scheduler)
        report = lint_program(problem.program,
                              grid_shape=problem.grid_shape,
                              boundary=boundary,
                              devices=n_devices,
                              spec=scheduler.pool
                              if n_devices == scheduler.pool.device_count
                              else None)
        return DiagnosticReport.build(findings).merged(report)

    # a hard conflict above (backend/boundary) makes the compile moot —
    # and its failure would only repeat the same finding less precisely
    if any(f.code in ("SP120", "SP122") for f in findings):
        return DiagnosticReport.build(findings)

    # -- the compile request (SP100) -------------------------------------- #
    try:
        request = cache.request_for(problem) if cache is not None \
            else problem.compile_request()
    except ValidationError as exc:
        findings.append(emit("SP100", str(exc), location="problem",
                             details={"stage": "resolve"}))
        return DiagnosticReport.build(findings)

    options = request.options
    if problem.iterations % options.temporal_fusion != 0:
        findings.append(emit(
            "SP132",
            f"iterations ({problem.iterations}) are not divisible by the "
            f"temporal-fusion factor ({options.temporal_fusion}) — "
            f"leftover sweeps run single-device",
            location="problem.iterations",
            details={"iterations": problem.iterations,
                     "temporal_fusion": options.temporal_fusion}))

    # One compile, through the caller's cache when given — the same
    # compile a subsequent solve would pay anyway.  Never a sweep.
    try:
        compiled = cache.get_or_compile(request) if cache is not None \
            else request.compile()
    except ValidationError as exc:
        findings.append(emit("SP100", str(exc), location="problem",
                             details={"stage": "compile"}))
        return DiagnosticReport.build(findings)

    # -- deadline vs the modelled sweep (SP131) ---------------------------- #
    sweep_seconds = float(compiled.plan.estimate.t_total)
    if (policy.deadline_seconds is not None
            and policy.deadline_seconds <= sweep_seconds):
        findings.append(emit(
            "SP131",
            f"deadline ({policy.deadline_seconds:.3g}s) does not cover one "
            f"modelled device sweep ({sweep_seconds:.3g}s) — the request "
            f"can never finish in time",
            location="policy.deadline_seconds",
            details={"deadline_seconds": policy.deadline_seconds,
                     "modelled_sweep_seconds": sweep_seconds,
                     "modelled_total_seconds":
                         sweep_seconds * problem.iterations}))

    # -- sharding geometry (SP110 / SP111 / SP112) ------------------------- #
    n_devices = _device_count(policy, scheduler)
    if mode_kind in ("auto", "sharded") and n_devices >= 2:
        from repro.stencils.partition import GridPartition, plan_shard_grid

        grid_shape = problem.grid_shape
        radius = compiled.pattern.radius
        align = compiled.plan.config.r
        shard_grid: Any = policy.shard_grid \
            if policy.shard_grid is not None else n_devices
        try:
            feasible = GridPartition.max_halo_depth(
                grid_shape, radius, shard_grid, align=align,
                boundary=boundary)
        except ValidationError as exc:
            findings.append(emit(
                "SP112",
                f"{n_devices}-way sharding is infeasible: {exc}",
                location="policy.devices",
                details={"devices": n_devices,
                         "shard_grid": list(policy.shard_grid)
                         if policy.shard_grid is not None else None,
                         "grid_shape": list(grid_shape)}))
            feasible = None
        if feasible is not None:
            if (policy.halo_depth is not None
                    and policy.halo_depth > feasible):
                findings.append(emit(
                    "SP110",
                    f"halo_depth {policy.halo_depth} exceeds the deepest "
                    f"depth this geometry supports ({feasible}) — the "
                    f"executor will clamp it",
                    location="policy.halo_depth",
                    details={"requested": policy.halo_depth,
                             "feasible": feasible,
                             "devices": n_devices}))
            if boundary == "periodic":
                out_shape = tuple(s - 2 * radius for s in grid_shape)
                resolved = plan_shard_grid(out_shape, n_devices) \
                    if not isinstance(shard_grid, (tuple, list)) \
                    else tuple(shard_grid)
                ragged = [ax for ax, count in enumerate(resolved)
                          if count > 1 and out_shape[ax] % align[ax] != 0]
                if ragged:
                    findings.append(emit(
                        "SP111",
                        f"periodic interior {out_shape} is not divisible "
                        f"by the tile extents {tuple(align)} on sharded "
                        f"axes {ragged} — communication-avoiding depth is "
                        f"forced to 1",
                        location="problem.grid",
                        details={"interior": list(out_shape),
                                 "align": list(align),
                                 "axes": ragged}))

    # -- explicit sharding below the crossover (SP130) --------------------- #
    if mode_kind == "sharded" and n_devices >= 2:
        decision = scheduler.decide(compiled, problem.iterations,
                                    free_devices=n_devices)
        if decision.executor == "single" \
                and "not divisible" not in decision.reason:
            findings.append(emit(
                "SP130",
                f"explicit sharded mode, but the perf model routes this "
                f"problem single-device: {decision.reason}",
                location="policy.mode",
                details={"reason": decision.reason,
                         "modelled_speedup": decision.modelled_speedup,
                         "min_speedup": scheduler.min_speedup,
                         "devices": n_devices}))

    return DiagnosticReport.build(findings)

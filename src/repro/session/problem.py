"""The session layer's typed vocabulary: ``Problem`` → ``Solution``.

Every execution mode the reproduction has — single-device, sharded
multi-device, the online server, and the baseline comparators — takes the
same argument convention:

* :class:`Problem` — *what* to solve: a stencil pattern, a grid, an
  iteration count, the compile options and an optional attribution tag.
  It is the one request type of the session, the batch service and the
  server.
* :class:`SolvePolicy` — *how* to solve it: the routing mode
  (``auto | single | sharded | served | baseline:<name>``), a deadline,
  the device/shard spec and batching hints.
* :class:`Solution` — *what happened*: the output and run metrics, the
  compiled plan and its fingerprint, and a :class:`Provenance` record of
  which engine actually executed and why.

This module deliberately imports nothing heavyweight from the package at
module level, so the lower layers (the batch service, the server queue) can
share the vocabulary without import cycles.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "SOLVE_MODES",
    "BASELINE_MODE_PREFIX",
    "split_mode",
    "Problem",
    "SolvePolicy",
    "Provenance",
    "Solution",
]

#: Routing modes the session resolves itself; ``baseline:<name>`` is open
#: (any registered comparator), and custom modes may be added through the
#: :class:`repro.session.registry.ExecutorRegistry`.
SOLVE_MODES = ("auto", "single", "sharded", "served")

BASELINE_MODE_PREFIX = "baseline:"


def split_mode(mode: str) -> Tuple[str, Optional[str]]:
    """``(kind, baseline_name)`` of a policy mode string.

    ``"auto" -> ("auto", None)``; ``"baseline:cudnn" -> ("baseline",
    "cudnn")``.  Unknown plain modes pass through as ``(mode, None)`` so
    custom executors registered on an :class:`ExecutorRegistry` stay
    reachable; the registry raises on genuinely unknown names.
    """
    from repro.util.validation import require

    require(isinstance(mode, str) and mode != "", "mode must be a non-empty string")
    if mode.startswith(BASELINE_MODE_PREFIX):
        name = mode[len(BASELINE_MODE_PREFIX):]
        require(name != "", "baseline mode needs a method name, e.g. 'baseline:cudnn'")
        return "baseline", name
    return mode, None


@dataclass
class Problem:
    """One unit of stencil work, independent of *how* it will execute.

    ``options`` takes the same keyword arguments as
    :func:`repro.compile_stencil` (dtype, spec, engine, temporal_fusion, ...).
    ``dtype`` may also be passed directly as a convenience; it is folded into
    ``options`` at construction.  ``tag`` is the attribution label carried
    through every execution path into the result
    (:attr:`repro.core.pipeline.StencilRunResult.tag`,
    :meth:`repro.service.BatchReport.by_tag`).
    """

    pattern: Optional["Any"] = None  # repro.stencils.pattern.StencilPattern
    grid: "Any" = None               # repro.stencils.grid.Grid
    iterations: int = 0
    options: Dict[str, Any] = field(default_factory=dict)
    tag: Optional[str] = None
    dtype: InitVar[Optional[Any]] = None
    program: Optional["Any"] = None  # repro.programs.StencilProgram

    def __post_init__(self, dtype: Optional[Any]) -> None:
        from repro.util.validation import require, require_positive_int

        self.options = dict(self.options)
        if dtype is not None:
            self.options.setdefault("dtype", dtype)
        require((self.pattern is None) != (self.program is None),
                "a Problem takes exactly one of pattern= or program=")
        require(self.grid is not None, "a Problem needs a grid")
        require_positive_int(self.iterations, "iterations")

    @property
    def is_program(self) -> bool:
        """Whether this problem is a multi-stage
        :class:`~repro.programs.StencilProgram` rather than a single
        pattern."""
        return self.program is not None

    def compile_request(self) -> "Any":
        """The canonical, fingerprinted compile request of this problem.

        The grid's boundary condition is folded into the compile options
        (and thereby the fingerprint); an explicit ``options["boundary"]``
        must agree with the grid — a plan compiled for one boundary can
        never serve a grid with another.
        """
        from repro.service.fingerprint import CompileRequest
        from repro.stencils.boundary import normalize_boundary
        from repro.util.validation import require

        require(not self.is_program,
                "a program Problem has no single compile request — compile "
                "it with repro.programs.compile_program (or let the session "
                "route it)")
        options = dict(self.options)
        grid_boundary = normalize_boundary(
            getattr(self.grid, "boundary", None))
        boundary = normalize_boundary(
            options.setdefault("boundary", grid_boundary))
        require(boundary == grid_boundary,
                f"options boundary {boundary!r} conflicts with the grid's "
                f"boundary {grid_boundary!r}")
        return CompileRequest.build(
            self.pattern, tuple(self.grid.shape), **options)

    @property
    def boundary(self) -> str:
        """The problem's boundary condition (carried on its grid)."""
        from repro.stencils.boundary import normalize_boundary

        return normalize_boundary(getattr(self.grid, "boundary", None))

    @property
    def grid_shape(self) -> Tuple[int, ...]:
        return tuple(self.grid.shape)

    def describe(self) -> str:
        what = (f"program {self.program.name!r} "
                f"({len(self.program.stages)} stages)"
                if self.is_program else self.pattern.name)
        return (f"{what} on {self.grid_shape} "
                f"x{self.iterations} iterations"
                + (f" [{self.tag}]" if self.tag else ""))


@dataclass(frozen=True)
class SolvePolicy:
    """How a :class:`Problem` should be routed and executed.

    Attributes
    ----------
    mode:
        ``"auto"`` (the session's perf/partition model picks single vs
        sharded), ``"single"``, ``"sharded"``, ``"served"`` (through the
        session's online server), ``"baseline:<name>"`` (any registered
        comparator), or a custom mode registered on the session's
        :class:`~repro.session.registry.ExecutorRegistry`.
    deadline_seconds:
        Served-mode deadline (admission + queue wait); ignored by the
        synchronous executors, which cannot abandon work mid-run.
    devices:
        Device override for sharded execution: an int shard/device count or a
        :class:`repro.tcu.spec.MultiDeviceSpec`.  Defaults to the session's
        pool.
    shard_grid:
        Optional shards-per-axis override for sharded execution.
    halo_depth:
        Communication-avoiding halo depth for sharded execution: ghost
        regions deep enough that one halo exchange validates ``halo_depth``
        consecutive sweeps (the intervening sweeps recompute the ghost zone
        redundantly).  ``None`` defers to the route: the classic depth 1
        for an explicit ``"sharded"`` solve, the scheduler's modelled best
        depth under ``"auto"``.  Clamped to what the partition geometry
        supports.
    overlap:
        Whether sharded execution overlaps halo exchange with interior
        compute (``max(interior, exchange) + rim`` per post-exchange sweep
        in the modelled timeline).
    max_workers:
        Thread-pool width override for sharded sweeps / batched compiles.
    window_seconds / max_batch_size:
        Served-mode batching hints, applied when the session first
        materialises its server (a live server's coalescer is not
        reconfigured per request).
    backend:
        Execution backend override (a registered name from
        :mod:`repro.core.codegen`, e.g. ``"tcu-sim"`` or ``"numpy"``).
        ``None`` defers to the problem's ``options["backend"]``, then the
        ``REPRO_BACKEND`` environment default.  An explicit policy backend
        that conflicts with the problem's own option is an error — two
        layers silently disagreeing about numerics must not pick a winner.
    """

    mode: str = "auto"
    deadline_seconds: Optional[float] = None
    devices: Optional[Any] = None
    shard_grid: Optional[Tuple[int, ...]] = None
    halo_depth: Optional[int] = None
    overlap: bool = True
    max_workers: Optional[int] = None
    window_seconds: Optional[float] = None
    max_batch_size: Optional[int] = None
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        split_mode(self.mode)  # validates the shape of the mode string

    @property
    def mode_kind(self) -> str:
        return split_mode(self.mode)[0]

    @property
    def baseline_name(self) -> Optional[str]:
        return split_mode(self.mode)[1]


@dataclass(frozen=True)
class Provenance:
    """Which engine actually ran a problem, and why.

    ``executor`` is the registry key that executed (``"single"``,
    ``"sharded"``, ``"served"``, ``"baseline:<name>"``); ``delegate`` is the
    executor a *served* request was ultimately routed to by the server's
    scheduler.  ``engine`` is the device engine of the compiled plan
    (``"sparse_mma"`` / ``"dense_mma"``) or the baseline's display name.
    ``boundary`` records the boundary condition the run was executed (and
    its plan compiled) under.  ``backend`` records the execution backend
    the plan's sweeps ran on (:mod:`repro.core.codegen`; empty for
    baseline comparators, which never touch the SparStencil pipeline).
    ``trace_id`` links the solution to its spans when the session solved it
    under an enabled :class:`repro.obs.Tracer` (empty otherwise) — any
    served answer is auditable back to its queue-wait/compile/sweep spans.

    For program problems (:class:`~repro.programs.StencilProgram`),
    ``stage_fingerprints`` lists every stage tap's compile fingerprint in
    execution order (``"stage:fingerprint"`` strings; multi-tap stages
    contribute one entry per tap) and ``fusion_groups`` records the fusion
    decision the run executed — the stage names sharing each halo exchange
    (singleton groups on the single-device path, where no exchange exists
    to fuse).  Both stay empty for plain pattern problems.
    """

    mode_requested: str
    executor: str
    engine: str
    devices: int
    reason: str
    batch_size: int = 1
    delegate: Optional[str] = None
    boundary: str = "dirichlet"
    backend: str = "tcu-sim"
    trace_id: str = ""
    stage_fingerprints: Tuple[str, ...] = ()
    fusion_groups: Tuple[Tuple[str, ...], ...] = ()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "mode_requested": self.mode_requested,
            "executor": self.executor,
            "engine": self.engine,
            "devices": self.devices,
            "reason": self.reason,
            "batch_size": self.batch_size,
            "delegate": self.delegate,
            "boundary": self.boundary,
            "backend": self.backend,
            "trace_id": self.trace_id,
            "stage_fingerprints": list(self.stage_fingerprints),
            "fusion_groups": [list(group) for group in self.fusion_groups],
        }


@dataclass(frozen=True)
class Solution:
    """The uniform outcome of solving one :class:`Problem`.

    Attributes
    ----------
    result:
        The execution-layer result: a
        :class:`~repro.core.pipeline.StencilRunResult`, a
        :class:`~repro.engine.ShardedRunResult`, or a
        :class:`~repro.baselines.base.BaselineResult` for baseline modes.
    compiled:
        The SparStencil plan that ran (``None`` for baseline comparators,
        which own their cost models end to end).
    fingerprint:
        Canonical compile fingerprint of the problem (empty when the problem
        is not expressible as a SparStencil compile, or for precompiled plans
        whose original request is unknown).
    provenance:
        The :class:`Provenance` record: which engine ran, on how many
        devices, and why the router chose it.
    """

    result: "Any"
    compiled: Optional["Any"]
    fingerprint: str
    provenance: Provenance
    tag: Optional[str] = None

    @property
    def output(self) -> "Any":
        return self.result.output

    @property
    def elapsed_seconds(self) -> float:
        return self.result.elapsed_seconds

    @property
    def gstencil_per_second(self) -> float:
        return self.result.gstencil_per_second

    @property
    def utilization(self) -> "Any":
        return self.result.utilization

    def summary(self) -> Dict[str, Any]:
        """Flat dict for logs and benchmark envelopes."""
        summary: Dict[str, Any] = {
            "tag": self.tag,
            "fingerprint": self.fingerprint,
            "elapsed_seconds": self.result.elapsed_seconds,
            "gstencil_per_second": self.result.gstencil_per_second,
            "iterations": self.result.iterations,
        }
        summary.update(self.provenance.as_dict())
        return summary

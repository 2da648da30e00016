"""Per-layer spans recorded by the benchmark around calls into each layer.

:class:`Instrumentation` wraps public functions of the program's layers
(the session front door, the compile cache, the compiler, the router, the
engines, boundary fills, halo exchange, the program runners) so every call
opens a span on the session's own :class:`repro.Tracer`.  The wrappers are
installed only around traced requests and removed after them, so untraced
requests run the program untouched.  Nothing inside the program changes;
the spans the program already records (``solve``, ``cache.lookup``,
``round``, ``queue_wait``...) stay in the trace and are *transparent* here
unless :data:`LAYER_OF` names them.

:func:`breakdown` folds one request's spans into per-span-name self time:
a span's duration minus the union of its nearest attributed descendants'
intervals, so concurrent shard sweeps on a thread pool count once.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench.stats import overlap_time, self_time

#: Span name -> layer (the repo module that owns the work).  Names the
#: benchmark records, plus the server spans the program records itself.
LAYER_OF: Dict[str, str] = {
    "session.solve": "session",
    "session.fingerprint": "session",
    "session.route": "session",
    "service.cache_lookup": "service",
    "core.compile": "core",
    "engine.execute": "engine",
    "engine.shard_compile": "engine",
    "engine.sweep": "engine",
    "engine.gather": "engine",
    "engine.mma": "engine",
    "engine.assemble": "engine",
    "stencils.boundary_fill": "stencils",
    "stencils.halo_exchange": "stencils",
    "programs.execute": "programs",
    "request": "server",
    "queue_wait": "server",
    "route": "server",
}


#: Span names recorded only on the request thread.
REQUEST_THREAD_ONLY = frozenset({"session.route"})


def _targets() -> List[Tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` of every wrapped call site.

    Module-level functions are patched in each module that imported them,
    because that module's global is what the caller looks up.
    """
    import repro.engine.base as engine_base
    import repro.engine.sharded as engine_sharded
    import repro.engine.single as engine_single
    import repro.programs.executor as programs_executor
    import repro.programs.program as programs_program
    from repro import GridPartition, Problem, ProgramRunner, ShardedProgramRunner
    from repro.engine import ShardedExecutor, SingleDeviceExecutor
    from repro.server.scheduler import DevicePoolScheduler
    from repro.service.cache import CompileCache
    from repro.service.fingerprint import CompileRequest

    targets = [
        (Problem, "compile_request", "session.fingerprint"),
        (DevicePoolScheduler, "decide", "session.route"),
        (DevicePoolScheduler, "decide_program", "session.route"),
        (CompileCache, "get_or_compile", "service.cache_lookup"),
        (CompileRequest, "compile", "core.compile"),
        (SingleDeviceExecutor, "execute", "engine.execute"),
        (ShardedExecutor, "execute", "engine.execute"),
        (engine_base, "gather_step", "engine.gather"),
        (engine_base, "mma_step", "engine.mma"),
        (engine_base, "assemble_step", "engine.assemble"),
        (GridPartition, "exchange_halos", "stencils.halo_exchange"),
        (GridPartition, "refresh_local_boundaries", "stencils.boundary_fill"),
        (ProgramRunner, "execute", "programs.execute"),
        (ShardedProgramRunner, "execute", "programs.execute"),
    ]
    for module in (engine_single, engine_sharded, programs_executor):
        targets.append((module, "run_sweep", "engine.sweep"))
    for module in (engine_sharded, programs_executor):
        targets.append((module, "build_shard_phases", "engine.shard_compile"))
    for module in (engine_single, engine_sharded, programs_executor,
                   programs_program):
        targets.append((module, "apply_boundary", "stencils.boundary_fill"))
    return targets


class Instrumentation:
    """Install / remove the benchmark's span wrappers on one tracer.

    Wrappers parent their span on the ambient span when the calling thread
    has one.  Threads without a trace context (the sharded engines' shard
    pools) fall back to the innermost benchmark span open on the request
    thread, so shard sweeps stay inside the request that caused them.
    Calls with neither are not recorded, and neither are routing calls off
    the request thread: those are the server dispatcher's, already inside
    the server's own ``route`` span.

    ``compiles`` collects the stage timings
    (:attr:`CompiledStencil.overhead_seconds`) of every compile made while
    installed, traced or not.
    """

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self.compiles: List[Dict[str, float]] = []
        #: the thread requests are made on: the one that built this
        self.request_thread = threading.current_thread()
        self.fallback: Any = None
        self._saved: List[Tuple[Any, str, Any]] = []
        self._wrappers = [(owner, attr, self._wrap(owner.__dict__[attr], name))
                          for owner, attr, name in _targets()]

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, wrapper in self._wrappers:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        from repro.obs.trace import current_span

        inst = self
        tracer = self.tracer
        records_compile = name == "core.compile"
        request_thread_only = name in REQUEST_THREAD_ONLY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = current_span()
            if parent is None or parent.tracer is not tracer:
                parent = inst.fallback
            on_request_thread = \
                threading.current_thread() is inst.request_thread
            if (parent is None or not tracer.enabled
                    or (request_thread_only and not on_request_thread)):
                result = fn(*args, **kwargs)
            else:
                with tracer.span(name, parent=parent) as span:
                    if on_request_thread:
                        previous, inst.fallback = inst.fallback, span
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        if on_request_thread:
                            inst.fallback = previous
            if records_compile:
                inst.compiles.append(dict(result.overhead_seconds))
            return result

        return wrapper


@dataclass
class LayerTotals:
    """Per-span-name self seconds and call counts over many requests."""

    self_seconds: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    inclusive_seconds: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    calls: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: every inclusive duration of the server spans, for percentiles
    durations: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    overlap_seconds: float = 0.0
    requests: int = 0

    def add(self, other: "RequestBreakdown") -> None:
        for name, values in other.durations.items():
            self.durations[name].extend(values)
        for name, seconds in other.self_seconds.items():
            self.self_seconds[name] += seconds
        for name, seconds in other.inclusive_seconds.items():
            self.inclusive_seconds[name] += seconds
        for name, count in other.calls.items():
            self.calls[name] += count
        self.overlap_seconds += other.overlap_seconds
        self.requests += 1

    def per_request_ms(self, name: str) -> float:
        return 1e3 * self.self_seconds.get(name, 0.0) / max(1, self.requests)

    def per_request_calls(self, name: str) -> float:
        return self.calls.get(name, 0) / max(1, self.requests)

    def by_layer_ms(self) -> Dict[str, float]:
        layers: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_seconds.items():
            layers[LAYER_OF[name]] += seconds
        return {layer: 1e3 * seconds / max(1, self.requests)
                for layer, seconds in sorted(layers.items())}


#: span names whose individual durations are kept
DURATIONS_KEPT = ("request", "queue_wait")


@dataclass
class RequestBreakdown:
    self_seconds: Dict[str, float]
    inclusive_seconds: Dict[str, float]
    calls: Dict[str, int]
    durations: Dict[str, List[float]]
    overlap_seconds: float
    root_seconds: float


@dataclass(frozen=True)
class SpanRecord:
    """The part of a :class:`repro.Span` the breakdown needs."""

    span_id: str
    parent_id: Optional[str]
    name: str
    start: float
    end: float

    @classmethod
    def of(cls, span: Any) -> "SpanRecord":
        return cls(span.span_id, span.parent_id, span.name,
                   span.start_seconds,
                   span.end_seconds if span.end_seconds is not None
                   else span.start_seconds)


def breakdown(spans: Sequence[SpanRecord], root_id: str) -> RequestBreakdown:
    """Self time per attributed span name for the tree under ``root_id``.

    Spans whose names :data:`LAYER_OF` does not list are transparent: their
    attributed descendants become children of their nearest attributed
    ancestor, and their own time stays in that ancestor's self time.
    ``root_seconds == sum(self) - overlap`` holds exactly when children lie
    inside their parents.
    """
    by_id = {s.span_id: s for s in spans}
    root = by_id[root_id]

    def attributed_parent(span: SpanRecord) -> Optional[str]:
        """Nearest attributed ancestor, or None outside the root's tree."""
        nearest = None
        parent_id = span.parent_id
        while parent_id is not None:
            if parent_id == root_id:
                return nearest or root_id
            parent = by_id.get(parent_id)
            if parent is None:
                return None
            if nearest is None and parent.name in LAYER_OF:
                nearest = parent_id
            parent_id = parent.parent_id
        return None

    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    members = [root]
    for span in spans:
        if span.span_id == root_id or span.name not in LAYER_OF:
            continue
        parent_id = attributed_parent(span)
        if parent_id is None:
            continue  # another request's span
        children[parent_id].append((span.start, span.end))
        members.append(span)

    self_seconds: Dict[str, float] = defaultdict(float)
    inclusive: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    durations: Dict[str, List[float]] = defaultdict(list)
    overlap = 0.0
    for span in members:
        kids = children.get(span.span_id, [])
        duration = max(0.0, span.end - span.start)
        self_seconds[span.name] += self_time(span.start, span.end, kids)
        inclusive[span.name] += duration
        calls[span.name] += 1
        if span.name in DURATIONS_KEPT:
            durations[span.name].append(duration)
        overlap += overlap_time(span.start, span.end, kids)
    return RequestBreakdown(dict(self_seconds), dict(inclusive), dict(calls),
                            dict(durations), overlap, root.end - root.start)

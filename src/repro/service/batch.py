"""Batched solves: group, compile once, sweep many.

:func:`compile_batch` takes a heterogeneous list of :class:`Problem`\\ s,
groups them by compile fingerprint and compiles each *distinct* plan exactly
once (layout search and the rest of the compile pipeline run in parallel
across plans on a thread pool).  :meth:`repro.StencilSession.solve_batch`
then sweeps every request against its shared plan with the session's
``single`` registry executor, and :meth:`CompiledBatch.report` gathers the
per-request results plus the aggregate throughput and cache numbers a
serving deployment would export as metrics.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import CompiledStencil, StencilRunResult
from repro.obs.trace import current_span, span as obs_span
from repro.service.cache import CacheStats, CompileCache, rebrand
from repro.service.fingerprint import CompileRequest
from repro.session.problem import Problem
from repro.util.parallel import parallel_map
from repro.util.validation import require, require_positive_int

__all__ = ["Problem", "BatchItem", "BatchReport"]


@dataclass(frozen=True)
class BatchItem:
    """Outcome of one request inside a batch."""

    request: Problem
    compiled: CompiledStencil
    result: StencilRunResult
    fingerprint: str
    shared_plan: bool

    @property
    def tag(self) -> Optional[str]:
        return self.request.tag


@dataclass(frozen=True)
class BatchReport:
    """Per-request results plus the aggregate service-level metrics."""

    items: Tuple[BatchItem, ...]
    distinct_plans: int
    compiles_performed: int
    cache_hits: int
    compile_wall_seconds: float
    execute_wall_seconds: float
    #: lifetime snapshot of the (possibly shared) cache at batch completion;
    #: per-batch attribution lives in ``compiles_performed``/``cache_hits``
    cache_stats: CacheStats

    @property
    def results(self) -> List[StencilRunResult]:
        return [item.result for item in self.items]

    def by_tag(self) -> Dict[str, BatchItem]:
        """Tagged items keyed by their tag (untagged items are skipped)."""
        return {item.tag: item for item in self.items if item.tag is not None}

    @property
    def total_device_seconds(self) -> float:
        return sum(item.result.elapsed_seconds for item in self.items)

    @property
    def total_points_updated(self) -> float:
        """Original-resolution stencil updates across the whole batch.

        The engine layer reports this per run, correctly counting mixed
        fused + leftover sweeps.
        """
        return sum(item.result.points_updated for item in self.items)

    @property
    def aggregate_gstencil_per_second(self) -> float:
        device = self.total_device_seconds
        return self.total_points_updated / device / 1e9 if device > 0 else 0.0

    @property
    def amortized_compile_seconds(self) -> float:
        """Compile wall time divided over every request served by the batch."""
        return self.compile_wall_seconds / len(self.items) if self.items else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Share of *this batch's* plan lookups served from the cache."""
        lookups = self.cache_hits + self.compiles_performed
        return self.cache_hits / lookups if lookups else 0.0

    def summary(self) -> Dict[str, Any]:
        return {
            "requests": len(self.items),
            "distinct_plans": self.distinct_plans,
            "compiles_performed": self.compiles_performed,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_lifetime_hit_rate": self.cache_stats.hit_rate,
            "compile_wall_seconds": self.compile_wall_seconds,
            "amortized_compile_seconds": self.amortized_compile_seconds,
            "execute_wall_seconds": self.execute_wall_seconds,
            "total_device_seconds": self.total_device_seconds,
            "aggregate_gstencil_per_second": self.aggregate_gstencil_per_second,
        }


@dataclass(frozen=True)
class CompiledBatch:
    """A batch grouped by compile fingerprint, each distinct plan compiled
    once: what :meth:`repro.StencilSession.solve_batch` sweeps."""

    problems: Tuple[Problem, ...]
    compile_requests: Tuple[CompileRequest, ...]
    #: the plan of each distinct fingerprint, compiled for the first
    #: request that carries it
    plans: Dict[str, CompiledStencil]
    #: the cache the plans came from; it also serves the sweeps' leftover
    #: plans (non-divisible iteration counts), once per fingerprint
    cache: CompileCache
    compiles_performed: int
    cache_hits: int
    compile_wall_seconds: float

    def plan(self, index: int) -> CompiledStencil:
        """The shared plan of request ``index``, carrying its own pattern
        identity."""
        request = self.compile_requests[index]
        return rebrand(self.plans[request.fingerprint], request)

    def report(self, solutions: Sequence[Any],
               execute_wall_seconds: float) -> BatchReport:
        """The :class:`BatchReport` of the sweep that produced
        ``solutions`` (one :class:`~repro.session.Solution` per request,
        in order)."""
        counts = Counter(request.fingerprint
                         for request in self.compile_requests)
        return BatchReport(
            items=tuple(
                BatchItem(request=problem,
                          compiled=solution.compiled,
                          result=solution.result,
                          fingerprint=request.fingerprint,
                          shared_plan=counts[request.fingerprint] > 1)
                for problem, request, solution in zip(
                    self.problems, self.compile_requests, solutions)),
            distinct_plans=len(self.plans),
            compiles_performed=self.compiles_performed,
            cache_hits=self.cache_hits,
            compile_wall_seconds=self.compile_wall_seconds,
            execute_wall_seconds=execute_wall_seconds,
            # snapshot — the live stats keep mutating as the cache serves
            # later batches, and a report must describe the batch it came from
            cache_stats=self.cache.snapshot_stats(),
        )


def compile_batch(
    requests: Sequence[Problem],
    *,
    cache: CompileCache,
    max_workers: Optional[int] = None,
) -> CompiledBatch:
    """Group a batch of heterogeneous problems by compile fingerprint and
    compile each distinct plan once (the compile half of
    :meth:`repro.StencilSession.solve_batch`).

    Plans are served from ``cache`` when already warm, with distinct
    compilations — dominated by the layout search — spread across a thread
    pool.
    """
    requests = list(requests)
    require(len(requests) > 0, "a batch needs at least one request")
    for request in requests:
        require_positive_int(request.iterations, "iterations")

    compile_requests = [cache.request_for(request) for request in requests]
    distinct: Dict[str, CompileRequest] = {}
    for creq in compile_requests:
        distinct.setdefault(creq.fingerprint, creq)

    # `events` attributes work to *this batch's* lookups — a shared cache may
    # concurrently serve other callers, so global miss counters can't be used.
    # list.append is atomic, so one list is safe across pool workers.
    events: List[str] = []
    compile_start = time.perf_counter()
    cold = [creq for creq in distinct.values() if not cache.contains(creq)]
    with obs_span("batch.compile", distinct_plans=len(distinct),
                  cold_plans=len(cold)) as compile_span:
        active = current_span()
        if active is not None and active.tracer is not None:
            # Pool threads do not inherit the tracing contextvar; re-bind
            # the compile span so the cache's lookup spans join the trace.
            tracer = active.tracer

            def compile_one(creq: CompileRequest) -> CompiledStencil:
                with tracer.activate(active):
                    return cache.get_or_compile(creq, events=events)
        else:
            def compile_one(creq: CompileRequest) -> CompiledStencil:
                return cache.get_or_compile(creq, events=events)

        cold_plans = parallel_map(compile_one, cold, max_workers=max_workers)
        plans = {creq.fingerprint: plan
                 for creq, plan in zip(cold, cold_plans)}
        for creq in distinct.values():
            if creq.fingerprint not in plans:
                plans[creq.fingerprint] = cache.get_or_compile(
                    creq, events=events)
        compiles_performed = events.count("compile")
        cache_hits = len(events) - compiles_performed
        compile_span.set(compiles_performed=compiles_performed,
                         cache_hits=cache_hits)

    return CompiledBatch(
        problems=tuple(requests),
        compile_requests=tuple(compile_requests),
        plans=plans,
        cache=cache,
        compiles_performed=compiles_performed,
        cache_hits=cache_hits,
        compile_wall_seconds=time.perf_counter() - compile_start,
    )

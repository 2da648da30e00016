"""The synchronous :class:`StencilServer` facade over the serving pipeline.

One object owns the whole online path::

    submit_problem() ──> RequestQueue ──> Coalescer ──> DevicePoolScheduler ──> registry
      (admission)          (bounded)     (fingerprint     (single / sharded,     executors
                                          micro-batches)   occupancy ledger)     (per request)

The server is a thin adapter over a :class:`repro.StencilSession`:
admission, coalescing and scheduling live here, but every request of a
micro-batch executes through the session's
:class:`~repro.session.registry.ExecutorRegistry` — the executor
``session.solve(mode="single" | "sharded")`` would create, making the same
call — against the session's compile cache, so served and direct solves
share one code path.  A standalone
``StencilServer(devices=4)`` builds a private session;
:meth:`repro.StencilSession.server` hands the server an existing one.

Callers stay synchronous: :meth:`StencilServer.submit_problem` returns a
:class:`SubmitHandle` immediately (or raises a typed admission error), and
``handle.result()`` blocks for that request alone.  Internally an asyncio
event loop on a daemon thread runs the dispatcher, and micro-batches execute
on a thread pool sized to the device pool — the same "asyncio front, thread
workers back" split a real serving process would use, since the simulated
sweeps are numpy-bound and release the GIL.

Results are bit-identical to sequential single-device solves: coalescing
only changes *when* plans compile (once per fingerprint, through the shared
:class:`~repro.service.cache.CompileCache`), never what executes.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from repro.engine.sharded import ShardedRunResult
from repro.obs.metrics import global_registry
from repro.obs.trace import NULL_TRACER
from repro.server.coalesce import Coalescer, MicroBatch
from repro.server.queue import (
    DeadlineExceededError,
    LintRejectedError,
    QueuedRequest,
    RequestQueue,
    ServerClosedError,
    ServerError,
)
from repro.server.scheduler import RouteCancelledError
from repro.server.telemetry import ServerTelemetry
from repro.service.cache import CompileCache, rebrand
from repro.session.problem import Problem, Solution, SolvePolicy
from repro.tcu.spec import MultiDeviceSpec
from repro.util.validation import require, require_positive_int

__all__ = ["ServerConfig", "ServerResult", "SubmitHandle", "StencilServer"]


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of the serving pipeline (defaults suit the test workloads).

    Attributes
    ----------
    queue_bound:
        Admission-control bound; submissions beyond it raise
        :class:`~repro.server.queue.QueueFullError`.
    window_seconds / max_batch_size:
        The coalescer's collection window and per-dispatch size cap.
    max_workers:
        Thread-pool width for concurrent micro-batch execution; defaults to
        the device-pool size (extra workers would only queue on the ledger).
    default_deadline_seconds:
        Deadline applied to submissions that do not set their own
        (``None`` = no deadline).
    latency_window:
        Completed requests the rolling latency percentiles cover.
    lint_admission:
        Opt-in pre-flight gate: run the Tier-1 diagnostics
        (:func:`repro.lint.check_problem`) on every submission and reject
        requests carrying ``error``-severity findings with
        :class:`~repro.server.queue.LintRejectedError` *before* they take
        a queue slot.  Rejections increment the ``lint.rejected`` counter
        in the global :class:`~repro.obs.MetricsRegistry`.
    """

    queue_bound: int = 128
    window_seconds: float = 0.002
    max_batch_size: int = 16
    max_workers: Optional[int] = None
    default_deadline_seconds: Optional[float] = None
    latency_window: int = 2048
    lint_admission: bool = False


@dataclass(frozen=True)
class ServerResult:
    """What a resolved :class:`SubmitHandle` yields: the
    :class:`~repro.session.Solution` of the registry executor the scheduler
    routed the request to, plus the serving facts around it."""

    solution: Solution
    tag: Optional[str]
    fingerprint: str
    batch_size: int         # live requests in the dispatched micro-batch
    queue_wait_seconds: float
    service_seconds: float  # submit -> result, the client-visible latency
    #: trace id of the request's span tree when the server's session traces
    #: (empty otherwise) — resolve it with ``tracer.spans(trace_id)``
    trace_id: str = ""

    @property
    def run(self):
        """The engine's run result (single-device or sharded)."""
        return self.solution.result

    @property
    def executor(self) -> str:
        """The executor that ran the request: ``"single"`` | ``"sharded"``."""
        return self.solution.provenance.executor

    @property
    def devices(self) -> int:
        return self.solution.provenance.devices

    @property
    def output(self):
        return self.solution.output

    @property
    def coalesced(self) -> bool:
        return self.batch_size > 1


class SubmitHandle:
    """Synchronous handle to one in-flight request."""

    def __init__(self, item: QueuedRequest) -> None:
        self._item = item

    @property
    def fingerprint(self) -> str:
        return self._item.fingerprint

    @property
    def tag(self) -> Optional[str]:
        return self._item.tag

    def done(self) -> bool:
        return self._item.future.done()

    def result(self, timeout: Optional[float] = None) -> ServerResult:
        """Block until the request resolves; re-raises typed failures."""
        return self._item.future.result(timeout)

    def exception(self, timeout: Optional[float] = None
                  ) -> Optional[BaseException]:
        return self._item.future.exception(timeout)


class StencilServer:
    """Online stencil-solving server over a pool of simulated devices.

    Usage::

        with StencilServer(devices=4) as server:
            handles = [server.submit_problem(Problem(pattern, grid, 8,
                                                     tag=str(i)))
                       for i, grid in enumerate(grids)]
            outputs = [h.result().output for h in handles]
            print(server.metrics()["coalescing"]["ratio"])

    Parameters
    ----------
    devices:
        The device pool: a :class:`repro.tcu.spec.MultiDeviceSpec` or a bare
        device count (N simulated A100s on NVLink).
    cache:
        Optional shared :class:`~repro.service.cache.CompileCache` (e.g. one
        with disk persistence); the server's session creates a private one
        otherwise.
    config:
        A :class:`ServerConfig`; defaults are reasonable for tests/examples.
    session:
        The :class:`repro.StencilSession` whose cache, pool and engines the
        server adapts.  When omitted (the standalone construction path) a
        private session is built from ``devices`` / ``cache`` /
        ``config.max_workers`` (routing thresholds at their
        :class:`~repro.session.SessionConfig` defaults);
        :meth:`repro.StencilSession.server` always passes its own.
        ``devices`` and ``cache`` are session properties and may not be
        given alongside one.
    """

    def __init__(self, devices: Union[MultiDeviceSpec, int, None] = None, *,
                 cache: Optional[CompileCache] = None,
                 config: Optional[ServerConfig] = None,
                 session: Optional[Any] = None) -> None:
        self.config = config if config is not None else ServerConfig()
        if session is None:
            from repro.session.session import SessionConfig, StencilSession

            session = StencilSession(SessionConfig(
                devices=devices if devices is not None else 1,
                cache=cache,
                max_workers=self.config.max_workers))
        else:
            require(devices is None and cache is None,
                    "devices/cache are session properties; pass them through "
                    "the session instead")
        self.session = session
        self.cache = session.cache
        self.scheduler = session.scheduler
        #: the session's tracer (NULL_TRACER when the session does not
        #: trace): every admitted request opens a span on it, and dispatch
        #: workers re-bind that span so engine/cache spans join the trace
        self.tracer = getattr(session, "tracer", NULL_TRACER)
        self.telemetry = ServerTelemetry(self.config.latency_window)
        self.queue = RequestQueue(self.config.queue_bound)
        self.coalescer = Coalescer(self.config.window_seconds,
                                   self.config.max_batch_size)
        workers = self.config.max_workers if self.config.max_workers \
            else self.scheduler.pool.device_count
        require_positive_int(workers, "max_workers")
        self._workers = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="stencil-server")
        #: bounds micro-batches handed to the thread pool: without it the
        #: executor's internal queue would be an unbounded buffer behind the
        #: bounded request queue, and admission control would never trigger
        self._dispatch_slots = asyncio.Semaphore(workers)
        self._pending = 0
        self._pending_cond = threading.Condition()
        self._shutdown_lock = threading.Lock()
        self._closed = False
        #: set on a no-drain shutdown: workers parked in the scheduler
        #: waiting for a device abort their wait instead of deadlocking the
        #: shutdown against a lease that may only be released afterwards
        self._abort_device_wait = threading.Event()

        self._loop = asyncio.new_event_loop()
        self.queue.bind_loop(self._loop)
        ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run_loop, args=(ready,), daemon=True,
            name="stencil-server-loop")
        self._thread.start()
        ready.wait()
        self._dispatcher = asyncio.run_coroutine_threadsafe(
            self._dispatch_loop(), self._loop)

    # ------------------------------------------------------------------ #
    # client API (any thread, synchronous)
    # ------------------------------------------------------------------ #
    def submit_problem(self, problem: Problem, *,
                       deadline_seconds: Optional[float] = None
                       ) -> SubmitHandle:
        """Admit one :class:`~repro.session.Problem`; returns immediately.

        Raises :class:`~repro.server.queue.QueueFullError` (backpressure),
        :class:`~repro.server.queue.DeadlineExceededError` (dead on arrival),
        :class:`~repro.server.queue.LintRejectedError` (error-severity
        pre-flight findings, when ``lint_admission`` is on) or
        :class:`~repro.server.queue.ServerClosedError` — typed, never a
        silent drop.
        """
        request = problem
        require_positive_int(request.iterations, "iterations")
        if deadline_seconds is None:
            deadline_seconds = self.config.default_deadline_seconds
        deadline = None if deadline_seconds is None \
            else time.perf_counter() + float(deadline_seconds)
        compile_request = self.cache.request_for(request)
        if self.config.lint_admission:
            self._lint_admission(request, deadline_seconds)
        span = None
        if self.tracer.enabled:
            # Child of the ambient span when the submitter is inside a
            # traced session.solve(mode="served"); a fresh trace root for
            # direct submissions.
            span = self.tracer.begin(
                "request",
                fingerprint=compile_request.fingerprint,
                pattern=request.pattern.name,
                grid_shape=request.grid_shape,
                iterations=request.iterations,
                tag=request.tag)
        item = QueuedRequest(
            request=request,
            compile_request=compile_request,
            future=Future(),
            deadline=deadline,
            span=span)
        self.telemetry.submitted()
        with self._pending_cond:
            self._pending += 1
        try:
            self.queue.offer(item)
        except ServerError as exc:
            self._settle_pending()
            self.telemetry.rejected(type(exc).__name__)
            if span is not None:
                self.tracer.end(span.set(error=type(exc).__name__))
            raise
        item.future.add_done_callback(lambda _: self._settle_pending())
        return SubmitHandle(item)

    def _lint_admission(self, request: Problem,
                        deadline_seconds: Optional[float]) -> None:
        """The opt-in pre-flight gate (``ServerConfig(lint_admission=True)``).

        Runs the Tier-1 diagnostics against the server's own scheduler and
        compile cache — the one compile it may trigger is the same compile
        dispatch would pay — and rejects requests carrying error-severity
        findings *before* they take a queue slot.  Rejections are counted
        by the server telemetry and under ``lint.rejected`` in the global
        metrics registry.
        """
        from repro.lint.domain import check_problem

        report = check_problem(
            request,
            SolvePolicy(mode="auto", deadline_seconds=deadline_seconds),
            scheduler=self.scheduler, cache=self.cache)
        if report.ok:
            return
        global_registry().counter(
            "lint.rejected",
            "submissions rejected by the admission lint gate").inc()
        self.telemetry.submitted()
        self.telemetry.rejected("LintRejectedError")
        raise LintRejectedError(report)

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every accepted request has resolved (ok or error)."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._pending_cond:
            while self._pending > 0:
                remaining = None if deadline is None \
                    else deadline - time.perf_counter()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"drain timed out with {self._pending} requests "
                        f"in flight")
                self._pending_cond.wait(remaining)

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop the server.  Idempotent.

        ``drain=True`` (default) serves everything already accepted first;
        ``drain=False`` fails still-queued requests with
        :class:`~repro.server.queue.ServerClosedError`.  Micro-batches
        already *running on devices* always finish — work on devices is
        never abandoned — but batches still *waiting* for a device abort
        the wait and fail with the same typed error (the devices they wait
        for may be leased by the very caller shutting the server down, so
        blocking on them would deadlock).
        """
        with self._shutdown_lock:
            if self._closed:
                return
            self._closed = True
        self.queue.close()
        if drain:
            self.drain(timeout)
        else:
            # release workers parked on a device wait *before* failing the
            # queue: a worker blocked in route() holds a dispatch slot the
            # dispatcher needs to exit, and the device it waits for may be
            # leased by the very caller of this shutdown
            self._abort_device_wait.set()
            for item in self.queue.drain_pending():
                self._resolve_error(
                    item,
                    ServerClosedError("server shut down before dispatch"),
                    "ServerClosedError")
        self._dispatcher.result(timeout=timeout)
        self._workers.shutdown(wait=True)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        self._loop.close()

    def metrics(self) -> Dict[str, Any]:
        """Plain-dict snapshot of every serving metric (see
        :class:`~repro.server.telemetry.ServerTelemetry`)."""
        return self.telemetry.snapshot(queue=self.queue, cache=self.cache,
                                       ledger=self.scheduler.ledger)

    @property
    def pending(self) -> int:
        with self._pending_cond:
            return self._pending

    def __enter__(self) -> "StencilServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    # ------------------------------------------------------------------ #
    # dispatcher (server loop thread)
    # ------------------------------------------------------------------ #
    def _run_loop(self, ready: threading.Event) -> None:
        asyncio.set_event_loop(self._loop)
        ready.set()
        self._loop.run_forever()

    async def _dispatch_loop(self) -> None:
        while True:
            try:
                batches = await self.coalescer.collect(self.queue)
            except Exception:  # lint: allow-broad-except — counted, loop lives
                # collect() only raises before it has popped anything (its
                # post-pop paths degrade internally), so continuing here
                # cannot strand a request's future — count it, keep serving
                self.telemetry.failed("dispatcher_error")
                continue
            if batches is None:
                return  # queue closed and fully drained
            for batch in batches:
                await self._dispatch_slots.acquire()
                future = self._loop.run_in_executor(
                    self._workers, self._serve_batch, batch)
                # done callbacks run on the loop thread, so releasing the
                # slot here is race-free with the acquire above
                future.add_done_callback(
                    lambda _: self._dispatch_slots.release())

    # ------------------------------------------------------------------ #
    # batch execution (thread-pool workers)
    # ------------------------------------------------------------------ #
    def _trace_dispatch(self, item: QueuedRequest, batch: MicroBatch,
                        dispatch_start: float) -> None:
        """Record the pre-execution phases (queue wait, coalesce window)
        of one request retroactively onto its span."""
        span = item.span
        if span is None:
            return
        self.tracer.record("queue_wait", item.enqueued_at, dispatch_start,
                           parent=span)
        if batch.window_start:
            self.tracer.record("coalesce", batch.window_start,
                               batch.window_end, parent=span,
                               batch_size=batch.size,
                               fingerprint=batch.fingerprint)

    def _serve_batch(self, batch: MicroBatch) -> None:
        dispatch_start = time.perf_counter()
        live = []
        for item in batch.items:
            self._trace_dispatch(item, batch, dispatch_start)
            if item.expired(dispatch_start):
                self._resolve_error(
                    item,
                    DeadlineExceededError(
                        f"deadline exceeded after "
                        f"{item.queue_wait_seconds(dispatch_start) * 1e3:.1f}"
                        f" ms in queue"),
                    "DeadlineExceededError")
            else:
                live.append(item)
        if not live:
            return
        tracer = self.tracer
        try:
            # one compile per fingerprint: every item below sweeps this plan
            # (rebranded to its own pattern), and the executors' per-shard
            # and leftover plans come from the same session cache.  The
            # worker thread carries no trace context, so the leader's span
            # is re-bound here; the cache's own lookup span joins under it.
            compile_start = time.perf_counter()
            with tracer.activate(live[0].span):
                compiled = self.cache.get_or_compile(live[0].compile_request)
            compile_end = time.perf_counter()
            for item in live[1:]:
                if item.span is not None:
                    # followers share the leader's lookup; give their traces
                    # the same interval so every request stays auditable
                    tracer.record("cache.lookup", compile_start, compile_end,
                                  parent=item.span, shared_with_batch=True,
                                  fingerprint=item.fingerprint)
            route_start = time.perf_counter()
            try:
                decision, lease = self.scheduler.route(
                    compiled, live[0].request.iterations,
                    cancel=self._abort_device_wait)
            except RouteCancelledError:
                for item in live:
                    self._resolve_error(
                        item,
                        ServerClosedError("server shut down while the "
                                          "batch waited for a device"),
                        "ServerClosedError")
                return
            route_end = time.perf_counter()
            memo = self.scheduler.memo_outcome()
            for item in live:
                if item.span is not None:
                    tracer.record("route", route_start, route_end,
                                  parent=item.span, memo=memo,
                                  executor=decision.executor,
                                  devices=decision.devices,
                                  halo_depth=decision.halo_depth,
                                  overlap=decision.overlap,
                                  reason=decision.reason)
            self.telemetry.batch_dispatched(
                len(live), decision.executor, decision.devices)
            spec = self.scheduler.spec_for(decision, compiled) \
                if decision.sharded else None
            modelled = 0.0
            try:
                for item in live:
                    request = item.request
                    # a straggler (an iteration count the fused plan does
                    # not divide) runs single-device: its leftover sweeps
                    # need one device anyway
                    mode = decision.executor \
                        if request.iterations % compiled.temporal_fusion == 0 \
                        else "single"
                    policy = SolvePolicy(mode=mode, devices=spec,
                                         halo_depth=decision.halo_depth,
                                         overlap=decision.overlap)
                    with tracer.activate(item.span):
                        solution = self.session.registry.create(mode).solve(
                            self.session, request, policy,
                            compiled=rebrand(compiled, item.compile_request),
                            compile_request=item.compile_request)
                    # device work, not wall time: a sharded run's
                    # elapsed_seconds is the cluster's critical path
                    result = solution.result
                    modelled += sum(result.shard_elapsed_seconds) \
                        if isinstance(result, ShardedRunResult) \
                        else result.elapsed_seconds
                    self._resolve(item, solution, len(live), dispatch_start)
            finally:
                self.scheduler.ledger.release(lease,
                                              modelled_seconds=modelled)
        except Exception as exc:  # noqa: BLE001  # lint: allow-broad-except — futures carry the failure
            for item in live:
                if not item.future.done():
                    self._resolve_error(item, exc, type(exc).__name__)

    def _resolve(self, item: QueuedRequest, solution: Solution,
                 batch_size: int, dispatch_start: float) -> None:
        end = time.perf_counter()
        span = item.span
        if span is not None:
            span.set(executor=solution.provenance.executor,
                     devices=solution.provenance.devices,
                     batch_size=batch_size)
            span.add_device_seconds(solution.elapsed_seconds)
            self.tracer.end(span)
        result = ServerResult(
            solution=solution,
            tag=item.tag,
            fingerprint=item.fingerprint,
            batch_size=batch_size,
            queue_wait_seconds=dispatch_start - item.enqueued_at,
            service_seconds=end - item.enqueued_at,
            trace_id=span.trace_id if span is not None else "")
        item.future.set_result(result)
        self.telemetry.completed(
            queue_wait_seconds=dispatch_start - item.enqueued_at,
            execute_seconds=end - dispatch_start,
            total_seconds=end - item.enqueued_at)

    def _resolve_error(self, item: QueuedRequest, exc: BaseException,
                       reason: str) -> None:
        if not item.future.done():
            item.future.set_exception(exc)
            self.telemetry.failed(reason)
            if item.span is not None:
                self.tracer.end(item.span.set(error=reason))

    def _settle_pending(self) -> None:
        with self._pending_cond:
            self._pending -= 1
            self._pending_cond.notify_all()

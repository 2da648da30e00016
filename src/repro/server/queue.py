"""Bounded request queue with admission control and typed backpressure.

The online edge of the serving layer: every
:meth:`StencilServer.submit_problem` lands here.  Admission is decided
*synchronously on the submitting thread* — a full queue, an
already-expired deadline, or a closed server each raise a typed
:class:`ServerError` subclass immediately, so a caller is never left
holding a request that was silently dropped.  Accepted requests are handed
to the asyncio dispatcher (the coalescer awaits :meth:`RequestQueue.get`)
through a thread-safe deque plus a loop-side wakeup.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Deque, List, Optional

from repro.service.fingerprint import CompileRequest
from repro.session.problem import Problem
from repro.util.validation import require_positive_int

__all__ = [
    "ServerError",
    "QueueFullError",
    "DeadlineExceededError",
    "ServerClosedError",
    "LintRejectedError",
    "QueuedRequest",
    "RequestQueue",
]


class ServerError(RuntimeError):
    """Base class of every typed serving-layer rejection/failure."""


class QueueFullError(ServerError):
    """Submission rejected because the queue is at its bound (backpressure)."""

    def __init__(self, depth: int, bound: int) -> None:
        super().__init__(
            f"request queue full ({depth}/{bound}); retry later or raise "
            f"queue_bound")
        self.depth = depth
        self.bound = bound


class DeadlineExceededError(ServerError):
    """The request's deadline passed before it could be served."""


class ServerClosedError(ServerError):
    """Submission rejected because the server is shutting down."""


class LintRejectedError(ServerError):
    """Submission rejected by the opt-in pre-flight lint gate
    (``ServerConfig(lint_admission=True)``): the request carries
    error-severity diagnostics and would fail — or waste devices — at
    execution time.  :attr:`report` holds the full
    :class:`repro.lint.DiagnosticReport` so the caller can see every
    finding, not just the summary line."""

    def __init__(self, report: Any) -> None:
        errors = getattr(report, "errors", ())
        summary = "; ".join(f"{d.code}: {d.message}" for d in errors)
        super().__init__(
            f"request rejected by admission lint ({len(errors)} error "
            f"finding(s)): {summary}")
        self.report = report


@dataclass
class QueuedRequest:
    """One admitted solve request travelling through the server.

    The compile request (and its fingerprint) is resolved once at admission,
    on the submitting thread, so the coalescer groups by a precomputed key
    and the dispatcher never re-derives it.
    """

    request: Problem
    compile_request: CompileRequest
    future: Future
    enqueued_at: float = field(default_factory=time.perf_counter)
    #: absolute ``time.perf_counter`` deadline; ``None`` = no deadline
    deadline: Optional[float] = None
    #: per-request trace span (a :class:`repro.obs.Span`), opened at
    #: admission when the server's session traces; ``None`` when disabled
    span: Optional[Any] = None

    @property
    def fingerprint(self) -> str:
        return self.compile_request.fingerprint

    @property
    def tag(self) -> Optional[str]:
        return self.request.tag

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the deadline has passed.  A deadline of exactly ``now``
        counts as expired (``>=``), consistent with admission control: a
        zero-slack request can neither be admitted nor served."""
        if self.deadline is None:
            return False
        return (time.perf_counter() if now is None else now) >= self.deadline

    def queue_wait_seconds(self, now: Optional[float] = None) -> float:
        return (time.perf_counter() if now is None else now) - self.enqueued_at


class RequestQueue:
    """Bounded multi-producer, single-consumer queue bridging sync and async.

    Producers (:meth:`offer`) run on arbitrary caller threads and never
    block: they are admitted or rejected immediately.  The single consumer
    (the coalescer's :meth:`get`) runs on the server's asyncio loop and is
    woken through ``call_soon_threadsafe``.
    """

    def __init__(self, bound: int = 128) -> None:
        require_positive_int(bound, "bound")
        self.bound = bound
        self._items: Deque[QueuedRequest] = deque()
        self._lock = threading.Lock()
        self._closed = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wakeup: Optional[asyncio.Event] = None
        self._peak_depth = 0
        self._accepted = 0

    def bind_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Attach the consumer loop (called once the server loop is running)."""
        self._loop = loop
        self._wakeup = asyncio.Event()

    # ------------------------------------------------------------------ #
    # producer side (any thread, synchronous)
    # ------------------------------------------------------------------ #
    def offer(self, item: QueuedRequest) -> None:
        """Admit ``item`` or raise a typed rejection — never drops silently.

        Raises :class:`ServerClosedError` after :meth:`close`,
        :class:`QueueFullError` at the bound, and
        :class:`DeadlineExceededError` for deadlines that have already
        passed (admission control: a dead-on-arrival request must not take
        a queue slot from a live one).
        """
        with self._lock:
            if self._closed:
                raise ServerClosedError("server is shut down; "
                                        "submission rejected")
            if item.expired():
                # checked before the bound: a dead-on-arrival request is
                # refused for its own reason, full queue or not
                raise DeadlineExceededError(
                    "deadline already exceeded at submission")
            if len(self._items) >= self.bound:
                raise QueueFullError(len(self._items), self.bound)
            self._items.append(item)
            self._accepted += 1
            self._peak_depth = max(self._peak_depth, len(self._items))
        self._notify_consumer()

    def close(self) -> None:
        """Stop admitting; the consumer drains what is queued, then sees EOF."""
        with self._lock:
            self._closed = True
        self._notify_consumer()

    def drain_pending(self) -> List[QueuedRequest]:
        """Remove and return everything still queued (abrupt shutdown path)."""
        with self._lock:
            pending = list(self._items)
            self._items.clear()
        return pending

    def _notify_consumer(self) -> None:
        loop, wakeup = self._loop, self._wakeup
        if loop is not None and wakeup is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(wakeup.set)
            except RuntimeError:
                pass  # loop shut down concurrently; nothing left to wake

    # ------------------------------------------------------------------ #
    # consumer side (server loop, async)
    # ------------------------------------------------------------------ #
    async def get(self, timeout: Optional[float] = None
                  ) -> Optional[QueuedRequest]:
        """Pop the next request; ``None`` means closed-and-empty (EOF).

        Raises :class:`asyncio.TimeoutError` when ``timeout`` elapses with
        nothing queued — the coalescer uses that to end its batching window.
        """
        if self._wakeup is None:
            raise RuntimeError("bind_loop() must run before get()")
        deadline = None if timeout is None else time.perf_counter() + timeout
        while True:
            with self._lock:
                if self._items:
                    return self._items.popleft()
                if self._closed:
                    return None
                self._wakeup.clear()
            remaining = None if deadline is None \
                else deadline - time.perf_counter()
            if remaining is not None and remaining <= 0:
                raise asyncio.TimeoutError
            await asyncio.wait_for(self._wakeup.wait(), remaining)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def peak_depth(self) -> int:
        with self._lock:
            return self._peak_depth

    @property
    def accepted(self) -> int:
        with self._lock:
            return self._accepted

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

"""Fingerprint-coalescing micro-batcher.

The paper's economics are "compile once, sweep many": the more requests that
share one compile fingerprint inside a dispatch, the further the (cached)
compile cost amortises and the fewer cache lookups the hot path pays.  The
:class:`Coalescer` buys that grouping with a bounded amount of latency: it
waits for the first queued request, then keeps collecting for a short time
window (cut short by the tightest request deadline and a size cap), and
groups whatever arrived by compile fingerprint.  Each group becomes one
:class:`MicroBatch`, which the dispatcher looks up in the compile cache once
before the session's registry executors sweep its requests — so a
micro-batch compiles its plan exactly once no matter how many requests it
carries.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import global_registry
from repro.server.queue import QueuedRequest, RequestQueue
from repro.util.validation import require, require_positive_int


def _coalesce_errors():
    """Counter of faults the collection loop degraded around (fetched per
    use: tests reset the global registry).  The degradation is deliberate
    — popped requests are always dispatched, never dropped — but the
    swallowed fault must not stay invisible."""
    return global_registry().counter(
        "server.coalesce_errors",
        "faults the coalescer degraded around instead of dropping requests")

__all__ = ["MicroBatch", "Coalescer", "coalesce"]


@dataclass(frozen=True)
class MicroBatch:
    """Requests sharing one compile fingerprint, dispatched together.

    ``window_start``/``window_end`` bracket the collection cycle that
    gathered the batch (``time.perf_counter`` values); the tracing layer
    records them as the batch's coalesce-window span.  Batches built
    directly through :func:`coalesce` carry ``0.0``/``0.0``.
    """

    fingerprint: str
    items: Tuple[QueuedRequest, ...]
    window_start: float = 0.0
    window_end: float = 0.0

    @property
    def size(self) -> int:
        return len(self.items)

    @property
    def earliest_deadline(self) -> Optional[float]:
        deadlines = [i.deadline for i in self.items if i.deadline is not None]
        return min(deadlines) if deadlines else None


def coalesce(items: Sequence[QueuedRequest],
             max_batch_size: Optional[int] = None,
             window_start: float = 0.0,
             window_end: float = 0.0) -> List[MicroBatch]:
    """Group ``items`` by fingerprint, preserving arrival order.

    Groups are emitted in order of their first arrival; a group larger than
    ``max_batch_size`` is split into consecutive chunks so one hot
    fingerprint cannot monopolise a dispatch.  ``window_start`` /
    ``window_end`` (``perf_counter`` values) are stamped onto every batch
    for the tracing layer.
    """
    groups: Dict[str, List[QueuedRequest]] = {}
    for item in items:
        groups.setdefault(item.fingerprint, []).append(item)
    batches: List[MicroBatch] = []
    for fingerprint, members in groups.items():
        if max_batch_size is None:
            chunks = [members]
        else:
            require_positive_int(max_batch_size, "max_batch_size")
            chunks = [members[i:i + max_batch_size]
                      for i in range(0, len(members), max_batch_size)]
        batches.extend(
            MicroBatch(fingerprint, tuple(chunk),
                       window_start=window_start, window_end=window_end)
            for chunk in chunks)
    return batches


class Coalescer:
    """Time/size-windowed collector turning a request stream into micro-batches.

    Parameters
    ----------
    window_seconds:
        How long to keep collecting after the first request of a cycle.
        The window is shortened when a collected request's deadline leaves
        less slack than the window itself — coalescing must never be the
        reason a deadline is missed.
    max_batch_size:
        Cap on requests collected per cycle (and per micro-batch).  A full
        window dispatches immediately; later arrivals start the next cycle.
    """

    def __init__(self, window_seconds: float = 0.002,
                 max_batch_size: int = 16) -> None:
        require(window_seconds >= 0.0, "window_seconds must be non-negative")
        require_positive_int(max_batch_size, "max_batch_size")
        self.window_seconds = window_seconds
        self.max_batch_size = max_batch_size
        #: *dispatching* collection cycles (>= 1 request gathered) / requests
        #: collected — the telemetry layer derives the coalescing ratio from
        #: these.  Windows that gather nothing (EOF on a closed queue) never
        #: count, so an idle server cannot drag the ratio toward 0.
        self.cycles = 0
        self.collected = 0

    async def collect(self, queue: RequestQueue
                      ) -> Optional[List[MicroBatch]]:
        """One collection cycle; ``None`` when the queue reached EOF.

        Once a request has been popped from the queue it is *always*
        returned in some batch — a fault anywhere in the window loop or the
        grouping degrades to dispatching what was gathered (worst case as
        singleton batches), never to dropping futures.
        """
        first = await queue.get()
        if first is None:
            return None
        window_open = time.perf_counter()
        gathered: List[QueuedRequest] = [first]
        try:
            window_end = window_open + self.window_seconds
            while len(gathered) < self.max_batch_size:
                now = time.perf_counter()
                remaining = window_end - now
                for item in gathered:
                    if item.deadline is not None:
                        # leave half the slack for the solve itself
                        slack = (item.deadline - now) / 2.0
                        remaining = min(remaining, slack)
                if remaining <= 0:
                    break
                try:
                    item = await queue.get(timeout=remaining)
                except asyncio.TimeoutError:
                    break
                if item is None:
                    break  # closed mid-window: dispatch what we have
                gathered.append(item)
        except Exception:  # lint: allow-broad-except — dispatch, never drop
            # dispatch what was gathered rather than lose it
            _coalesce_errors().inc()
        if gathered:
            # The ratio's contract — requests per *non-empty* dispatch
            # window — is encoded here rather than implied: today the EOF
            # early-return above means `gathered` is never empty at this
            # point, but an in-window change (e.g. dropping expired items
            # before dispatch) must not start counting empty windows and
            # dilute an idle server's ratio toward 0.
            self.cycles += 1
            self.collected += len(gathered)
        window_close = time.perf_counter()
        try:
            return coalesce(gathered, self.max_batch_size,
                            window_start=window_open,
                            window_end=window_close)
        except Exception:  # lint: allow-broad-except — degrade to singletons
            _coalesce_errors().inc()
            return [MicroBatch(item.fingerprint, (item,),
                               window_start=window_open,
                               window_end=window_close)
                    for item in gathered]

    @property
    def coalescing_ratio(self) -> float:
        """Requests collected per *non-empty* dispatch cycle (1.0 = no
        coalescing won; 0.0 only before the first dispatch)."""
        return self.collected / self.cycles if self.cycles else 0.0

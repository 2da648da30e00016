"""Server queue + coalescer tests: admission control, typed backpressure,
deadlines, and fingerprint grouping."""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Future

import pytest

from repro.server import (
    Coalescer,
    DeadlineExceededError,
    QueuedRequest,
    QueueFullError,
    RequestQueue,
    ServerClosedError,
    coalesce,
)
from repro.session import Problem
from repro.stencils.grid import make_grid
from repro.util.validation import ValidationError


def queued(pattern, shape=(40, 44), iterations=2, seed=0, tag=None,
           deadline=None) -> QueuedRequest:
    request = Problem(pattern, make_grid(shape, seed=seed), iterations,
                      tag=tag)
    return QueuedRequest(request=request,
                         compile_request=request.compile_request(),
                         future=Future(),
                         deadline=deadline)


class TestAdmission:
    def test_fifo_order(self, heat2d):
        queue = RequestQueue(bound=8)
        items = [queued(heat2d, seed=i, tag=str(i)) for i in range(3)]

        async def scenario():
            queue.bind_loop(asyncio.get_running_loop())
            for item in items:
                queue.offer(item)
            return [await queue.get() for _ in range(3)]

        popped = asyncio.run(scenario())
        assert [i.tag for i in popped] == ["0", "1", "2"]

    def test_full_queue_rejects_with_typed_error(self, heat2d):
        queue = RequestQueue(bound=2)
        queue.offer(queued(heat2d, seed=0))
        queue.offer(queued(heat2d, seed=1))
        with pytest.raises(QueueFullError) as excinfo:
            queue.offer(queued(heat2d, seed=2))
        assert excinfo.value.depth == 2
        assert excinfo.value.bound == 2
        assert "full" in str(excinfo.value)
        # rejected, not dropped: the queue still holds exactly the admitted
        assert queue.depth == 2
        assert queue.accepted == 2

    def test_expired_deadline_rejected_at_admission(self, heat2d):
        queue = RequestQueue(bound=8)
        dead = queued(heat2d, deadline=time.perf_counter() - 0.1)
        with pytest.raises(DeadlineExceededError):
            queue.offer(dead)
        assert queue.depth == 0

    def test_deadline_of_exactly_now_is_expired(self, heat2d):
        """Regression: a deadline equal to `now` must count as expired
        (``>=``), so a zero-second deadline can never be admitted or
        served — the boundary matches admission control."""
        item = queued(heat2d, deadline=time.perf_counter())
        assert item.expired(now=item.deadline)
        # and strictly-before stays unexpired
        assert not item.expired(now=item.deadline - 1e-6)
        queue = RequestQueue(bound=8)
        with pytest.raises(DeadlineExceededError):
            # by the time offer() re-checks, now >= the recorded deadline
            queue.offer(queued(heat2d, deadline=time.perf_counter()))

    def test_expired_beats_full_in_admission_order(self, heat2d):
        queue = RequestQueue(bound=1)
        queue.offer(queued(heat2d, seed=0))
        # a dead-on-arrival request is refused for its own reason even when
        # the queue is also full
        with pytest.raises(DeadlineExceededError):
            queue.offer(queued(heat2d, seed=1,
                               deadline=time.perf_counter() - 0.1))

    def test_closed_queue_rejects(self, heat2d):
        queue = RequestQueue(bound=8)
        queue.close()
        with pytest.raises(ServerClosedError):
            queue.offer(queued(heat2d))

    def test_bound_must_be_positive(self):
        with pytest.raises(ValidationError):
            RequestQueue(bound=0)

    def test_peak_depth_tracked(self, heat2d):
        queue = RequestQueue(bound=8)
        for i in range(3):
            queue.offer(queued(heat2d, seed=i))

        async def pop_all():
            queue.bind_loop(asyncio.get_running_loop())
            while queue.depth:
                await queue.get()

        asyncio.run(pop_all())
        assert queue.depth == 0
        assert queue.peak_depth == 3

    def test_get_timeout_raises(self, heat2d):
        queue = RequestQueue(bound=8)

        async def scenario():
            queue.bind_loop(asyncio.get_running_loop())
            with pytest.raises(asyncio.TimeoutError):
                await queue.get(timeout=0.01)

        asyncio.run(scenario())

    def test_get_returns_none_at_eof(self, heat2d):
        queue = RequestQueue(bound=8)
        queue.offer(queued(heat2d, tag="last"))
        queue.close()

        async def scenario():
            queue.bind_loop(asyncio.get_running_loop())
            first = await queue.get()
            second = await queue.get()
            return first, second

        first, second = asyncio.run(scenario())
        assert first.tag == "last"  # close() still drains what was admitted
        assert second is None

    def test_drain_pending_empties_queue(self, heat2d):
        queue = RequestQueue(bound=8)
        for i in range(3):
            queue.offer(queued(heat2d, seed=i))
        pending = queue.drain_pending()
        assert len(pending) == 3
        assert queue.depth == 0


class TestCoalesce:
    def test_groups_by_fingerprint_preserving_order(self, heat2d, box2d9p):
        items = [queued(heat2d, seed=0, tag="h0"),
                 queued(box2d9p, seed=1, tag="b0"),
                 queued(heat2d, seed=2, tag="h1"),
                 queued(heat2d, seed=3, tag="h2")]
        batches = coalesce(items)
        assert len(batches) == 2
        assert [i.tag for i in batches[0].items] == ["h0", "h1", "h2"]
        assert [i.tag for i in batches[1].items] == ["b0"]
        assert batches[0].fingerprint == items[0].fingerprint
        # equal grid *data* is irrelevant; equal compile options coalesce
        assert batches[0].size == 3

    def test_same_pattern_different_shape_not_coalesced(self, heat2d):
        items = [queued(heat2d, shape=(40, 44)), queued(heat2d, shape=(48, 48))]
        assert len(coalesce(items)) == 2

    def test_max_batch_size_splits_hot_fingerprints(self, heat2d):
        items = [queued(heat2d, seed=i) for i in range(5)]
        batches = coalesce(items, max_batch_size=2)
        assert [b.size for b in batches] == [2, 2, 1]
        assert all(b.fingerprint == items[0].fingerprint for b in batches)

    def test_collect_coalesces_within_window(self, heat2d, box2d9p):
        queue = RequestQueue(bound=16)
        coalescer = Coalescer(window_seconds=0.05, max_batch_size=16)
        for i in range(4):
            queue.offer(queued(heat2d, seed=i))
        queue.offer(queued(box2d9p, seed=9))

        async def scenario():
            queue.bind_loop(asyncio.get_running_loop())
            return await coalescer.collect(queue)

        batches = asyncio.run(scenario())
        assert {b.size for b in batches} == {4, 1}
        assert coalescer.cycles == 1
        assert coalescer.collected == 5
        assert coalescer.coalescing_ratio == 5.0

    def test_collect_returns_none_at_eof(self):
        queue = RequestQueue(bound=4)
        queue.close()

        async def scenario():
            queue.bind_loop(asyncio.get_running_loop())
            return await Coalescer().collect(queue)

        assert asyncio.run(scenario()) is None

    def test_idle_cycles_do_not_dilute_coalescing_ratio(self, heat2d):
        """Regression: only dispatch windows that gathered at least one
        request count as cycles — an idle server's EOF/empty windows must
        not drag the reported batching effectiveness toward 0."""
        coalescer = Coalescer(window_seconds=0.01, max_batch_size=16)

        async def scenario():
            # one real dispatch of 3 requests...
            queue = RequestQueue(bound=16)
            queue.bind_loop(asyncio.get_running_loop())
            for i in range(3):
                queue.offer(queued(heat2d, seed=i))
            await coalescer.collect(queue)
            # ...then a burst of idle windows (closed-and-empty queues)
            for _ in range(5):
                idle = RequestQueue(bound=16)
                idle.bind_loop(asyncio.get_running_loop())
                idle.close()
                assert await coalescer.collect(idle) is None

        asyncio.run(scenario())
        assert coalescer.cycles == 1
        assert coalescer.collected == 3
        assert coalescer.coalescing_ratio == 3.0  # not dragged toward 0

    def test_collect_caps_at_max_batch_size(self, heat2d):
        queue = RequestQueue(bound=16)
        coalescer = Coalescer(window_seconds=10.0, max_batch_size=3)
        for i in range(5):
            queue.offer(queued(heat2d, seed=i))

        async def scenario():
            queue.bind_loop(asyncio.get_running_loop())
            return await coalescer.collect(queue)

        batches = asyncio.run(scenario())
        # a full window dispatches immediately — a 10s window must not stall
        assert sum(b.size for b in batches) == 3
        assert queue.depth == 2

    def test_tight_deadline_shortens_window(self, heat2d):
        queue = RequestQueue(bound=16)
        coalescer = Coalescer(window_seconds=5.0, max_batch_size=16)
        queue.offer(queued(heat2d, seed=0,
                           deadline=time.perf_counter() + 0.05))

        async def scenario():
            queue.bind_loop(asyncio.get_running_loop())
            start = time.perf_counter()
            batches = await coalescer.collect(queue)
            return batches, time.perf_counter() - start

        batches, elapsed = asyncio.run(scenario())
        assert sum(b.size for b in batches) == 1
        assert elapsed < 1.0  # nowhere near the 5s window

"""Device-pool scheduler + occupancy ledger tests: routing by the perf
model, atomic leasing, the never-over-capacity invariant, and the routing
memo (a warm decision equals the model's fresh one)."""

from __future__ import annotations

import dataclasses
import functools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.morphing import MorphConfig
from repro.core.pipeline import compile_stencil
from repro.obs.metrics import reset_global_registry
from repro.programs import StencilProgram, compile_program
from repro.server import DevicePoolScheduler
from repro.server.scheduler import RouteCancelledError
from repro.stencils.boundary import neumann
from repro.stencils.grid import make_grid
from repro.stencils.pattern import StencilPattern
from repro.tcu.occupancy import OccupancyLedger
from repro.tcu.spec import DataType, MultiDeviceSpec
from repro.util.validation import ValidationError


class TestOccupancyLedger:
    def test_acquire_release_accounting(self):
        ledger = OccupancyLedger(4)
        lease = ledger.acquire(3)
        assert ledger.in_use == 3
        assert ledger.free == 1
        assert ledger.peak_in_use == 3
        held = ledger.release(lease, modelled_seconds=0.5)
        assert held >= 0.0
        assert ledger.in_use == 0
        assert ledger.free == 4
        assert ledger.peak_in_use == 3       # high-water mark survives
        snapshot = ledger.snapshot()
        assert snapshot["total_leases"] == 1
        busy = [d for d in snapshot["per_device"] if d["leases"] == 1]
        assert len(busy) == 3
        # the run's total modelled time is split across the leased devices,
        # so the pool-wide sum reproduces the total
        assert sum(d["modelled_seconds"] for d in busy) == pytest.approx(0.5)

    def test_try_acquire_never_oversubscribes(self):
        ledger = OccupancyLedger(2)
        first = ledger.try_acquire(2)
        assert first is not None
        assert ledger.try_acquire(1) is None
        ledger.release(first)
        assert ledger.try_acquire(1) is not None

    def test_acquire_more_than_pool_rejected(self):
        with pytest.raises(ValidationError):
            OccupancyLedger(2).acquire(3)

    def test_acquire_blocks_until_release(self):
        ledger = OccupancyLedger(1)
        lease = ledger.acquire(1)
        acquired_at = []

        def waiter():
            inner = ledger.acquire(1)
            acquired_at.append(time.perf_counter())
            ledger.release(inner)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert not acquired_at            # still blocked
        released_at = time.perf_counter()
        ledger.release(lease)
        thread.join(timeout=5)
        assert acquired_at and acquired_at[0] >= released_at

    def test_acquire_timeout(self):
        ledger = OccupancyLedger(1)
        ledger.acquire(1)
        with pytest.raises(TimeoutError):
            ledger.acquire(1, timeout=0.05)

    def test_utilization_fractions(self):
        ledger = OccupancyLedger(2)
        lease = ledger.acquire(1)
        time.sleep(0.02)
        ledger.release(lease)
        busy = ledger.utilization()
        assert 0.0 < busy[lease.device_ids[0]] <= 1.0
        idle = next(i for i in range(2) if i != lease.device_ids[0])
        assert busy[idle] == 0.0

    def test_concurrent_hammer_never_exceeds_capacity(self):
        ledger = OccupancyLedger(3)

        def worker():
            for _ in range(20):
                lease = ledger.acquire(1)
                assert ledger.in_use <= 3
                ledger.release(lease)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert ledger.in_use == 0
        assert ledger.peak_in_use <= 3
        assert ledger.total_leases == 160


class TestRoutingDecisions:
    @pytest.fixture(scope="class")
    def large_plan(self, heat2d_cls):
        return compile_stencil(heat2d_cls, (2048, 2048))

    @pytest.fixture(scope="class")
    def small_plan(self, heat2d_cls):
        return compile_stencil(heat2d_cls, (64, 64))

    def test_large_grid_routes_sharded_small_routes_single(
            self, large_plan, small_plan):
        """Acceptance: same pool, perf model splits the routes."""
        scheduler = DevicePoolScheduler(4)
        large = scheduler.decide(large_plan, 2)
        small = scheduler.decide(small_plan, 2)
        assert large.executor == "sharded"
        assert large.devices >= 2
        assert large.modelled_speedup > 1.25
        assert 0.0 < large.halo_fraction <= 0.25
        assert small.executor == "single"
        assert small.devices == 1
        assert "latency-bound" in small.reason

    def test_busy_pool_degrades_to_single(self, large_plan):
        scheduler = DevicePoolScheduler(4)
        decision = scheduler.decide(large_plan, 2, free_devices=1)
        assert decision.executor == "single"
        assert "busy" in decision.reason

    def test_non_divisible_iterations_stay_single(self, heat2d_cls):
        fused = compile_stencil(heat2d_cls, (2048, 2048), temporal_fusion=2)
        scheduler = DevicePoolScheduler(4)
        assert scheduler.decide(fused, 4).executor == "sharded"
        odd = scheduler.decide(fused, 3)
        assert odd.executor == "single"
        assert "divisible" in odd.reason

    def test_slow_interconnect_disables_sharding(self, large_plan):
        dialup = MultiDeviceSpec(device_count=4,
                                 interconnect_bandwidth_gbs=0.001,
                                 link_latency_seconds=1.0)
        scheduler = DevicePoolScheduler(dialup)
        assert scheduler.decide(large_plan, 2).executor == "single"

    def test_route_leases_atomically(self, large_plan):
        scheduler = DevicePoolScheduler(4)
        decision, lease = scheduler.route(large_plan, 2)
        assert decision.executor == "sharded"
        assert lease.device_count == decision.devices
        assert scheduler.ledger.in_use == decision.devices
        scheduler.ledger.release(lease)

    def test_route_degrades_when_devices_held(self, large_plan):
        scheduler = DevicePoolScheduler(4)
        held = scheduler.ledger.acquire(3)
        decision, lease = scheduler.route(large_plan, 2)
        # only one device free: the route degrades to single instead of
        # blocking on devices that may never free up together
        assert decision.executor == "single"
        assert lease.device_count == 1
        assert scheduler.ledger.in_use == 4
        scheduler.ledger.release(lease)
        scheduler.ledger.release(held)

    def test_route_retry_loop_is_bounded(self, large_plan):
        """Regression: under contention flapping the free count (another
        worker releases and a third grabs between every decide and
        try_acquire), the old unbounded loop spun forever.  A ledger whose
        optimistic lease always fails while advertising a free pool is the
        worst case: the router must give up after ``route_retries``
        attempts and take the single-device route."""

        class FlappingLedger(OccupancyLedger):
            def __init__(self):
                super().__init__(4)
                self.failed_leases = 0

            @property
            def free(self):
                return 4           # always looks worth sharding

            def try_acquire(self, devices):
                self.failed_leases += 1
                return None        # ...but the lease always loses the race

        ledger = FlappingLedger()
        scheduler = DevicePoolScheduler(4, ledger=ledger, route_retries=5)
        decision, lease = scheduler.route(large_plan, 2)
        assert ledger.failed_leases == 5
        assert decision.executor == "single"
        assert decision.devices == 1
        assert "contention" in decision.reason
        assert lease.device_count == 1
        ledger.release(lease)

    def test_route_retries_validated(self):
        with pytest.raises(ValidationError):
            DevicePoolScheduler(4, route_retries=0)

    def test_route_cancel_aborts_device_wait(self, small_plan):
        """Regression for the shutdown deadlock: every device leased
        elsewhere and never released, route() waiting on acquire(1).  A
        set cancel event must abort the wait with the typed error instead
        of blocking forever."""
        scheduler = DevicePoolScheduler(2)
        held = scheduler.ledger.acquire(2)
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(RouteCancelledError):
            scheduler.route(small_plan, 2, cancel=cancel,
                            poll_seconds=0.01)
        scheduler.ledger.release(held)

    def test_route_cancel_set_mid_wait(self, small_plan):
        scheduler = DevicePoolScheduler(2)
        held = scheduler.ledger.acquire(2)
        cancel = threading.Event()
        outcome = []

        def routed():
            try:
                scheduler.route(small_plan, 2, cancel=cancel,
                                poll_seconds=0.01)
            except RouteCancelledError:
                outcome.append("cancelled")

        thread = threading.Thread(target=routed)
        thread.start()
        thread.join(timeout=0.1)
        assert thread.is_alive()          # genuinely parked on the wait
        cancel.set()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert outcome == ["cancelled"]
        scheduler.ledger.release(held)

    def test_route_with_set_cancel_still_leases_free_device(self,
                                                            small_plan):
        """A free device wins over a set cancel event: the acquire is
        attempted before every cancellation check."""
        scheduler = DevicePoolScheduler(2)
        cancel = threading.Event()
        cancel.set()
        decision, lease = scheduler.route(small_plan, 2, cancel=cancel)
        assert decision.devices == lease.device_count
        scheduler.ledger.release(lease)

    def test_spec_for_keeps_plan_device(self, large_plan):
        scheduler = DevicePoolScheduler(8)
        decision = scheduler.decide(large_plan, 2)
        spec = scheduler.spec_for(decision, large_plan)
        assert spec.device_count == decision.devices
        assert spec.device == large_plan.spec
        assert spec.interconnect_bandwidth_gbs == \
            scheduler.pool.interconnect_bandwidth_gbs


class TestHaloDepthRouting:
    """The scheduler's communication-avoiding depth search: auto mode picks
    the modelled-best depth per device count, fixed depth is honoured, and
    the decision carries both knobs to the executor."""

    @pytest.fixture(scope="class")
    def plan(self, heat2d_cls):
        return compile_stencil(heat2d_cls, (514, 514), search=False,
                               r1=8, r2=8)

    @pytest.fixture(scope="class")
    def laggy_pool(self):
        return MultiDeviceSpec(device_count=4,
                               interconnect_bandwidth_gbs=600.0,
                               link_latency_seconds=2e-7)

    def test_auto_depth_goes_deep_when_latency_exposed(self, plan,
                                                       laggy_pool):
        decision = DevicePoolScheduler(laggy_pool, overlap=False).decide(
            plan, 16)
        assert decision.executor == "sharded"
        assert decision.halo_depth > 1
        assert decision.overlap is False
        assert "halo depth" in decision.reason

    def test_overlap_can_hide_what_deep_halos_avoid(self, plan, laggy_pool):
        """With overlap modelled, the interior hides this workload's whole
        exchange — depth 1 wins; without it the search must go deeper."""
        hidden = DevicePoolScheduler(laggy_pool, overlap=True).decide(plan, 16)
        exposed = DevicePoolScheduler(laggy_pool, overlap=False).decide(
            plan, 16)
        assert hidden.executor == exposed.executor == "sharded"
        assert hidden.halo_depth == 1
        assert hidden.overlap is True
        assert exposed.halo_depth > hidden.halo_depth
        assert hidden.modelled_speedup >= exposed.modelled_speedup

    def test_fixed_depth_honoured(self, plan, laggy_pool):
        decision = DevicePoolScheduler(laggy_pool, halo_depth=2).decide(
            plan, 16)
        assert decision.executor == "sharded"
        assert decision.halo_depth == 2

    def test_deep_halos_unlock_sharding(self, plan, laggy_pool):
        """Capped at depth 1 the exposed latency kills the modelled speedup
        and the workload routes single-device — the deeper search is what
        makes this pool worth sharding on at all."""
        capped = DevicePoolScheduler(laggy_pool, overlap=False,
                                     max_halo_depth=1).decide(plan, 16)
        deep = DevicePoolScheduler(laggy_pool, overlap=False).decide(plan, 16)
        assert capped.executor == "single"
        assert "latency-bound" in capped.reason
        assert deep.executor == "sharded"
        assert deep.halo_depth > 1

    def test_single_route_keeps_default_depth(self, heat2d_cls):
        small = compile_stencil(heat2d_cls, (64, 64))
        decision = DevicePoolScheduler(4).decide(small, 2)
        assert decision.executor == "single"
        assert decision.halo_depth == 1


# --------------------------------------------------------------------- #
# routing memo
# --------------------------------------------------------------------- #

MEMO_SETTINGS = dict(max_examples=25, deadline=None)

#: Every boundary kind, Neumann with a non-zero flux included.
BOUNDARIES = ["dirichlet", "periodic", "reflect", neumann(0.5)]

#: Pool interconnects: the default NVLink model, on which the small
#: generated grids are latency-bound and stay single, and a near-ideal link
#: on which they shard — so both branches of the model are memoized.
LINKS = [{}, dict(interconnect_bandwidth_gbs=1e4, link_latency_seconds=1e-9)]

#: Per-axis extent range of the generated (ragged) grids, by ndim.
EXTENTS = {1: (40, 400), 2: (20, 110), 3: (10, 22)}


@functools.lru_cache(maxsize=None)
def _kernel_plan(kind, ndim, radius, shape, boundary, backend, fusion,
                 r1, r2):
    pattern = getattr(StencilPattern, kind)(ndim, radius)
    return compile_stencil(pattern, shape, temporal_fusion=fusion,
                           boundary=boundary, backend=backend,
                           search=False, r1=r1, r2=r2)


@functools.lru_cache(maxsize=None)
def _program_plan(name, ndim, stages, shape, boundary, backend):
    program = StencilProgram.chain(
        name, [(f"s{index}", getattr(StencilPattern, kind)(ndim, radius))
               for index, (kind, radius) in enumerate(stages)])
    return compile_program(
        program, make_grid(shape, seed=0, boundary=boundary),
        options=dict(backend=backend, search=False, r1=2, r2=2))


def _shape(draw, ndim):
    low, high = EXTENTS[ndim]
    return tuple(draw(st.integers(low, high)) for _ in range(ndim))


def _pool(draw):
    return MultiDeviceSpec(device_count=draw(st.sampled_from([1, 2, 4, 8])),
                           **draw(st.sampled_from(LINKS)))


@st.composite
def kernel_cases(draw):
    ndim = draw(st.integers(1, 3))
    plan = _kernel_plan(draw(st.sampled_from(["star", "box"])), ndim,
                        draw(st.integers(1, 2)), _shape(draw, ndim),
                        draw(st.sampled_from(BOUNDARIES)),
                        draw(st.sampled_from(["tcu-sim", "numpy"])),
                        draw(st.sampled_from([1, 2])),
                        draw(st.sampled_from([1, 2, 4])),
                        draw(st.sampled_from([1, 2])))
    # odd counts leave a temporal-fusion remainder when fusion is 2
    iterations = draw(st.integers(1, 6))
    pool = _pool(draw)
    free = draw(st.integers(0, pool.device_count))
    halo_depth = draw(st.sampled_from([None, 1, 2]))
    return plan, iterations, free, pool, halo_depth


@st.composite
def program_cases(draw):
    ndim = draw(st.integers(1, 3))
    stages = tuple(draw(st.lists(
        st.tuples(st.sampled_from(["star", "box"]), st.integers(1, 2)),
        min_size=1, max_size=3)))
    spec = (draw(st.sampled_from(["heat", "blur"])), ndim, stages,
            _shape(draw, ndim), draw(st.sampled_from(BOUNDARIES)),
            draw(st.sampled_from(["tcu-sim", "numpy"])))
    steps = draw(st.integers(1, 4))
    pool = _pool(draw)
    return spec, steps, draw(st.integers(0, pool.device_count)), pool


def _kernel_variants(plan, iterations, free, device_count):
    """``(plan, iterations, free)`` inputs that each differ from the case
    in exactly one input a kernel decision reads.  The plans are copies
    with only that field edited, so a memo key missing any field makes one
    of them collide with the case."""
    pattern, inner = plan.pattern, plan.plan
    estimate = inner.estimate
    boundary = BOUNDARIES[(BOUNDARIES.index(plan.boundary) + 1)
                          % len(BOUNDARIES)]
    edits = [
        dict(grid_shape=plan.grid_shape[:-1] + (plan.grid_shape[-1] + 8,)),
        dict(pattern=StencilPattern.star(pattern.ndim % 3 + 1,
                                         pattern.radius)),
        dict(pattern=StencilPattern.star(pattern.ndim, pattern.radius + 1)),
        dict(boundary=boundary),
        # doubling every extent makes a 3-D config inexpressible as (r1, r2)
        dict(plan=dataclasses.replace(inner, config=MorphConfig(
            tuple(2 * extent for extent in inner.config.r)))),
        dict(plan=dataclasses.replace(
            inner, dtype=DataType.FP64 if inner.dtype.itemsize != 8
            else DataType.FP16)),
        dict(plan=dataclasses.replace(inner, estimate=dataclasses.replace(
            estimate, t_compute=2 * estimate.t_total))),
    ]
    variants = [(dataclasses.replace(plan, **edit), iterations, free)
                for edit in edits]
    # flips "iterations divide the fusion factor" when fusion is 2, and
    # must share the case's decision when it is 1
    variants.append((plan, iterations + 1, free))
    variants += [(plan, iterations, other)
                 for other in range(device_count + 1) if other != free]
    return variants


class TestRoutingMemo:
    """A memoized decision is the one the model computes fresh: its key
    holds every input the decision reads, and nothing is shared across
    schedulers."""

    @settings(**MEMO_SETTINGS)
    @given(case=kernel_cases())
    def test_warm_decide_equals_fresh(self, case):
        plan, iterations, free, pool, halo_depth = case
        warm = DevicePoolScheduler(pool, halo_depth=halo_depth)
        for variant, its, other in _kernel_variants(plan, iterations, free,
                                                    pool.device_count):
            warm.decide(variant, its, free_devices=other)
        first = warm.decide(plan, iterations, free_devices=free)
        memoized = warm.decide(plan, iterations, free_devices=free)
        assert warm.memo_outcome() == "hit"
        assert memoized is first
        fresh = DevicePoolScheduler(pool, halo_depth=halo_depth).decide(
            plan, iterations, free_devices=free)
        assert dataclasses.asdict(memoized) == dataclasses.asdict(fresh)

    @settings(**MEMO_SETTINGS)
    @given(case=program_cases())
    def test_warm_decide_program_equals_fresh(self, case):
        spec, steps, free, pool = case
        name, ndim, stages, shape, boundary, backend = spec
        plan = _program_plan(*spec)
        variants = [
            # another fingerprint under the same name
            (_program_plan(name, ndim, stages,
                           shape[:-1] + (shape[-1] + 8,), boundary,
                           backend), steps, free),
            # the same fingerprint under another name
            (_program_plan("blur" if name == "heat" else "heat", ndim,
                           stages, shape, boundary, backend), steps, free),
            (plan, steps + 1, free),
        ] + [(plan, steps, other)
             for other in range(pool.device_count + 1) if other != free]
        warm = DevicePoolScheduler(pool)
        for variant, its, other in variants:
            warm.decide_program(variant, its, free_devices=other)
        first = warm.decide_program(plan, steps, free_devices=free)
        memoized = warm.decide_program(plan, steps, free_devices=free)
        assert warm.memo_outcome() == "hit"
        assert memoized is first
        fresh = DevicePoolScheduler(pool).decide_program(
            plan, steps, free_devices=free)
        assert dataclasses.asdict(memoized) == dataclasses.asdict(fresh)

    def test_concurrent_routes_get_the_decision_for_their_free_count(self):
        """Threads route one plan through a partly leased pool: each gets
        the model's decision for the free count its route read, and every
        lease is returned."""

        class RecordingLedger(OccupancyLedger):
            def __init__(self, device_count):
                super().__init__(device_count)
                self.seen = threading.local()

            @property
            def free(self):
                value = super().free
                self.seen.value = value
                return value

        pool = MultiDeviceSpec(device_count=4, **LINKS[1])
        plan = _kernel_plan("star", 2, 1, (96, 104), "dirichlet", "numpy",
                            1, 4, 2)
        reference = DevicePoolScheduler(pool)
        expected = {free: reference.decide(plan, 4, free_devices=free)
                    for free in range(5)}
        assert expected[3].sharded and not expected[1].sharded
        ledger = RecordingLedger(4)
        scheduler = DevicePoolScheduler(pool, ledger=ledger)
        registry = reset_global_registry()
        held = ledger.acquire(1)

        def worker():
            wrong = []
            for _ in range(25):
                decision, lease = scheduler.route(plan, 4)
                seen = ledger.seen.value
                try:
                    assert lease.device_count == decision.devices
                    if (not decision.reason.startswith("pool contention")
                            and decision != expected[seen]):
                        wrong.append((seen, decision))
                    time.sleep(0)
                finally:
                    ledger.release(lease)
            return wrong

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as executor:
                futures = [executor.submit(worker) for _ in range(8)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [[]] * 8
        ledger.release(held)
        assert ledger.in_use == 0
        assert registry.counter("scheduler.route_memo_hits").value > 0

    def test_schedulers_never_share_decisions(self):
        """Thresholds are per scheduler and the memo is too: a strict
        scheduler never sees an eager one's sharded decision."""
        pool = MultiDeviceSpec(device_count=4, **LINKS[1])
        plan = _kernel_plan("star", 2, 1, (96, 104), "dirichlet", "numpy",
                            1, 4, 2)
        eager = DevicePoolScheduler(pool, min_speedup=1.0)
        sharded = eager.decide(plan, 4, free_devices=4)
        assert sharded.sharded
        strict = DevicePoolScheduler(
            pool, min_speedup=sharded.modelled_speedup + 1.0)
        for _ in range(2):
            assert not strict.decide(plan, 4, free_devices=4).sharded
            assert eager.decide(plan, 4, free_devices=4) is sharded

    def test_memo_counted_in_global_registry(self):
        """Hits and misses are counted; infeasible shard candidates are
        counted once per distinct decision, not again on a hit."""
        registry = reset_global_registry()
        # 8-wide tiles leave no room for 8 shards of this grid
        plan = _kernel_plan("box", 3, 2, (10, 10, 10), "dirichlet", "numpy",
                            1, 8, 2)
        scheduler = DevicePoolScheduler(8)
        scheduler.decide(plan, 2)
        assert scheduler.memo_outcome() == "miss"
        infeasible = registry.counter("scheduler.infeasible_partitions").value
        assert infeasible > 0
        scheduler.decide(plan, 2)
        assert scheduler.memo_outcome() == "hit"
        assert registry.counter("scheduler.route_memo_misses").value == 1
        assert registry.counter("scheduler.route_memo_hits").value == 1
        assert registry.counter(
            "scheduler.infeasible_partitions").value == infeasible

    def test_memo_cleared_when_full(self, heat2d_cls, monkeypatch):
        import repro.server.scheduler as scheduler_module

        monkeypatch.setattr(scheduler_module, "ROUTE_MEMO_LIMIT", 2)
        plan = compile_stencil(heat2d_cls, (64, 64))
        scheduler = DevicePoolScheduler(4)
        decisions = [scheduler.decide(plan, 2, free_devices=free)
                     for free in (0, 2, 4)]
        # the third distinct key cleared the memo: only it is warm
        assert scheduler.decide(plan, 2, free_devices=4) is decisions[2]
        assert scheduler.memo_outcome() == "hit"
        assert scheduler.decide(plan, 2, free_devices=0) == decisions[0]
        assert scheduler.memo_outcome() == "miss"


@pytest.fixture(scope="class")
def heat2d_cls():
    from repro.stencils.pattern import StencilPattern
    return StencilPattern.star(2, 1, weights=[0.6, 0.1, 0.1, 0.1, 0.1],
                               name="heat-2d")

"""Sharded-execution tests: bit-identical equivalence against the golden
fixtures (including deep halos), shard-plan fingerprint sharing, the halo
accounting, the scaling / deep-halo tradeoff analysis, and the layout memo
(a warm run equals a fresh one)."""

from __future__ import annotations

import dataclasses
import itertools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from functools import lru_cache

import numpy as np
import pytest
from golden.generate_golden import CASES as GOLDEN_CASES, fixture_path
from hypothesis import event, given, settings, strategies as st

from repro import (Problem, SessionConfig, StencilSession, compile_stencil,
                   get_benchmark, make_grid)
from repro.analysis import (deep_halo_tradeoff, per_shard_utilization,
                            sharded_scaling)
from repro.engine import ShardedExecutor, SingleDeviceExecutor, SweepExecutor
from repro.engine.sharded import (RoundSchedule, ShardGeometry,
                                  price_schedule)
from repro.service import CompileCache, solve_sharded
from repro.obs.metrics import global_registry
from repro.service.cache import SHARD_LAYOUT_LIMIT
from repro.stencils.boundary import neumann
from repro.stencils.pattern import StencilPattern
from repro.tcu.spec import DataType, GPUSpec, MultiDeviceSpec, multi_a100
from repro.util.validation import ValidationError

#: The canonical golden case list, owned by tests/golden/generate_golden.py
#: (name, grid, iterations, seed, boundary — the tolerance column is the
#: regression suite's concern).
CASES = [c[:5] for c in GOLDEN_CASES]


def workload(name, grid_shape, seed, boundary="dirichlet"):
    config = get_benchmark(name)
    return config.pattern, make_grid(grid_shape, kind="random", seed=seed,
                                     boundary=boundary)


@pytest.mark.parametrize("name,grid_shape,iterations,seed,boundary", CASES,
                         ids=[f"{c[0]}-{c[4]}" for c in CASES])
@pytest.mark.parametrize("devices", [1, 2, 4])
class TestShardedEquivalence:
    def test_bit_identical_to_single_device(self, name, grid_shape,
                                            iterations, seed, boundary,
                                            devices):
        pattern, grid = workload(name, grid_shape, seed, boundary)
        compiled = compile_stencil(pattern, grid_shape, boundary=boundary)
        single = SingleDeviceExecutor().execute(compiled, grid, iterations)
        sharded = ShardedExecutor(devices).execute(compiled, grid, iterations)
        assert np.array_equal(single.output, sharded.output)

    def test_matches_golden_fixture(self, name, grid_shape, iterations, seed,
                                    boundary, devices):
        fixture = np.load(fixture_path(name, boundary))
        pattern, grid = workload(name, grid_shape, seed, boundary)
        # the fixtures freeze the tcu-sim pipeline's numerics, so this
        # comparison pins the backend regardless of REPRO_BACKEND
        compiled = compile_stencil(pattern, grid_shape, boundary=boundary,
                                   backend="tcu-sim")
        sharded = ShardedExecutor(devices).execute(compiled, grid, iterations)
        np.testing.assert_allclose(sharded.output, fixture["pipeline"],
                                   rtol=0.0, atol=1e-9)


class TestShardedExecutor:
    def test_is_a_sweep_executor(self):
        assert isinstance(ShardedExecutor(2), SweepExecutor)

    def test_one_shard_degenerates_to_single_device(self, heat2d):
        compiled = compile_stencil(heat2d, (64, 64))
        grid = make_grid((64, 64), seed=3)
        result = ShardedExecutor(1).execute(compiled, grid, 2)
        assert result.shard_grid == (1, 1)
        assert result.halo_exchange_bytes == 0.0
        assert result.halo_exchange_seconds == 0.0
        assert result.halo_traffic_fraction == 0.0
        single = SingleDeviceExecutor().execute(compiled, grid, 2)
        assert np.array_equal(result.output, single.output)

    def test_equal_shaped_shards_share_one_fingerprint(self, heat2d):
        cache = CompileCache()
        compiled = compile_stencil(heat2d, (66, 66))
        grid = make_grid((66, 66), seed=3)
        executor = ShardedExecutor(4, cache=cache)
        partition = executor.partition(compiled)
        shapes = {s.subgrid_shape for s in partition.shards}
        executor.execute(compiled, grid, 2)
        assert cache.stats.misses == len(shapes)
        assert cache.stats.misses < partition.n_shards or len(shapes) == 4

    def test_explicit_shard_grid(self, heat2d):
        compiled = compile_stencil(heat2d, (64, 64))
        grid = make_grid((64, 64), seed=3)
        result = ShardedExecutor(4, shard_grid=(4, 1)).execute(
            compiled, grid, 2)
        assert result.shard_grid == (4, 1)
        single = SingleDeviceExecutor().execute(compiled, grid, 2)
        assert np.array_equal(result.output, single.output)

    def test_more_shards_than_devices_rejected(self, heat2d):
        compiled = compile_stencil(heat2d, (64, 64))
        grid = make_grid((64, 64), seed=3)
        with pytest.raises(ValidationError):
            ShardedExecutor(2, shard_grid=(2, 2)).execute(compiled, grid, 2)

    def test_non_divisible_fused_iterations_rejected(self, heat2d):
        compiled = compile_stencil(heat2d, (64, 64), temporal_fusion=2)
        grid = make_grid((64, 64), seed=3)
        with pytest.raises(ValidationError):
            ShardedExecutor(2).execute(compiled, grid, 3)

    def test_temporal_fusion_stays_bit_identical(self, heat2d):
        compiled = compile_stencil(heat2d, (64, 64), temporal_fusion=2)
        grid = make_grid((64, 64), seed=3)
        single = SingleDeviceExecutor().execute(compiled, grid, 4)
        sharded = ShardedExecutor(2).execute(compiled, grid, 4)
        assert np.array_equal(single.output, sharded.output)

    def test_single_sweep_bills_no_halo_exchange(self, heat2d):
        """Nothing reads halos after the final sweep, so a one-sweep run
        must report zero exchange traffic and time."""
        compiled = compile_stencil(heat2d, (96, 96))
        grid = make_grid((96, 96), seed=3)
        result = ShardedExecutor(4).execute(compiled, grid, 1)
        assert result.halo_exchange_bytes == 0.0
        assert result.halo_exchange_seconds == 0.0
        single = SingleDeviceExecutor().execute(compiled, grid, 1)
        assert np.array_equal(result.output, single.output)

    def test_multi_device_accounting(self, heat2d):
        compiled = compile_stencil(heat2d, (96, 96))
        grid = make_grid((96, 96), seed=3)
        result = ShardedExecutor(4).execute(compiled, grid, 2)
        assert result.device_count == 4
        assert result.n_shards == 4
        assert len(result.shard_utilization) == 4
        assert result.halo_exchange_bytes > 0
        assert 0.0 < result.halo_traffic_fraction < 1.0
        assert 0.0 < result.load_balance <= 1.0
        assert result.points_updated == pytest.approx(2 * 94 * 94)
        assert "shard_compile" in result.overhead_seconds


#: Deep-halo matrix geometry: shapes sized so the 8x8 layout tiles divide
#: the interior (periodic wrap images stay tile-congruent) and every shard
#: owns the depth-3 ghost width (1 + 2*8 = 17 cells).
DEEP_SHAPES = {1: (258,), 2: (130, 130)}
DEEP_SHARDS = {1: {1: (1,), 2: (2,), 4: (4,)},
               2: {1: (1, 1), 2: (2, 1), 4: (2, 2)}}
DEEP_ITERS = 4

#: One cache for the whole matrix — window shapes repeat heavily across
#: depths and shard grids, so the 54 cases compile a handful of plans.
_DEEP_CACHE = CompileCache(capacity=256)


@lru_cache(maxsize=None)
def _deep_case(ndim, boundary):
    shape = DEEP_SHAPES[ndim]
    weights = [0.6] + [0.4 / (2 * ndim)] * (2 * ndim)
    pattern = StencilPattern.star(ndim, 1, weights=weights,
                                  name=f"deep-heat-{ndim}d")
    grid = make_grid(shape, kind="random", seed=11, boundary=boundary)
    compiled = compile_stencil(pattern, shape, boundary=boundary,
                               search=False, r1=8, r2=8)
    single = SingleDeviceExecutor().execute(compiled, grid, DEEP_ITERS)
    return compiled, grid, single.output


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic", "reflect"])
@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("ndim", [1, 2])
class TestDeepHaloEquivalence:
    """The communication-avoiding schedule must stay bit-identical to the
    single-device run across every boundary condition, shard grid and
    halo depth — redundant ghost compute included."""

    def test_bit_identical_across_depths(self, ndim, shards, depth, boundary):
        compiled, grid, expected = _deep_case(ndim, boundary)
        executor = ShardedExecutor(shards,
                                   shard_grid=DEEP_SHARDS[ndim][shards],
                                   cache=_DEEP_CACHE, halo_depth=depth)
        result = executor.execute(compiled, grid, DEEP_ITERS)
        if shards > 1:
            # the geometry is sized so the requested depth is feasible
            assert result.halo_depth == depth
            expected_exchanges = -(-DEEP_ITERS // depth) - 1
            assert result.halo_exchange_count == expected_exchanges
        assert np.array_equal(result.output, expected)


class TestDeepHaloAccounting:
    def _run(self, compiled, grid, **kwargs):
        return ShardedExecutor(4, cache=_DEEP_CACHE, **kwargs).execute(
            compiled, grid, DEEP_ITERS)

    def test_deeper_halos_exchange_less(self):
        compiled, grid, _ = _deep_case(2, "dirichlet")
        shallow = self._run(compiled, grid, halo_depth=1)
        deep = self._run(compiled, grid, halo_depth=3)
        assert shallow.halo_exchange_count == DEEP_ITERS - 1
        assert deep.halo_exchange_count < shallow.halo_exchange_count
        assert deep.halo_exchange_seconds < shallow.halo_exchange_seconds
        # fewer exchanges trade against redundant ghost compute
        assert shallow.redundant_points_updated == 0.0
        assert deep.redundant_points_updated > 0.0
        assert 0.0 < deep.redundant_compute_fraction < 1.0

    def test_overlap_hides_exchange_time(self):
        compiled, grid, expected = _deep_case(2, "dirichlet")
        hidden = self._run(compiled, grid, halo_depth=2, overlap=True)
        serial = self._run(compiled, grid, halo_depth=2, overlap=False)
        # overlap is a timing model, never a numerics change
        assert np.array_equal(hidden.output, serial.output)
        assert np.array_equal(hidden.output, expected)
        assert hidden.halo_exchange_seconds == serial.halo_exchange_seconds
        assert hidden.halo_exposed_seconds <= serial.halo_exposed_seconds
        assert hidden.elapsed_seconds <= serial.elapsed_seconds
        # without overlap every exchange second is exposed wall time
        assert serial.halo_exposed_seconds == pytest.approx(
            serial.halo_exchange_seconds)
        assert serial.halo_traffic_fraction == pytest.approx(
            serial.halo_exposed_seconds / serial.elapsed_seconds)

    def test_halo_bytes_fraction_separates_byte_view(self):
        compiled, grid, _ = _deep_case(2, "dirichlet")
        result = self._run(compiled, grid, halo_depth=2)
        assert 0.0 < result.halo_bytes_fraction < 1.0
        assert result.device_traffic_bytes > result.halo_exchange_bytes

    def test_infeasible_depth_clamps_to_geometry(self, heat2d):
        compiled = compile_stencil(heat2d, (34, 34), search=False, r1=8, r2=8)
        grid = make_grid((34, 34), seed=3)
        result = ShardedExecutor(4, shard_grid=(2, 2),
                                 halo_depth=5).execute(compiled, grid, 4)
        # 16-cell chunks hold at most radius + 1*step = 9 ghost cells
        assert result.halo_depth == 2
        single = SingleDeviceExecutor().execute(compiled, grid, 4)
        assert np.array_equal(result.output, single.output)


class TestRoundModels:
    def test_model_schedule_matches_executor_wall_clock(self):
        compiled, grid, _ = _deep_case(2, "dirichlet")
        spec = MultiDeviceSpec(device=compiled.spec, device_count=4)
        for depth in (1, 2, 3):
            for overlap in (True, False):
                executor = ShardedExecutor(spec, shard_grid=(2, 2),
                                           cache=_DEEP_CACHE,
                                           halo_depth=depth, overlap=overlap)
                layout = executor.layout(compiled)
                model = price_schedule(
                    RoundSchedule.kernel(DEEP_ITERS,
                                         layout.partition.halo_depth),
                    layout.geometry, layout.window_seconds(), overlap)
                result = executor.execute(compiled, grid, DEEP_ITERS)
                assert model.wall_seconds == result.elapsed_seconds
                assert model.exposed_seconds == result.halo_exposed_seconds
                assert model.redundant_fraction * result.points_updated == \
                    pytest.approx(result.redundant_points_updated)

    def test_model_round_single_shard_is_pure_compute(self):
        from repro.stencils.partition import GridPartition

        partition = GridPartition.build((66, 66), 1, (1, 1), align=(8, 8))
        geometry = ShardGeometry.build(partition, multi_a100(1), 2)
        model = price_schedule(
            RoundSchedule.steady_state(partition.halo_depth), geometry,
            {"": geometry.linear_seconds(1e-6)})
        assert model.per_sweep_seconds == 1e-6
        assert model.halo_seconds == 0.0
        assert model.halo_fraction == 0.0


@lru_cache(maxsize=None)
def _bill_program(boundary):
    """A three-stage equal-radius chain (``fuse=True`` puts every stage
    under one exchange) and its grid."""
    from repro import StencilProgram, compile_program

    heat = StencilPattern.star(2, 1, weights=[0.6, 0.1, 0.1, 0.1, 0.1])
    blur = StencilPattern.box(2, 1, weights=[1.0 / 9.0] * 9)
    program = StencilProgram.chain(
        "bill-chain", [("heat", heat), ("blur", blur), ("relax", heat)])
    grid = make_grid((66, 66), kind="random", seed=5, boundary=boundary)
    return compile_program(program, grid), grid


_KERNEL_BILL_CASES = [
    ("kernel", boundary, shards, depth, overlap, iterations)
    for boundary in ("dirichlet", "periodic", "reflect")
    for shards in (1, 2, 4)
    for depth in (1, 2, 3)
    for overlap in (True, False)
    # 5 divides by no depth above 1; 6 by every depth
    for iterations in (5, 6)
]
_PROGRAM_BILL_CASES = [
    ("program", boundary, 4, fuse, overlap, steps)
    for boundary in ("dirichlet", "periodic", "reflect")
    for fuse in (True, False)
    for overlap in (True, False)
    for steps in (1, 2, 3)
]


@pytest.mark.parametrize(
    "kind,boundary,shards,knob,overlap,count",
    _KERNEL_BILL_CASES + _PROGRAM_BILL_CASES,
    ids=lambda v: str(v))
def test_priced_schedule_equals_run_bill(kind, boundary, shards, knob,
                                         overlap, count):
    """Pricing a run's :class:`RoundSchedule` with its layout's window
    seconds reproduces the run's bill exactly — kernels (``knob`` is the
    halo depth, ``count`` the iterations) and chain programs (``knob`` is
    ``fuse``, ``count`` the steps)."""
    from repro import ShardedProgramRunner

    if kind == "kernel":
        compiled, grid, _ = _deep_case(2, boundary)
        runner = ShardedExecutor(shards, shard_grid=DEEP_SHARDS[2][shards],
                                 cache=_DEEP_CACHE, halo_depth=knob,
                                 overlap=overlap)
        layout = runner.layout(compiled)
        schedule = RoundSchedule.kernel(count, layout.partition.halo_depth)
        result = runner.execute(compiled, grid, count)
    else:
        plan, grid = _bill_program(boundary)
        runner = ShardedProgramRunner(shards, cache=_DEEP_CACHE, fuse=knob,
                                      overlap=overlap)
        layout = runner.layout(plan)
        schedule = RoundSchedule.program(layout.groups, count)
        result = runner.execute(plan, grid, count)
    bill = price_schedule(schedule, layout.geometry, layout.window_seconds(),
                          overlap)
    assert bill.wall_seconds == result.elapsed_seconds
    assert bill.exposed_seconds == result.halo_exposed_seconds
    assert bill.exchange_count == result.halo_exchange_count
    assert bill.halo_seconds == result.halo_exchange_seconds
    assert bill.sweeps == result.sweeps


#: Every layout of the bill matrix — kernels ``(boundary, shards, halo
#: depth)`` and chain programs ``(boundary, 4, fuse)`` — on both backends,
#: plus a dense fp64 plan, whose tcu-sim sweeps run the dense MMA model.
_LAYOUT_CASES = [
    case + (backend, DataType.FP16)
    for case in dict.fromkeys(c[:4] for c in _KERNEL_BILL_CASES
                              + _PROGRAM_BILL_CASES)
    for backend in ("tcu-sim", "numpy")
] + [("kernel", "periodic", 4, 2, "tcu-sim", DataType.FP64)]


@lru_cache(maxsize=None)
def _layout_work(kind, boundary, backend, dtype):
    """The compiled kernel (the deep-halo heat plan) or chain program (the
    bill chain) of one layout case, on an explicit backend, plus its grid."""
    from repro import compile_program

    if kind == "program":
        plan, grid = _bill_program(boundary)
        return compile_program(plan.program, grid,
                               options={"backend": backend}), grid
    shape = DEEP_SHAPES[2]
    pattern = StencilPattern.star(2, 1, weights=[0.6] + [0.1] * 4,
                                  name="deep-heat-2d")
    grid = make_grid(shape, kind="random", seed=11, boundary=boundary)
    return compile_stencil(pattern, shape, boundary=boundary,
                           backend=backend, dtype=dtype, search=False,
                           r1=8, r2=8), grid


def _layout_run(case, cache, overlap=True):
    """One run of ``case``: 5 kernel iterations (a partial last round at
    depths 2 and 3) or 2 program steps."""
    from repro import ShardedProgramRunner

    kind, boundary, shards, knob, backend, dtype = case
    work, grid = _layout_work(kind, boundary, backend, dtype)
    if kind == "kernel":
        runner = ShardedExecutor(shards, shard_grid=DEEP_SHARDS[2][shards],
                                 cache=cache, halo_depth=knob,
                                 overlap=overlap)
        return runner, runner.execute(work, grid, 5)
    runner = ShardedProgramRunner(shards, cache=cache, fuse=knob,
                                  overlap=overlap)
    return runner, runner.execute(work, grid, 2)


@pytest.mark.parametrize(
    "case", _LAYOUT_CASES,
    ids=lambda case: "-".join(str(getattr(v, "value", v)) for v in case))
class TestPricedLaunches:
    """A layout prices its bill once from its phases' launches, so those
    launches must be exactly what the sweeps return, and a warm run —
    memoized layout and bill — must equal a cold one."""

    def test_phase_launch_is_what_the_sweep_returns(self, case):
        from repro.engine.sharded import run_shard_phase
        from repro.stencils.boundary import apply_boundary

        runner, _ = _layout_run(case, CompileCache())
        work, grid = _layout_work(*case[:2], *case[4:])
        layout = runner.layout(work)
        partition = layout.partition
        if case[5] is DataType.FP64:
            assert layout.phases[""][0][0].context.plan.engine == "dense_mma"
        base = apply_boundary(grid.data.copy(), partition.radius,
                              partition.boundary)
        for table in layout.phases.values():
            for row, local in zip(table, partition.extract(base)):
                for phase in row:
                    swept = run_shard_phase(phase, local.copy(),
                                            partition.radius)
                    assert phase.launch.output is None
                    assert dataclasses.replace(swept, output=None) \
                        == phase.launch

    def test_warm_run_equals_cold_run(self, case):
        _, cold = _layout_run(case, CompileCache())
        cache = CompileCache()
        # the layout key leaves out overlap, so the bill memo must key it
        _layout_run(case, cache, overlap=False)
        runner, warm_layout = _layout_run(case, cache)
        _, warm = _layout_run(case, cache)
        assert layout_facts(warm_layout) == layout_facts(cold)
        assert layout_facts(warm) == layout_facts(cold)

        # the run's bill is price_schedule over the layout's phase tables
        work, _ = _layout_work(*case[:2], *case[4:])
        layout = runner.layout(work)
        schedule = RoundSchedule.kernel(5, layout.partition.halo_depth) \
            if case[0] == "kernel" else RoundSchedule.program(layout.groups, 2)
        assert layout._bill(schedule, True) == price_schedule(
            schedule, layout.geometry, layout.phases, True)
        assert len(layout._bills) == 2


def test_racing_runs_on_a_cold_layout_agree():
    """Threads racing on one cold layout build (or share) it and price its
    bill, and each returns the run a fresh cache gives; the layout keeps
    one bill."""
    case = ("kernel", "periodic", 4, 2, "numpy", DataType.FP16)
    _, expected = _layout_run(case, CompileCache())
    cache = CompileCache()
    barrier = threading.Barrier(4)

    def race():
        barrier.wait(timeout=10)
        return _layout_run(case, cache)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(race) for _ in range(4)]
            runs = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for _, result in runs:
        assert layout_facts(result) == layout_facts(expected)
    runner = runs[0][0]
    layout = runner.layout(_layout_work(*case[:2], *case[4:])[0])
    assert len(layout._bills) == 1


def test_bill_memo_is_bounded_by_retained_sweeps():
    from repro.engine.sharded import _BILL_SWEEPS

    case = ("kernel", "periodic", 4, 2, "numpy", DataType.FP16)
    runner, _ = _layout_run(case, CompileCache())
    layout = runner.layout(_layout_work(*case[:2], *case[4:])[0])
    schedules = [RoundSchedule.kernel(sweeps, 2)
                 for sweeps in range(1, 100)]
    for schedule in schedules:
        layout._bill(schedule, True)
        retained = sum(bill.sweeps for bill in layout._bills.values())
        assert retained <= _BILL_SWEEPS
    # the oldest went first, the newest stayed, and an evicted bill prices
    # back identically
    assert (schedules[0], True) not in layout._bills
    assert (schedules[-1], True) in layout._bills
    assert layout._bill(schedules[0], True) == price_schedule(
        schedules[0], layout.geometry, layout.phases, True)
    # a bill longer than the whole budget is still kept, alone
    long = RoundSchedule.kernel(_BILL_SWEEPS + 1, 2)
    layout._bill(long, True)
    assert list(layout._bills) == [(long, True)]


class TestCustomBackendPricing:
    """A registered backend prices its sweeps through
    :meth:`StencilBackend.price`: the single-device executor bills the
    launches its sweeps return and the sharded engine bills the layout's
    phase launches, so both bill that price and cannot drift apart."""

    @pytest.fixture
    def backend(self):
        from repro.core import codegen

        class SlowNumpy(codegen.NumpyBackend):
            name = "slow-numpy-test"

            def price(self, context):
                launch = super().price(context)
                return dataclasses.replace(
                    launch, elapsed_seconds=launch.elapsed_seconds * 3.0)

        backend = SlowNumpy()
        codegen.register_backend(backend)
        try:
            yield backend
        finally:
            with codegen._BACKENDS_LOCK:
                codegen._BACKENDS.pop(backend.name, None)

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_one_shard_bills_the_single_device_run(self, backend, heat2d,
                                                   boundary):
        compiled = compile_stencil(heat2d, (64, 64), boundary=boundary,
                                   backend=backend.name)
        grid = make_grid((64, 64), seed=3, boundary=boundary)
        single = SingleDeviceExecutor().execute(compiled, grid, 3)
        sharded = ShardedExecutor(1, cache=CompileCache()).execute(
            compiled, grid, 3)
        assert np.array_equal(sharded.output, single.output)
        for name in ("elapsed_seconds", "compute_seconds", "memory_seconds",
                     "utilization"):
            assert getattr(sharded, name) == getattr(single, name), name
        numpy = compile_stencil(heat2d, (64, 64), boundary=boundary,
                                backend="numpy")
        plain = SingleDeviceExecutor().execute(numpy, grid, 3)
        assert single.elapsed_seconds == plain.elapsed_seconds * 3.0

    def test_phase_launches_are_the_backend_price(self, backend, heat2d):
        from repro.engine.sharded import run_shard_phase

        compiled = compile_stencil(heat2d, (66, 66), boundary="periodic",
                                   backend=backend.name)
        grid = make_grid((66, 66), seed=3, boundary="periodic")
        runner = ShardedExecutor(4, cache=CompileCache(), halo_depth=2)
        result = runner.execute(compiled, grid, 4)
        layout = runner.layout(compiled)
        partition = layout.partition
        for row, local in zip(layout.phases[""], partition.extract(grid.data)):
            for phase in row:
                assert phase.launch == backend.price(phase.context)
                swept = run_shard_phase(phase, local.copy(), partition.radius)
                assert dataclasses.replace(swept, output=None) == phase.launch
        assert result.elapsed_seconds == price_schedule(
            RoundSchedule.kernel(4, 2), layout.geometry,
            layout.window_seconds()).wall_seconds


class TestRouterPricesSteadyState:
    def test_short_run_routes_single_despite_cheap_finite_schedule(self):
        """The router prices the steady-state round, not the finite one: a
        4-iteration 64x64 heat-2d run needs no exchange at depth 4 and its
        finite schedule models ~1.9x on 2 devices, yet it routes single."""
        from repro import SolvePolicy
        from repro.stencils.partition import GridPartition

        pattern = get_benchmark("heat-2d").pattern
        problem = Problem(pattern, make_grid((64, 64), seed=3),
                          iterations=4, options={"backend": "numpy"})
        with StencilSession(devices=2) as session:
            compiled = session.compile(problem)
            solution = session.solve(problem, SolvePolicy(mode="auto"))
            min_speedup = session.scheduler.min_speedup
        assert solution.provenance.executor == "single"

        partition = GridPartition.build(
            (64, 64), pattern.radius, 2, align=compiled.plan.config.r,
            halo_depth=4)
        assert partition.halo_depth == 4
        geometry = ShardGeometry.build(partition, multi_a100(2),
                                       compiled.plan.dtype.itemsize)
        sweep = compiled.plan.estimate.t_total
        finite = price_schedule(RoundSchedule.kernel(4, 4), geometry,
                                {"": geometry.linear_seconds(sweep)})
        assert finite.exchange_count == 0
        speedup = sweep / finite.per_sweep_seconds
        assert speedup == pytest.approx(1.9, abs=0.02)
        assert speedup > min_speedup    # finite pricing would shard it


class TestDeepHaloTradeoff:
    def test_points_cover_contiguous_depths(self):
        compiled, _, _ = _deep_case(2, "dirichlet")
        trade = deep_halo_tradeoff(compiled, 4, shard_grid=(2, 2),
                                   max_depth=3, cache=_DEEP_CACHE)
        assert [p.halo_depth for p in trade.points] == [1, 2, 3]
        assert trade.devices == 4
        assert trade.shard_grid == (2, 2)
        assert trade.predicted_depth in (1, 2, 3)
        rows = trade.as_rows()
        assert rows[0]["halo_depth"] == 1
        assert all(p.redundant_fraction == 0.0 for p in trade.points[:1])
        assert all(p.redundant_fraction > 0.0 for p in trade.points[1:])

    def test_max_depth_clamped_to_geometry(self, heat2d):
        compiled = compile_stencil(heat2d, (34, 34), search=False, r1=8, r2=8)
        trade = deep_halo_tradeoff(compiled, 4, shard_grid=(2, 2),
                                   max_depth=6, window_estimates=False)
        assert [p.halo_depth for p in trade.points] == [1, 2]

    def test_finite_schedule_predicts_measured_optimum(self):
        """The crossover assert the benchmark relies on: with finite-horizon
        window-exact pricing, the predicted depth IS the measured argmin."""
        compiled, grid, _ = _deep_case(2, "dirichlet")
        spec = MultiDeviceSpec(device=compiled.spec, device_count=4,
                               interconnect_bandwidth_gbs=600.0,
                               link_latency_seconds=2e-7)
        trade = deep_halo_tradeoff(compiled, spec, shard_grid=(2, 2),
                                   max_depth=3, overlap=False,
                                   cache=_DEEP_CACHE, iterations=DEEP_ITERS)
        measured = {}
        for point in trade.points:
            result = ShardedExecutor(spec, shard_grid=(2, 2),
                                     cache=_DEEP_CACHE,
                                     halo_depth=point.halo_depth,
                                     overlap=False).execute(
                compiled, grid, DEEP_ITERS)
            measured[point.halo_depth] = result.elapsed_seconds
            assert point.per_sweep_seconds * DEEP_ITERS == pytest.approx(
                result.elapsed_seconds, rel=1e-9)
        best = min(measured, key=measured.get)
        assert trade.predicted_depth == best


class TestSolveSharded:
    def test_matches_direct_pipeline(self, heat2d):
        grid = make_grid((96, 96), seed=9)
        compiled, result = solve_sharded(heat2d, grid, 2, devices=2)
        single = SingleDeviceExecutor().execute(compiled, grid, 2)
        assert np.array_equal(result.output, single.output)
        assert result.device_count == 2

    def test_cache_shared_between_global_and_shard_plans(self, heat2d):
        cache = CompileCache()
        grid = make_grid((96, 96), seed=9)
        solve_sharded(heat2d, grid, 2, devices=2, cache=cache)
        before = cache.stats.misses
        solve_sharded(heat2d, grid, 2, devices=2, cache=cache)
        assert cache.stats.misses == before  # fully warm second run

    def test_integer_devices_inherit_compiled_spec(self, heat2d):
        """devices=N must cluster the *compiled* device, not default A100s."""
        from repro.tcu.spec import A100_SPEC
        weak = A100_SPEC.with_overrides(sm_count=27, global_bandwidth_gbs=400.0)
        grid = make_grid((96, 96), seed=9)
        _, on_weak = solve_sharded(heat2d, grid, 2, devices=2, spec=weak)
        _, on_a100 = solve_sharded(heat2d, grid, 2, devices=2)
        assert on_weak.elapsed_seconds > on_a100.elapsed_seconds
        # different specs may pick different layouts, so only functional
        # closeness (not bit-equality) holds across devices
        assert np.max(np.abs(on_weak.output - on_a100.output)) < 5e-3

    def test_custom_interconnect(self, heat2d):
        slow = MultiDeviceSpec(device_count=2,
                               interconnect_bandwidth_gbs=10.0,
                               link_latency_seconds=1e-3)
        fast = multi_a100(2)
        grid = make_grid((96, 96), seed=9)
        _, on_slow = solve_sharded(heat2d, grid, 2, devices=slow)
        _, on_fast = solve_sharded(heat2d, grid, 2, devices=fast)
        assert on_slow.elapsed_seconds > on_fast.elapsed_seconds
        assert np.array_equal(on_slow.output, on_fast.output)


class TestScalingAnalysis:
    def test_report_shape_and_invariants(self, heat2d):
        grid = make_grid((96, 96), seed=5)
        report = sharded_scaling(heat2d, grid, 2, device_counts=(1, 2, 4))
        assert len(report.points) == 3
        assert report.single_device_seconds > 0
        one = report.points[0]
        assert one.devices == 1
        assert one.halo_traffic_fraction == 0.0
        for point in report.points:
            assert point.efficiency == pytest.approx(point.speedup / point.devices)
        rows = report.as_rows()
        assert rows[1]["devices"] == 2

    def test_envelope_fields_in_rows(self, heat2d):
        grid = make_grid((130, 130), seed=5)
        report = sharded_scaling(heat2d, grid, 4, device_counts=(1, 4),
                                 halo_depth=2, overlap=False,
                                 shard_grids=((1, 1), (2, 2)))
        row = report.as_rows()[1]
        for key in ("halo_depth", "overlap", "halo_exchange_count",
                    "halo_exchange_bytes", "halo_exposed_seconds",
                    "halo_bytes_fraction", "redundant_compute_fraction"):
            assert key in row
        assert row["halo_depth"] == 2
        assert row["overlap"] is False
        assert row["halo_exchange_count"] == 1
        assert row["redundant_compute_fraction"] > 0.0
        baseline = report.as_rows()[0]
        assert baseline["halo_exchange_count"] == 0
        assert baseline["halo_bytes_fraction"] == 0.0

    def test_per_shard_utilization_rows(self, heat2d):
        grid = make_grid((96, 96), seed=5)
        compiled = compile_stencil(heat2d, (96, 96))
        result = ShardedExecutor(4).execute(compiled, grid, 2)
        rows = per_shard_utilization(result)
        assert len(rows) == 4
        assert {"shard", "elapsed_seconds", "SM Utilization"} <= set(rows[0])


# --------------------------------------------------------------------- #
# layout memo
# --------------------------------------------------------------------- #

LAYOUT_SETTINGS = dict(max_examples=15, deadline=None)

#: Every boundary kind, Neumann with a non-zero flux included.
LAYOUT_BOUNDARIES = ["dirichlet", "periodic", "reflect", neumann(0.5)]

#: Two device models differing on both roofline sides, so a memory-bound
#: window plan is priced differently too.
LAYOUT_DEVICES = [GPUSpec(),
                  GPUSpec(clock_ghz=1.0, global_bandwidth_gbs=900.0)]
LAYOUT_LINKS = [(600.0, 2e-6), (1e4, 1e-9)]

#: Per-axis extent range of the generated (ragged) grids, by ndim.
LAYOUT_EXTENTS = {1: (40, 300), 2: (24, 72), 3: (10, 18)}

#: Pinned ``(r1, r2)`` layouts: cheap to compile at every ndim.
LAYOUT_R = [(1, 1), (2, 2), (2, 1)]


def layout_facts(result):
    """Every :class:`ShardedRunResult` field but the host-time
    ``overhead_seconds``, with the output as raw bytes."""
    return {field.name: (result.output.tobytes() if field.name == "output"
                         else getattr(result, field.name))
            for field in dataclasses.fields(result)
            if field.name != "overhead_seconds"}


def shard_layout_hits():
    return global_registry().counter("engine.shard_layout_hits").value


@lru_cache(maxsize=None)
def _layout_plan(kind, ndim, weight, shape, boundary, backend, fusion, r,
                 dtype):
    pattern = getattr(StencilPattern, kind)(ndim, 1)
    weights = [weight * w for w in pattern.weights]
    pattern = getattr(StencilPattern, kind)(ndim, 1, weights=weights)
    return compile_stencil(pattern, shape, temporal_fusion=fusion,
                           boundary=boundary, backend=backend, dtype=dtype,
                           search=False, r1=r[0], r2=r[1])


def _cluster(devices, device, link):
    bandwidth, latency = LAYOUT_LINKS[link]
    return MultiDeviceSpec(device=LAYOUT_DEVICES[device],
                           device_count=devices,
                           interconnect_bandwidth_gbs=bandwidth,
                           link_latency_seconds=latency)


def _shard_grids(ndim, devices):
    """Explicit shard grids with 2..``devices`` shards."""
    return [grid for grid in itertools.product([1, 2, 4, 8], repeat=ndim)
            if 2 <= int(np.prod(grid)) <= devices]


@st.composite
def kernel_layout_cases(draw):
    ndim = draw(st.integers(1, 3))
    low, high = LAYOUT_EXTENTS[ndim]
    plan = dict(kind=draw(st.sampled_from(["star", "box"])), ndim=ndim,
                weight=1.0,
                shape=tuple(draw(st.integers(low, high))
                            for _ in range(ndim)),
                boundary=draw(st.sampled_from(LAYOUT_BOUNDARIES)),
                backend=draw(st.sampled_from(["tcu-sim", "numpy"])),
                # a fused 3-D pattern is radius 2: too slow to compile here
                fusion=draw(st.sampled_from([1, 2] if ndim < 3 else [1])),
                r=draw(st.sampled_from(LAYOUT_R)),
                dtype=DataType.FP16)
    devices = draw(st.sampled_from([2, 4, 8]))
    cluster = dict(devices=devices, device=draw(st.integers(0, 1)),
                   link=draw(st.integers(0, 1)))
    policy = dict(shard_grid=draw(st.one_of(
                      st.none(), st.sampled_from(_shard_grids(ndim, devices)))),
                  halo_depth=draw(st.integers(1, 3)))
    return plan, cluster, policy, draw(st.sampled_from([2, 4, 6]))


def _kernel_layout_variants(plan, cluster, policy):
    """``(plan, cluster, policy)`` inputs that each differ from the case in
    exactly one input of the kernel layout key, so a key missing any of
    them makes one variant collide with the case."""
    ndim = plan["ndim"]
    grids = [None] + _shard_grids(ndim, cluster["devices"])
    edits = [
        ("plan", "shape", plan["shape"][:-1] + (plan["shape"][-1] + 8,)),
        ("plan", "weight", 0.5),
        ("plan", "fusion", 3 - plan["fusion"] if ndim < 3 else 1),
        ("plan", "r", LAYOUT_R[(LAYOUT_R.index(plan["r"]) + 1) % 3]),
        ("plan", "boundary", LAYOUT_BOUNDARIES[
            (LAYOUT_BOUNDARIES.index(plan["boundary"]) + 1) % 4]),
        ("plan", "backend",
         "numpy" if plan["backend"] == "tcu-sim" else "tcu-sim"),
        ("plan", "dtype", DataType.BF16),
        ("cluster", "devices", 8 if cluster["devices"] != 8 else 4),
        ("cluster", "device", 1 - cluster["device"]),
        ("cluster", "link", 1 - cluster["link"]),
        ("policy", "shard_grid", grids[(grids.index(policy["shard_grid"])
                                        + 1) % len(grids)]),
        ("policy", "halo_depth", policy["halo_depth"] % 3 + 1),
    ]
    # the two link fields separately: bandwidth only, then latency only
    variants = []
    for part, field, value in edits:
        case = {"plan": dict(plan), "cluster": dict(cluster),
                "policy": dict(policy)}
        case[part][field] = value
        variants.append(case)
    for index in (0, 1):
        bandwidth, latency = LAYOUT_LINKS[cluster["link"]]
        other = LAYOUT_LINKS[1 - cluster["link"]]
        link = (other[0], latency) if index == 0 else (bandwidth, other[1])
        variants.append({"plan": dict(plan), "cluster": dict(cluster),
                         "policy": dict(policy), "link": link})
    return variants


def _run_kernel_layout(plan, cluster, policy, iterations, cache, link=None):
    compiled = _layout_plan(**plan)
    spec = _cluster(**cluster)
    if link is not None:
        spec = spec.with_overrides(interconnect_bandwidth_gbs=link[0],
                                   link_latency_seconds=link[1])
    grid = make_grid(compiled.grid_shape, kind="random", seed=5,
                     boundary=compiled.boundary)
    executor = ShardedExecutor(spec, cache=cache, **policy)
    return executor.execute(compiled, grid, iterations)


class TestLayoutMemo:
    """A memoized :class:`~repro.engine.sharded.ShardLayout` yields exactly
    the run a fresh cache builds: its key names every input the layout is
    derived from."""

    @settings(**LAYOUT_SETTINGS)
    @given(case=kernel_layout_cases())
    def test_warm_run_equals_fresh(self, case):
        plan, cluster, policy, iterations = case
        warm = CompileCache()
        for variant in _kernel_layout_variants(plan, cluster, policy):
            with suppress(ValidationError):
                _run_kernel_layout(variant["plan"], variant["cluster"],
                                   variant["policy"], 6, warm,
                                   link=variant.get("link"))
        try:
            fresh = _run_kernel_layout(plan, cluster, policy, iterations,
                                       CompileCache())
        except ValidationError:
            event("partition rejected")
            with pytest.raises(ValidationError):
                _run_kernel_layout(plan, cluster, policy, iterations, warm)
            return
        event("compared")
        _run_kernel_layout(plan, cluster, policy, iterations, warm)
        hits = shard_layout_hits()
        memoized = _run_kernel_layout(plan, cluster, policy, iterations,
                                      warm)
        assert shard_layout_hits() == hits + 1
        assert layout_facts(memoized) == layout_facts(fresh)

    def test_inexpressible_config_never_hits_the_memo(self, heat3d):
        """A (2, 4, 4) config pins the same ``(r1, r2)`` request as the
        expressible (1, 4, 4) one, yet may not shard: the config keys the
        layout, so the warm memo cannot serve it."""
        from repro.core.morphing import MorphConfig

        cache = CompileCache()
        compiled = compile_stencil(heat3d, (16, 20, 20), search=False,
                                   r1=4, r2=4)
        assert compiled.plan.config.r == (1, 4, 4)
        grid = make_grid((16, 20, 20), kind="random", seed=2)
        ShardedExecutor(2, cache=cache).execute(compiled, grid, 2)
        skewed = dataclasses.replace(compiled, plan=dataclasses.replace(
            compiled.plan, config=MorphConfig((2, 4, 4))))
        with pytest.raises(ValidationError, match="not expressible"):
            ShardedExecutor(2, cache=cache).execute(skewed, grid, 2)

    def test_no_cache_memoizes_nothing(self, heat2d):
        compiled = compile_stencil(heat2d, (64, 64))
        grid = make_grid((64, 64), seed=3)
        hits = shard_layout_hits()
        runs = [ShardedExecutor(4).execute(compiled, grid, 2)
                for _ in range(2)]
        assert shard_layout_hits() == hits
        assert layout_facts(runs[0]) == layout_facts(runs[1])

    def test_warm_run_looks_nothing_up(self, heat2d):
        """A memo hit compiles nothing and makes no plan lookup."""
        cache = CompileCache()
        compiled = compile_stencil(heat2d, (66, 66))
        grid = make_grid((66, 66), seed=3)
        executor = ShardedExecutor(4, cache=cache, halo_depth=2)
        executor.execute(compiled, grid, 4)
        lookups = cache.snapshot_stats().lookups
        assert cache.metrics_snapshot()["resident_layouts"] == 1
        again = executor.execute(compiled, grid, 4)
        assert cache.snapshot_stats().lookups == lookups
        assert again.overhead_seconds["shard_compile"] >= 0.0
        cache.clear()
        assert cache.metrics_snapshot()["resident_layouts"] == 0

    def test_layout_table_cleared_when_full(self):
        cache = CompileCache()
        for index in range(SHARD_LAYOUT_LIMIT):
            assert cache.shard_layout(("k", index), lambda: index) \
                == (index, False)
        assert cache.shard_layout(("k", 0), lambda: -1) == (0, True)
        assert cache.shard_layout(("k", "new"), lambda: "new") \
            == ("new", False)
        assert cache.metrics_snapshot()["resident_layouts"] == 1
        assert len(cache) == 0      # plans live in a separate table

    def test_racing_misses_share_the_stored_layout(self):
        cache = CompileCache()
        barrier = threading.Barrier(4)

        def build():
            barrier.wait(timeout=10)
            return object()

        results = []
        threads = [threading.Thread(
            target=lambda: results.append(cache.shard_layout("key", build)))
            for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len({id(layout) for layout, _ in results}) == 1
        assert [hit for _, hit in results] == [False] * 4
        assert cache.metrics_snapshot()["resident_layouts"] == 1

    def test_concurrent_direct_and_served_solves_share_one_session(
            self, heat2d):
        """Threads mixing direct sharded solves and served requests the
        router shards share one session: every output is the single-device
        one, the memo holds one layout per distinct key, and every lease
        comes back."""
        pool = MultiDeviceSpec(device_count=4, interconnect_bandwidth_gbs=1e4,
                               link_latency_seconds=1e-9)
        session = StencilSession(SessionConfig(devices=pool,
                                               min_speedup=1.0))
        problems = [Problem(heat2d, make_grid(shape, kind="random", seed=7),
                            iterations=4, options=dict(backend="numpy"))
                    for shape in [(96, 104), (66, 66)]]
        expected = [session.solve(problem, mode="single").output.tobytes()
                    for problem in problems]

        def worker(index):
            solutions = []
            for step in range(6):
                which = (index + step) % 2
                mode = "served" if (index + step) % 3 == 0 else "sharded"
                solutions.append(
                    (which, session.solve(problems[which], mode=mode)))
            return solutions

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=6) as executor:
                futures = [executor.submit(worker, index)
                           for index in range(6)]
                solved = [pair for future in futures
                          for pair in future.result(timeout=120)]
        finally:
            sys.setswitchinterval(interval)
            session.close()

        keys = set()
        for which, solution in solved:
            assert solution.output.tobytes() == expected[which]
            run = solution.result
            if solution.provenance.delegate == "single":
                continue
            spec = pool.with_overrides(device=solution.compiled.spec,
                                       device_count=run.device_count)
            executor = ShardedExecutor(spec, halo_depth=run.halo_depth)
            keys.add(executor._layout_key(solution.compiled, spec))
        assert any(solution.provenance.executor == "served"
                   and solution.provenance.delegate == "sharded"
                   for _, solution in solved)
        assert session.cache.metrics_snapshot()["resident_layouts"] \
            == len(keys)
        assert session.scheduler.ledger.in_use == 0

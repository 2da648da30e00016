"""Service-layer benchmark — compile cache and batched solve throughput.

Quantifies what the serving layer buys on top of the paper's pipeline:

* cold vs. warm compile latency per Table-2 kernel (a warm hit skips
  morphing, conversion and the layout search entirely);
* batched ``StencilSession.solve_batch`` throughput over a mixed
  8-request workload versus sequential uncached single-device solves (a
  fresh session per solve).

Regenerate with::

    pytest benchmarks/bench_service_cache.py --benchmark-only -s
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import BENCH_GRIDS, save_results
from repro import Problem, StencilSession, make_grid
from repro.service import CompileCache, CompileRequest
from repro.stencils.catalog import table2_benchmarks

#: Kernels small enough that host compile time is the interesting quantity.
CACHE_KERNELS = [c for c in table2_benchmarks()
                 if c.name in ("Heat-1D", "Heat-2D", "Box-2D9P", "Box-2D49P")]

_ROWS: dict = {}


@pytest.mark.parametrize("config", CACHE_KERNELS, ids=lambda c: c.name)
def test_cold_vs_warm_compile(benchmark, config):
    grid_shape = BENCH_GRIDS[config.pattern.ndim]
    request = CompileRequest.build(config.pattern, grid_shape)

    cold_start = time.perf_counter()
    cache = CompileCache()
    cache.get_or_compile(request)
    cold_seconds = time.perf_counter() - cold_start

    warm = benchmark.pedantic(cache.get_or_compile, args=(request,),
                              rounds=20, iterations=1)
    warm_seconds = min(benchmark.stats.stats.data)
    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    assert cache.stats.hits >= 20
    assert warm.plan is not None

    print(f"\n{config.name}: cold compile {cold_seconds * 1e3:8.2f} ms, "
          f"warm lookup {warm_seconds * 1e6:8.2f} us "
          f"({speedup:,.0f}x)")
    _ROWS.setdefault("compile_latency", {})[config.name] = {
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": speedup,
    }


def _mixed_problems():
    patterns = [c.pattern for c in CACHE_KERNELS]
    problems = []
    for i in range(8):
        pattern = patterns[i % len(patterns)]
        shape = BENCH_GRIDS[pattern.ndim]
        problems.append(Problem(pattern, make_grid(shape, seed=i), 2,
                                tag=f"{pattern.name}/{i}"))
    return problems


def test_batch_throughput(benchmark):
    problems = _mixed_problems()

    # the pre-service baseline: one-at-a-time, no shared cache (a fresh
    # session per solve), one compile per request
    sequential_start = time.perf_counter()
    sequential_provenance = None
    for problem in problems:
        solution = StencilSession().solve(problem, mode="single")
        sequential_provenance = solution.provenance
    sequential_seconds = time.perf_counter() - sequential_start

    session = StencilSession()
    session.solve_batch(problems)  # warm the cache once
    report = benchmark.pedantic(session.solve_batch, args=(problems,),
                                rounds=5, iterations=1)
    batched_seconds = min(benchmark.stats.stats.data)

    summary = report.summary()
    print(f"\nbatch of {summary['requests']} requests "
          f"({summary['distinct_plans']} distinct plans): "
          f"sequential uncached {sequential_seconds * 1e3:.1f} ms, "
          f"warm batched {batched_seconds * 1e3:.1f} ms "
          f"({sequential_seconds / batched_seconds:.1f}x), "
          f"aggregate {summary['aggregate_gstencil_per_second']:.1f} GStencil/s")
    assert summary["compiles_performed"] == 0  # fully warm
    _ROWS["batch_throughput"] = {
        "sequential_uncached_seconds": sequential_seconds,
        "warm_batched_seconds": batched_seconds,
        "speedup": sequential_seconds / batched_seconds,
        "aggregate_gstencil_per_second":
            summary["aggregate_gstencil_per_second"],
        "requests": summary["requests"],
        "distinct_plans": summary["distinct_plans"],
    }
    # session provenance: which engine the routed modes actually used, so
    # the perf trajectory can distinguish "same numbers, different path"
    _ROWS["provenance"] = {
        "api": "session",
        "sequential": sequential_provenance.as_dict(),
        "batch_mode": "solve_batch/single",
    }


def test_service_cache_save(benchmark, results_dir):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not _ROWS:
        pytest.skip("no rows collected")
    path = save_results("service_cache", _ROWS, config={
        "kernels": [c.name for c in CACHE_KERNELS],
        "bench_grids": {str(k): list(v) for k, v in BENCH_GRIDS.items()},
        "batch_requests": 8,
        "api": "session",
    })
    print(f"\nsaved service-cache benchmark rows to {path}")

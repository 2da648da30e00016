"""Golden-regression tests: frozen reference outputs for Table-2 workloads.

Two layers of protection per fixture (see ``tests/golden/generate_golden.py``):

* against the stored *numpy reference* with the fp16 device tolerance —
  the pipeline must stay functionally correct;
* against the stored *pipeline output* near-exactly — refactors of the
  compile/execute path must not silently move the numerics at all.

The cached and batched service paths are held to the same goldens, so the new
serving layer can never return different numbers than a direct solve.  The
``periodic`` / ``reflect`` fixtures hold the boundary-condition subsystem to
the identical drift guarantees.

The fixtures freeze the *tcu-sim* backend's numerics, so every compile here
pins ``backend="tcu-sim"`` explicitly — the goldens must keep guarding the
simulated pipeline even when the suite runs under a ``REPRO_BACKEND``
override (the CI backend matrix).  Pinning the default changes no
fingerprints in a plain run.
"""

from __future__ import annotations

import numpy as np
import pytest

from golden.generate_golden import CASES, fixture_path

from repro import (Problem, StencilSession, compile_stencil, get_benchmark,
                   make_grid)
from repro.service import CompileCache

CASE_IDS = [f"{c[0]}-{c[4]}" for c in CASES]

#: Drift bound for the frozen pipeline output: effectively exact, with a
#: whisker of slack for BLAS/numpy reduction-order differences across builds.
DRIFT_TOL = 1e-9


def load_fixture(name: str, boundary: str):
    path = fixture_path(name, boundary)
    assert path.exists(), (
        f"golden fixture {path} missing — regenerate with "
        f"`PYTHONPATH=src python tests/golden/generate_golden.py`")
    return np.load(path)

def run_plan(compiled, grid, iterations: int):
    """Run a compiled plan on one device through a fresh session."""
    return StencilSession().run(compiled, grid, iterations).result


def workload(name: str, grid_shape, seed: int, boundary: str):
    config = get_benchmark(name)
    return config.pattern, make_grid(grid_shape, kind="random", seed=seed,
                                     boundary=boundary)


@pytest.mark.parametrize("name,grid_shape,iterations,seed,boundary,ref_tol",
                         CASES, ids=CASE_IDS)
class TestGoldenRegression:
    def test_fixture_matches_workload(self, name, grid_shape, iterations,
                                      seed, boundary, ref_tol):
        fixture = load_fixture(name, boundary)
        assert tuple(fixture["grid_shape"]) == tuple(grid_shape)
        assert int(fixture["iterations"]) == iterations
        assert int(fixture["seed"]) == seed
        assert str(fixture["boundary"]) == boundary

    def test_session_run_matches_golden(self, name, grid_shape, iterations,
                                        seed, boundary, ref_tol):
        fixture = load_fixture(name, boundary)
        pattern, grid = workload(name, grid_shape, seed, boundary)
        compiled = compile_stencil(pattern, grid_shape, boundary=boundary,
                                   backend="tcu-sim")
        result = run_plan(compiled, grid, iterations)
        assert np.max(np.abs(result.output - fixture["reference"])) < ref_tol
        np.testing.assert_allclose(result.output, fixture["pipeline"],
                                   rtol=0.0, atol=DRIFT_TOL)

    def test_cached_solve_matches_golden(self, name, grid_shape, iterations,
                                         seed, boundary, ref_tol):
        fixture = load_fixture(name, boundary)
        pattern, grid = workload(name, grid_shape, seed, boundary)
        cache = CompileCache()
        cache.compile(pattern, grid_shape, boundary=boundary,
                      backend="tcu-sim")  # cold compile
        compiled = cache.compile(pattern, grid_shape, boundary=boundary,
                                 backend="tcu-sim")  # warm hit
        assert cache.stats.hits == 1
        result = run_plan(compiled, grid, iterations)
        np.testing.assert_allclose(result.output, fixture["pipeline"],
                                   rtol=0.0, atol=DRIFT_TOL)


@pytest.mark.slow
def test_batched_service_matches_goldens():
    """One batch over all golden workloads reproduces every fixture.

    The batch mixes boundary conditions, so it also proves the coalescing
    path can never serve a plan across boundaries (fingerprints differ).
    """
    requests = []
    fixtures = []
    for name, grid_shape, iterations, seed, boundary, _tol in CASES:
        pattern, grid = workload(name, grid_shape, seed, boundary)
        requests.append(Problem(pattern, grid, iterations,
                                options={"backend": "tcu-sim"},
                                tag=f"{name}-{boundary}"))
        fixtures.append(load_fixture(name, boundary))
    # a fresh session's cache is empty: every plan compiles fresh
    report = StencilSession().solve_batch(requests)
    for item, fixture in zip(report.items, fixtures):
        np.testing.assert_allclose(item.result.output, fixture["pipeline"],
                                   rtol=0.0, atol=DRIFT_TOL)

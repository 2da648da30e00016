"""Backends: run the same compiled plan on different execution backends.

Every plan the compiler produces carries a *backend* — the host strategy
that executes the sweeps.  The default, ``tcu-sim``, is the instrumented
step-by-step simulation of the paper's kernel (gather through the lookup
table, 2:4-sparse MMA per fragment row, halo reassembly).  The ``numpy``
backend executes the mathematically identical update as one vectorized
host sweep: float64-exact numerics and several times faster wall-clock,
while billing the *same* modelled device time from the plan's roofline
estimate.

Pick a backend per solve (``SolvePolicy(backend=...)``), per compile
(``compile_stencil(..., backend=...)``), or process-wide with the
``REPRO_BACKEND`` environment variable.  Backend choice joins the compile
fingerprint, so caches never serve a plan across backends.

Run with::

    python examples/backends.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    Problem,
    SolvePolicy,
    StencilPattern,
    StencilSession,
    get_backend,
    make_grid,
    registered_backends,
    run_stencil_iterations,
)


def main() -> None:
    # 1. What is registered in this process?
    print("Registered backends:")
    for name in registered_backends():
        backend = get_backend(name)
        print(f"  {name:8s} {backend.description}")

    heat = StencilPattern.star(2, 1, weights=[0.6, 0.1, 0.1, 0.1, 0.1],
                               name="heat-2d")
    grid = make_grid((256, 256), kind="gaussian")
    iterations = 8
    reference = run_stencil_iterations(heat, grid, iterations)

    # 2. Solve the same problem on each backend.  The policy's backend
    #    joins the compile fingerprint, so each backend compiles its own
    #    plan — a cached tcu-sim plan is never served to a numpy solve.
    with StencilSession() as session:
        solutions = {}
        for name in registered_backends():
            problem = Problem(heat, grid, iterations, tag=f"demo-{name}")
            start = time.perf_counter()
            solution = session.solve(problem, SolvePolicy(mode="single",
                                                          backend=name))
            wall = time.perf_counter() - start
            solutions[name] = solution
            error = float(np.max(np.abs(solution.output - reference)))
            print(f"\n{name}:")
            print(f"  provenance.backend     : {solution.provenance.backend}")
            print(f"  host wall-clock        : {wall * 1e3:8.2f} ms")
            print(f"  modelled device time   : "
                  f"{solution.result.elapsed_seconds * 1e6:8.2f} us")
            print(f"  max |error| vs float64 : {error:.2e}")

        stats = session.cache.stats
        print(f"\nSession cache: {stats.misses} compiles for "
              f"{len(solutions)} backends (fingerprints are per-backend)")

    # 3. The backends agree on the modelled device economics bit-exactly
    #    (both bill the plan's roofline estimate); they differ only in host
    #    wall-clock and in the fp16 rounding the simulation carries.
    sim = solutions["tcu-sim"]
    fast = solutions["numpy"]
    assert sim.result.elapsed_seconds == fast.result.elapsed_seconds
    drift = float(np.max(np.abs(sim.output.astype(np.float64) - fast.output)))
    print(f"tcu-sim vs numpy outputs : max |drift| {drift:.2e} "
          f"(the simulation's fp16 envelope)")
    assert drift < 2e-2


if __name__ == "__main__":
    main()
